"""Join operators: hash, merge and nested-loop, inner/outer/semi/anti.

The planner chooses among these per dialect profile; the paper's observed
behaviour maps onto them as follows:

* Oracle and DB2 profiles use :class:`HashJoin` for equi-joins;
* the PostgreSQL profile uses :class:`MergeJoin` when temp-table statistics
  are stale — paying an explicit sort unless an ordered index feed is
  available (Fig 10);
* ``NOT IN`` compiles to :class:`NotInAntiJoin`, whose extra NULL
  bookkeeping is the cost difference measured in Tables 6/7, while
  ``NOT EXISTS`` and ``LEFT OUTER JOIN ... IS NULL`` both compile to
  :class:`HashAntiJoin` ("not exists and left outer join will generate the
  same query plan").
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Iterator, Sequence

from ..expressions import Expression, bind, compile_expression, compile_key_function
from ..relation import Row
from ..schema import Schema
from .base import PhysicalOperator
from .batch import (
    ListOperator,
    batch_source,
    block_eligible,
    bound_positions,
    build_index,
    chunks,
    key_set,
    materialize,
    scalar_key,
)
from .blocks import ColumnBatch, JoinColumns, StoreColumns
from .scan import IndexOrderedScan

KeyFn = Callable[[Row], tuple]


def _key_fn(keys: Sequence[Expression], schema: Schema) -> KeyFn:
    bound = [bind(k, schema) for k in keys]
    return compile_key_function(bound)


def _keys_sql(keys: Sequence[Expression]) -> str:
    return ", ".join(k.sql() for k in keys)


class _BinaryJoin(PhysicalOperator):
    """Shared machinery for key-based binary joins."""

    #: Rows hashed into build-side tables, accumulated over executions.
    #: Telemetry reads these as free byproducts (no per-probe cost).
    build_rows_observed = 0
    #: Rows the anti-join variants removed, accumulated over executions.
    pruned_total = 0

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_keys: Sequence[Expression],
                 right_keys: Sequence[Expression]):
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self._left_key = _key_fn(left_keys, left.schema)
        self._right_key = _key_fn(right_keys, right.schema)
        self._schema = left.schema.concat(right.schema)

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def detail(self) -> str:
        return f"{_keys_sql(self.left_keys)} = {_keys_sql(self.right_keys)}"


class _HashJoinBase(_BinaryJoin, ListOperator):
    """Batch build + chunked probe: scalar key getters for single-column
    keys and a trusted materialise of the output list."""

    def __init__(self, left, right, left_keys, right_keys):
        super().__init__(left, right, left_keys, right_keys)
        # Raw (untupled) getters when both sides key on one plain column;
        # otherwise both are None and both sides use the tuple-returning
        # key functions from _BinaryJoin (a single C call for columns), so
        # build and probe keys always have the same shape.
        left_scalar = scalar_key(left_keys, left.schema)
        right_scalar = scalar_key(right_keys, right.schema)
        if left_scalar is None or right_scalar is None:
            left_scalar = right_scalar = None
        self._left_scalar = left_scalar
        self._right_scalar = right_scalar
        # Key column positions (all-plain-column keys only): what the
        # columnar store's cached hash indexes are keyed by.
        self._left_positions = bound_positions(left_keys, left.schema)
        self._right_positions = bound_positions(right_keys, right.schema)


class HashJoin(_HashJoinBase):
    """Inner equi-join: build a hash table on one side, probe with the other.

    ``build_side`` is chosen by the planner policy — with fresh statistics
    (the Oracle/DB2 profiles) the smaller input becomes the build side,
    which is precisely the plan quality the paper credits the commercial
    optimizers with; without statistics the default (right) build is used.

    NULL join keys never enter the build index, so probe lookups need no
    explicit NULL test — a NULL probe key simply misses.  When the build
    side is a columnar table scan, the store's cached hash index serves
    the build and survives across executions of the plan (every iteration
    of a with+ loop), so only the probe side is paid per execution.
    """

    label = "Hash Join"

    def __init__(self, left, right, left_keys, right_keys,
                 build_side: str = "right"):
        super().__init__(left, right, left_keys, right_keys)
        if build_side not in ("left", "right"):
            raise ValueError(f"bad build_side {build_side!r}")
        self.build_side = build_side

    def detail(self) -> str:
        base = super().detail()
        if self.build_side == "left":
            return f"{base}; build left"
        return base

    def block_source(self) -> ColumnBatch | None:
        """Join output as gather vectors over a position index — no
        concatenated row tuples are built at all.

        When the build side is a columnar scan, the position index comes
        from the store's cache and survives across fixpoint iterations;
        otherwise (the common recursive shape puts the small delta on the
        build side) an ephemeral index is built from the batch's key
        column — same O(|build|) as the row path, but probing still pays
        column-gather prices instead of per-row tuple construction.
        """
        if self.build_side == "right":
            build, probe = self.right, self.left
            build_positions = self._right_positions
            probe_positions = self._left_positions
        else:
            build, probe = self.left, self.right
            build_positions = self._left_positions
            probe_positions = self._right_positions
        if build_positions is None or probe_positions is None:
            return None
        probe_src = batch_source(probe)
        if probe_src is None:
            return None
        scalar = len(build_positions) == 1
        kind = "scalar-positions" if scalar else "tuple-positions"
        store = build.columnar_store()
        probe_store = probe.columnar_store()
        probe_idx: list[int] = []
        build_pos: list[int] = []
        if store is None and probe_store is not None and scalar:
            # The recursive shape: small per-iteration delta on the
            # build side, columnar table on the probe side.  The build
            # keys are almost always unique (a consolidated delta keyed
            # by vertex), so one dict maps key -> build position, and
            # ``map(get, probe_keys)`` resolves every probe row in a
            # single C pass — output lands in the row path's probe-major
            # order with no sort and no per-probe-row Python iteration.
            build_src = batch_source(build)
            if build_src is None:
                return None
            build_keys = build_src.column(build_positions[0])
            if None not in build_keys:
                # All-C construction: dict(zip(...)) keeps the *last*
                # position per duplicate key, so a size mismatch both
                # detects duplicates and (when unique) yields the map.
                pos_map = dict(zip(build_keys, range(len(build_keys))))
                unique = len(pos_map) == len(build_keys)
            else:
                pos_map = {}
                unique = True
                for pos, key in enumerate(build_keys):
                    if key is None:
                        continue
                    if key in pos_map:
                        unique = False
                        break
                    pos_map[key] = pos
            probe_keys = probe_src.column(probe_positions[0])
            if unique:
                self.build_rows_observed += len(pos_map)
                hits = list(map(pos_map.get, probe_keys))
                if None not in hits:
                    probe_idx = None  # identity: all probe rows match
                    build_pos = hits
                else:
                    probe_idx = [i for i, h in enumerate(hits)
                                 if h is not None]
                    build_pos = [h for h in hits if h is not None]
            else:
                # Duplicate build keys: fall back to bucketed pairs and
                # restore probe-major order (ties resolve to build-row
                # order, as dict buckets do) with one C sort.
                index, _ = probe_store.join_index(probe_positions, kind)
                observed = len(build_keys) - build_keys.count(None)
                self.build_rows_observed += observed
                pairs: list[tuple[int, int]] = []
                extend = pairs.extend
                get = index.get
                for pos, key in enumerate(build_keys):
                    bucket = get(key)
                    if bucket is not None:
                        extend(zip(bucket, repeat(pos)))
                pairs.sort()
                probe_idx = [pair[0] for pair in pairs]
                build_pos = [pair[1] for pair in pairs]
            return JoinColumns(probe_src, build_src, probe_idx, build_pos,
                               probe.schema.arity, build.schema.arity,
                               probe_is_left=(self.build_side == "right"))
        if store is not None:
            index, observed = store.join_index(build_positions, kind)
            build_src: ColumnBatch = StoreColumns(store)
        else:
            build_src = batch_source(build)
            if build_src is None:
                return None
            index = {}
            if scalar:
                build_keys = build_src.column(build_positions[0])
            else:
                build_keys = zip(*(build_src.column(p)
                                   for p in build_positions))
            for pos, key in enumerate(build_keys):
                if (key is None if scalar else None in key):
                    continue
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [pos]
                else:
                    bucket.append(pos)
            observed = sum(map(len, index.values()))
        self.build_rows_observed += observed
        if scalar:
            keys = probe_src.column(probe_positions[0])
        else:
            keys = zip(*(probe_src.column(p) for p in probe_positions))
        if index:
            get = index.get
            extend_pos = build_pos.extend
            extend_idx = probe_idx.extend
            for i, key in enumerate(keys):
                bucket = get(key)
                if bucket is not None:
                    extend_pos(bucket)
                    extend_idx(repeat(i, len(bucket)))
        return JoinColumns(probe_src, build_src, probe_idx, build_pos,
                           probe.schema.arity, build.schema.arity,
                           probe_is_left=(self.build_side == "right"))

    def _cached_index_rows(self) -> list[Row] | None:
        """Row-output probe against the build store's cached row index
        (the pipeline-exit twin of :meth:`block_source`)."""
        if self.build_side == "right":
            build, probe = self.right, self.left
            positions = self._right_positions
            probe_scalar, probe_tuple = self._left_scalar, self._left_key
        else:
            build, probe = self.left, self.right
            positions = self._left_positions
            probe_scalar, probe_tuple = self._right_scalar, self._right_key
        store = build.columnar_store()
        if store is None or positions is None:
            return None
        if len(positions) == 1 and probe_scalar is not None:
            index, observed = store.join_index(positions, "scalar-rows")
            probe_key = probe_scalar
        else:
            index, observed = store.join_index(positions, "tuple-rows")
            probe_key = probe_tuple
        self.build_rows_observed += observed
        out: list[Row] = []
        if not index:
            return out
        extend = out.extend
        get = index.get
        if self.build_side == "right":
            for chunk in chunks(probe):
                extend([row + match
                        for key, row in zip(map(probe_key, chunk), chunk)
                        for match in get(key, ())])
        else:
            for chunk in chunks(probe):
                extend([match + row
                        for key, row in zip(map(probe_key, chunk), chunk)
                        for match in get(key, ())])
        return out

    def _compute(self) -> list[Row]:
        if block_eligible(self):
            fast = self._cached_index_rows()
            if fast is not None:
                return fast
        if self.build_side == "right":
            build, probe = self.right, self.left
            build_scalar, probe_scalar = self._right_scalar, self._left_scalar
            build_tuple, probe_tuple = self._right_key, self._left_key
        else:
            build, probe = self.left, self.right
            build_scalar, probe_scalar = self._left_scalar, self._right_scalar
            build_tuple, probe_tuple = self._left_key, self._right_key
        index = build_index(materialize(build), build_scalar, build_tuple)
        probe_key = probe_scalar or probe_tuple
        self.build_rows_observed += sum(map(len, index.values()))
        out: list[Row] = []
        extend = out.extend
        get = index.get
        build_is_right = self.build_side == "right"
        if not index:
            return out
        for chunk in chunks(probe):
            if build_is_right:
                extend([row + match
                        for key, row in zip(map(probe_key, chunk), chunk)
                        for match in get(key, ())])
            else:
                extend([match + row
                        for key, row in zip(map(probe_key, chunk), chunk)
                        for match in get(key, ())])
        return out


class MergeJoin(_BinaryJoin):
    """Sort-merge inner equi-join.

    Inputs are sorted on their join keys unless they are
    :class:`IndexOrderedScan` nodes whose index key order already matches —
    in that case the sort is skipped, which is precisely the saving the
    paper's Exp-A attributes to indexing temp tables in PostgreSQL.
    """

    label = "Merge Join"

    def _sorted_side(self, child: PhysicalOperator, key_fn: KeyFn,
                     keys: Sequence[Expression]) -> list[tuple[tuple, Row]]:
        if self._feed_is_presorted(child, keys):
            # An index scan hands over (key, row) pairs already in key
            # order: no per-row key evaluation and no sort — this is the
            # work the paper's Exp-A indexing saves.
            index = child.index  # type: ignore[attr-defined]
            return list(zip(index.ordered_keys(), index.ordered_rows()))
        pairs = []
        for row in child.rows():
            key = key_fn(row)
            if not any(v is None for v in key):
                pairs.append((key, row))
        pairs.sort(key=lambda kr: kr[0])
        return pairs

    @staticmethod
    def _feed_is_presorted(child: PhysicalOperator,
                           keys: Sequence[Expression]) -> bool:
        from ..expressions import ColumnRef

        if not isinstance(child, IndexOrderedScan):
            return False
        wanted: list[int] = []
        for key in keys:
            if not isinstance(key, ColumnRef):
                return False
            try:
                wanted.append(child.schema.index_of(key.name, key.qualifier))
            except Exception:
                return False
        return tuple(wanted) == tuple(child.index.key_positions)

    def rows(self) -> Iterator[Row]:
        left_pairs = self._sorted_side(self.left, self._left_key, self.left_keys)
        right_pairs = self._sorted_side(self.right, self._right_key,
                                        self.right_keys)
        i = j = 0
        n, m = len(left_pairs), len(right_pairs)
        while i < n and j < m:
            lkey, lrow = left_pairs[i]
            rkey, _ = right_pairs[j]
            if lkey < rkey:
                i += 1
            elif lkey > rkey:
                j += 1
            else:
                # gather the right-side group for this key
                group_start = j
                while j < m and right_pairs[j][0] == lkey:
                    j += 1
                group = right_pairs[group_start:j]
                while i < n and left_pairs[i][0] == lkey:
                    lrow = left_pairs[i][1]
                    for _, rrow in group:
                        yield lrow + rrow
                    i += 1

    def detail(self) -> str:
        notes = []
        if self._feed_is_presorted(self.left, self.left_keys):
            notes.append("left presorted")
        if self._feed_is_presorted(self.right, self.right_keys):
            notes.append("right presorted")
        base = super().detail()
        return base + (f"; {', '.join(notes)}" if notes else "")


class NestedLoopJoin(PhysicalOperator):
    """θ-join fallback: materialise the right side, loop over the left."""

    label = "Nested Loop Join"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 condition: Expression | None = None):
        self.left = left
        self.right = right
        self._schema = left.schema.concat(right.schema)
        self.condition = (bind(condition, self._schema)
                          if condition is not None else None)
        self._condition_fn = (compile_expression(self.condition)
                              if self.condition is not None else None)

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def rows(self) -> Iterator[Row]:
        right_rows = list(self.right.rows())
        condition = self._condition_fn
        for lrow in self.left.rows():
            for rrow in right_rows:
                combined = lrow + rrow
                if condition is None or condition(combined) is True:
                    yield combined

    def detail(self) -> str:
        return self.condition.sql() if self.condition is not None else "cross"


class HashLeftOuterJoin(_HashJoinBase):
    """Left outer equi-join, NULL-padding unmatched left rows."""

    label = "Hash Left Join"

    def _compute(self) -> list[Row]:
        index = build_index(materialize(self.right), self._right_scalar,
                            self._right_key)
        probe_key = self._left_scalar or self._left_key
        self.build_rows_observed += sum(map(len, index.values()))
        pad = (None,) * self.right.schema.arity
        out: list[Row] = []
        extend = out.extend
        append = out.append
        get = index.get
        for chunk in chunks(self.left):
            for key, row in zip(map(probe_key, chunk), chunk):
                matches = get(key)
                if matches:
                    extend(row + match for match in matches)
                else:
                    append(row + pad)
        return out


class HashFullOuterJoin(_HashJoinBase):
    """Full outer equi-join — the paper's preferred union-by-update plan."""

    label = "Hash Full Join"

    def _compute(self) -> list[Row]:
        right_rows = materialize(self.right)
        index: dict[Any, list[int]] = {}
        if self._right_scalar is not None:
            for pos, key in enumerate(map(self._right_scalar, right_rows)):
                if key is None:
                    continue
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [pos]
                else:
                    bucket.append(pos)
            probe_key = self._left_scalar
        else:
            for pos, key in enumerate(map(self._right_key, right_rows)):
                if None in key:
                    continue
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [pos]
                else:
                    bucket.append(pos)
            probe_key = self._left_key
        self.build_rows_observed += sum(map(len, index.values()))
        matched: set[int] = set()
        add_matched = matched.add
        pad_right = (None,) * self.right.schema.arity
        pad_left = (None,) * self.left.schema.arity
        out: list[Row] = []
        append = out.append
        get = index.get
        for chunk in chunks(self.left):
            for key, row in zip(map(probe_key, chunk), chunk):
                positions = get(key)
                if positions:
                    for pos in positions:
                        add_matched(pos)
                        append(row + right_rows[pos])
                else:
                    append(row + pad_right)
        if len(matched) < len(right_rows):
            out.extend(pad_left + row
                       for pos, row in enumerate(right_rows)
                       if pos not in matched)
        return out


class HashSemiJoin(_HashJoinBase):
    """Left rows with at least one right match (EXISTS).

    The build set holds no NULL keys, so a NULL probe key misses the
    ``in`` test and is (correctly) dropped without an explicit check.
    """

    label = "Hash Semi Join"

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def _compute(self) -> list[Row]:
        keys = key_set(materialize(self.right),
                       self._right_scalar, self._right_key)
        probe_key = self._left_scalar or self._left_key
        out: list[Row] = []
        if not keys:
            return out
        for chunk in chunks(self.left):
            out.extend(row for key, row in zip(map(probe_key, chunk), chunk)
                       if key in keys)
        return out


class HashAntiJoin(_HashJoinBase):
    """Left rows with no right match — NOT EXISTS / LEFT JOIN ... IS NULL.

    A NULL probe key never equals a build key, so it is not ``in`` the
    (NULL-free) build set and survives — EXISTS-style semantics fall out
    of the set test with no per-row NULL branch.
    """

    label = "Hash Anti Join"

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def _compute(self) -> list[Row]:
        keys = key_set(materialize(self.right),
                       self._right_scalar, self._right_key)
        probe_key = self._left_scalar or self._left_key
        if not keys:
            return materialize(self.left)
        out: list[Row] = []
        seen = 0
        for chunk in chunks(self.left):
            seen += len(chunk)
            out.extend(row for key, row in zip(map(probe_key, chunk), chunk)
                       if key not in keys)
        self.pruned_total += seen - len(out)
        return out


class NotInAntiJoin(_BinaryJoin):
    """NULL-aware anti-join implementing SQL ``NOT IN`` semantics.

    ``x NOT IN (S)`` is TRUE only when x is non-NULL, S contains no NULL and
    x matches nothing in S.  The extra NULL bookkeeping (tracking whether
    the inner side produced NULL keys, filtering NULL probes) is what makes
    this plan measurably slower than :class:`HashAntiJoin` in the paper's
    Tables 6/7.
    """

    label = "Not-In Anti Join"

    @property
    def schema(self) -> Schema:
        return self.left.schema

    def rows(self) -> Iterator[Row]:
        right_key = self._right_key
        keys: set[tuple] = set()
        inner_has_null = False
        for row in self.right.rows():
            key = right_key(row)
            if any(v is None for v in key):
                inner_has_null = True
            else:
                keys.add(key)
        if inner_has_null:
            # NOT IN over a set containing NULL can never be TRUE.
            return
        left_key = self._left_key
        pruned = 0
        try:
            for row in self.left.rows():
                key = left_key(row)
                if any(v is None for v in key):
                    pruned += 1
                    continue
                if key not in keys:
                    yield row
                else:
                    pruned += 1
        finally:
            self.pruned_total += pruned


# -- plan-shape predicates for the cost-based policy ---------------------------


def is_stable_input(node: PhysicalOperator) -> bool:
    """True when re-executing *node* reads only stable inputs.

    Every leaf is a table scan or a scan of an already materialised
    relation, and every interior node is a deterministic row transformer.
    A subtree reading a live recursive-loop slot (:class:`BindingScan`)
    is not stable: its output changes between executions.
    """
    from .filter import Filter
    from .project import Project
    from .prune import ColumnPrune
    from .rename import Requalify
    from .scan import RelationScan, TableScan

    if isinstance(node, (TableScan, IndexOrderedScan, RelationScan)):
        return True
    if isinstance(node, (Filter, Project, ColumnPrune, Requalify)):
        return is_stable_input(node.children()[0])
    return False


def contains_binding_scan(node: PhysicalOperator) -> bool:
    """True when *node*'s subtree reads a live recursive-loop slot."""
    from .scan import BindingScan

    if isinstance(node, BindingScan):
        return True
    return any(contains_binding_scan(c) for c in node.children())
