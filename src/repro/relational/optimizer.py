"""Cost-based optimization: cardinality estimation, join reordering and
pushdown rewrites.

The paper's Section 6 experiments show that plan choice — join strategy,
build sides, indexing — dominates ``with+`` runtime across all three
RDBMS profiles.  The dialect policies in :mod:`repro.relational.planner`
deliberately *model* each vendor's fixed behaviour; this module is the
other side of the coin: a statistics-driven optimizer layer that

* estimates cardinalities bottom-up through every physical operator
  (:class:`CardinalityEstimator`), lazily re-ANALYZE-ing stale table
  statistics on the first estimate after an invalidation;
* reorders multi-way equi-join chains with a Selinger-style dynamic
  program (exhaustive left-deep enumeration up to
  :data:`DP_RELATION_LIMIT` relations, greedy beyond), minimising the
  classic :math:`C_{out}` cost — the sum of intermediate result sizes;
* pushes single-relation predicates below joins and prunes unreferenced
  columns off each join input (predicate / projection pushdown);
* feeds :class:`~repro.relational.planner.CostBasedPolicy`'s operator
  selection (hash vs. merge vs. cached-build probe joins).

Estimates are attached to plan nodes as ``node.estimated_rows`` so
EXPLAIN / EXPLAIN ANALYZE can report estimated next to actual rows.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .expressions import (
    And,
    BinaryOp,
    BoundColumn,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from .physical import (
    BindingScan,
    ColumnPrune,
    Distinct,
    Filter,
    HashAntiJoin,
    HashFullOuterJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    IndexOrderedScan,
    Limit,
    NestedLoopJoin,
    NotInAntiJoin,
    PhysicalOperator,
    Project,
    RelationScan,
    Requalify,
    Sort,
    TableScan,
    WindowAggregate,
)
from .physical.aggregate import _AggregateBase
from .physical.joins import _BinaryJoin
from .physical.setops import _SetOp, ExceptOp, IntersectOp, UnionAllOp
from .statistics import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    ColumnStatistics,
)

#: Exhaustive (dynamic-programming) join enumeration up to this many
#: relations; larger FROM lists fall back to the greedy heuristic.
DP_RELATION_LIMIT = 8

#: Fraction of left rows surviving a semi/anti join when nothing better
#: is known.
SEMI_JOIN_SELECTIVITY = 0.5

#: Default group count fraction for aggregation without key statistics.
AGGREGATE_GROUP_FRACTION = 0.1


# ---------------------------------------------------------------------------
# cardinality estimation
# ---------------------------------------------------------------------------


class CardinalityEstimator:
    """Bottom-up row-count estimation over physical plan trees.

    With ``refresh=True`` (the cost-based policy's mode) the estimator
    lazily re-analyzes any base table whose statistics were invalidated by
    a write, so estimates never read stale or empty numbers.  With
    ``refresh=False`` (plain EXPLAIN reporting for the dialect policies)
    it consults whatever statistics exist and otherwise falls back to live
    row counts, leaving the paper's "temp tables are never analyzed"
    semantics untouched.
    """

    def __init__(self, refresh: bool = False):
        self.refresh = refresh
        #: Lazy statistics refreshes performed (telemetry reads this).
        self.refreshes = 0

    # -- public API ---------------------------------------------------------

    def annotate(self, root: PhysicalOperator) -> int:
        """Estimate every node of *root*'s tree, setting ``estimated_rows``
        on each, and return the root estimate."""
        for child in root.children():
            self.annotate(child)
        estimate = max(0, int(round(self._estimate(root))))
        root.estimated_rows = estimate  # type: ignore[attr-defined]
        return estimate

    # -- per-operator rules -------------------------------------------------

    def _estimate(self, node: PhysicalOperator) -> float:
        if isinstance(node, (TableScan, IndexOrderedScan)):
            return float(self._table_rows(node.table))
        if isinstance(node, RelationScan):
            return float(len(node.relation))
        if isinstance(node, BindingScan):
            relation = node.slots.get(node.name)
            return float(len(relation)) if relation is not None else 0.0
        if isinstance(node, Filter):
            child = self._child_estimate(node)
            return child * self._selectivity(node.predicate, node.child)
        if isinstance(node, (Project, ColumnPrune, Requalify, Sort,
                             WindowAggregate)):
            return self._child_estimate(node)
        if isinstance(node, Limit):
            return min(self._child_estimate(node), float(node.count))
        if isinstance(node, Distinct):
            return self._child_estimate(node)
        if isinstance(node, NotInAntiJoin):
            return self._side_estimate(node.left) * SEMI_JOIN_SELECTIVITY
        if isinstance(node, _BinaryJoin):
            return self._join_estimate(node)
        if isinstance(node, NestedLoopJoin):
            left = self._side_estimate(node.left)
            right = self._side_estimate(node.right)
            selectivity = (self._selectivity(node.predicate, node)
                           if getattr(node, "predicate", None) is not None
                           else 1.0)
            return left * right * selectivity
        if isinstance(node, _AggregateBase):
            return self._aggregate_estimate(node)
        if isinstance(node, UnionAllOp):
            return (self._side_estimate(node.left)
                    + self._side_estimate(node.right))
        if isinstance(node, ExceptOp):
            return self._side_estimate(node.left)
        if isinstance(node, IntersectOp):
            return min(self._side_estimate(node.left),
                       self._side_estimate(node.right))
        if isinstance(node, _SetOp):  # union distinct
            return (self._side_estimate(node.left)
                    + self._side_estimate(node.right))
        children = node.children()
        if children:
            return self._side_estimate(children[0])
        return 1.0

    def _child_estimate(self, node: PhysicalOperator) -> float:
        return self._side_estimate(node.children()[0])

    def _side_estimate(self, node: PhysicalOperator) -> float:
        cached = getattr(node, "estimated_rows", None)
        if cached is not None:
            return float(cached)
        return self._estimate(node)

    def _table_rows(self, table) -> int:
        statistics = table.statistics
        if not statistics.fresh and self.refresh:
            table.analyze()
            self.refreshes += 1
        if statistics.fresh:
            return statistics.row_count
        return len(table.rows)

    # -- joins --------------------------------------------------------------

    def _join_estimate(self, node: _BinaryJoin) -> float:
        left = self._side_estimate(node.left)
        right = self._side_estimate(node.right)
        if isinstance(node, (HashSemiJoin, HashAntiJoin)):
            return left * SEMI_JOIN_SELECTIVITY
        inner = left * right * self.equi_join_selectivity(
            node.left, node.right, node.left_keys, node.right_keys)
        if isinstance(node, HashLeftOuterJoin):
            return max(inner, left)
        if isinstance(node, HashFullOuterJoin):
            return max(inner, left, right)
        return inner

    def equi_join_selectivity(self, left: PhysicalOperator,
                              right: PhysicalOperator,
                              left_keys: Sequence[Expression],
                              right_keys: Sequence[Expression]) -> float:
        """System-R style: one over the larger distinct count per key pair."""
        selectivity = 1.0
        left_rows = max(self._side_estimate(left), 1.0)
        right_rows = max(self._side_estimate(right), 1.0)
        for left_key, right_key in zip(left_keys, right_keys):
            ndv_left = self.column_distinct(left, left_key)
            ndv_right = self.column_distinct(right, right_key)
            if ndv_left is None:
                ndv_left = left_rows
            if ndv_right is None:
                ndv_right = right_rows
            selectivity *= 1.0 / max(ndv_left, ndv_right, 1.0)
        return selectivity

    def column_distinct(self, node: PhysicalOperator,
                        key: Expression) -> float | None:
        """Distinct count of *key* under *node*, from table statistics."""
        name = _referenced_name(key)
        if name is None:
            return None
        stats = self._find_column_stats(node, name)
        if stats is None or stats.distinct_count <= 0:
            return None
        return min(float(stats.distinct_count),
                   max(self._side_estimate(node), 1.0))

    def _find_column_stats(self, node: PhysicalOperator,
                           name: str) -> ColumnStatistics | None:
        if isinstance(node, (TableScan, IndexOrderedScan)):
            statistics = node.table.statistics
            if not statistics.fresh and self.refresh:
                node.table.analyze()
                self.refreshes += 1
            if statistics.fresh:
                return statistics.column(name)
            return None
        for child in node.children():
            found = self._find_column_stats(child, name)
            if found is not None:
                return found
        return None

    # -- aggregation --------------------------------------------------------

    def _aggregate_estimate(self, node: _AggregateBase) -> float:
        child_rows = self._child_estimate(node)
        if not node.keys:
            return 1.0
        groups = 1.0
        known = False
        for key in node.keys:
            ndv = self.column_distinct(node.child, key)
            if ndv is not None:
                groups *= ndv
                known = True
        if not known:
            groups = max(child_rows * AGGREGATE_GROUP_FRACTION, 1.0)
        return min(groups, child_rows) if child_rows else 0.0

    # -- predicate selectivity ----------------------------------------------

    def _selectivity(self, predicate: Expression,
                     source: PhysicalOperator) -> float:
        if predicate is None:
            return 1.0
        if isinstance(predicate, And):
            result = 1.0
            for operand in predicate.operands:
                result *= self._selectivity(operand, source)
            return result
        if isinstance(predicate, Or):
            miss = 1.0
            for operand in predicate.operands:
                miss *= 1.0 - self._selectivity(operand, source)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return max(0.0, 1.0 - self._selectivity(predicate.operand, source))
        if isinstance(predicate, IsNull):
            stats = self._stats_for_expr(predicate.operand, source)
            fraction = stats.null_fraction if stats is not None else 0.05
            return (1.0 - fraction) if predicate.negated else fraction
        if isinstance(predicate, InList):
            stats = self._stats_for_expr(predicate.operand, source)
            if stats is not None and stats.distinct_count > 0:
                matched = min(1.0, sum(
                    stats.equality_selectivity(item.value)
                    for item in predicate.items
                    if isinstance(item, Literal)))
                if matched == 0.0:
                    matched = min(1.0, len(predicate.items)
                                  / stats.distinct_count)
            else:
                matched = min(1.0,
                              DEFAULT_EQ_SELECTIVITY * len(predicate.items))
            return (1.0 - matched) if predicate.negated else matched
        if isinstance(predicate, BinaryOp):
            return self._comparison_selectivity(predicate, source)
        return DEFAULT_RANGE_SELECTIVITY

    def _comparison_selectivity(self, predicate: BinaryOp,
                                source: PhysicalOperator) -> float:
        column, literal = _column_and_literal(predicate)
        if predicate.op == "=":
            if column is not None:
                stats = self._stats_for_expr(column, source)
                if stats is not None:
                    value = literal.value if literal is not None else None
                    return stats.equality_selectivity(value)
            return DEFAULT_EQ_SELECTIVITY
        if predicate.op == "<>":
            return 1.0 - self._comparison_selectivity(
                BinaryOp("=", predicate.left, predicate.right), source)
        if predicate.op in ("<", "<=", ">", ">="):
            if column is not None and literal is not None:
                stats = self._stats_for_expr(column, source)
                if stats is not None:
                    op = predicate.op
                    if column is predicate.right:  # literal <op> column
                        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                        op = flip[op]
                    return stats.range_selectivity(op, literal.value)
            return DEFAULT_RANGE_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    def _stats_for_expr(self, expr: Expression,
                        source: PhysicalOperator) -> ColumnStatistics | None:
        name = _referenced_name(expr)
        if name is None:
            return None
        return self._find_column_stats(source, name)


def _referenced_name(expr: Expression) -> str | None:
    if isinstance(expr, (ColumnRef, BoundColumn)) and expr.name:
        return expr.name
    return None


def _column_and_literal(predicate: BinaryOp
                        ) -> tuple[Expression | None, Literal | None]:
    """(column side, literal side) of a comparison, when that shape holds."""
    left, right = predicate.left, predicate.right
    if isinstance(left, (ColumnRef, BoundColumn)) and isinstance(right, Literal):
        return left, right
    if isinstance(right, (ColumnRef, BoundColumn)) and isinstance(left, Literal):
        return right, left
    if isinstance(left, (ColumnRef, BoundColumn)):
        return left, None
    if isinstance(right, (ColumnRef, BoundColumn)):
        return right, None
    return None, None


# ---------------------------------------------------------------------------
# logical rewrites: predicate pushdown, projection pruning, join reordering
# ---------------------------------------------------------------------------


def collect_column_refs(obj) -> list[ColumnRef]:
    """Every :class:`ColumnRef` anywhere inside a statement or expression,
    including embedded subqueries — the conservative "needed columns" set
    for projection pushdown."""
    from .sql.ast import (
        ExistsSubquery,
        InSubquery,
        JoinSource,
        ScalarSubquery,
        SelectStatement,
        SetOperation,
        SubquerySource,
        WithStatement,
    )

    refs: list[ColumnRef] = []

    def visit_expr(expr) -> None:
        if expr is None:
            return
        if isinstance(expr, ColumnRef):
            refs.append(expr)
            return
        if isinstance(expr, InSubquery):
            visit_expr(expr.operand)
            visit_statement(expr.subquery)
            return
        if isinstance(expr, ExistsSubquery):
            visit_statement(expr.subquery)
            return
        if isinstance(expr, ScalarSubquery):
            visit_statement(expr.subquery)
            return
        for child in expr.children():
            visit_expr(child)

    def visit_source(source) -> None:
        if isinstance(source, SubquerySource):
            visit_statement(source.statement)
        elif isinstance(source, JoinSource):
            visit_source(source.left)
            visit_source(source.right)
            visit_expr(source.condition)

    def visit_statement(node) -> None:
        if isinstance(node, SelectStatement):
            for item in node.items:
                visit_expr(item.expression)
            for source in node.sources:
                visit_source(source)
            visit_expr(node.where)
            for key in node.group_by:
                visit_expr(key)
            visit_expr(node.having)
            for order in node.order_by:
                visit_expr(order.expression)
        elif isinstance(node, SetOperation):
            visit_statement(node.left)
            visit_statement(node.right)
        elif isinstance(node, WithStatement):
            for cte in node.ctes:
                for branch in cte.branches:
                    visit_statement(branch.statement)
            visit_statement(node.body)

    if isinstance(obj, Expression):
        visit_expr(obj)
    else:
        visit_statement(obj)
    return refs


def prune_columns(leaf: PhysicalOperator,
                  needed: Sequence[ColumnRef]) -> PhysicalOperator:
    """Wrap *leaf* with a :class:`ColumnPrune` keeping only the columns some
    needed reference can match.  A no-op when everything is referenced or
    nothing would remain."""
    keep: list[int] = []
    for position, column in enumerate(leaf.schema.columns):
        for ref in needed:
            if column.matches(ref.name, ref.qualifier):
                keep.append(position)
                break
    if not keep or len(keep) == len(leaf.schema.columns):
        return leaf
    return ColumnPrune(leaf, keep)


class _JoinEdge:
    """An equi-join conjunct linking two FROM leaves."""

    __slots__ = ("left_index", "right_index", "left_expr", "right_expr",
                 "conjunct", "selectivity")

    def __init__(self, left_index: int, right_index: int,
                 left_expr: Expression, right_expr: Expression,
                 conjunct: Expression):
        self.left_index = left_index
        self.right_index = right_index
        self.left_expr = left_expr
        self.right_expr = right_expr
        self.conjunct = conjunct
        self.selectivity = 1.0

    def touches(self, index: int) -> bool:
        return index in (self.left_index, self.right_index)

    def expr_for(self, index: int) -> Expression:
        return self.left_expr if index == self.left_index else self.right_expr

    def other(self, index: int) -> int:
        return self.right_index if index == self.left_index else self.left_index


def plan_from_cost_based(runner, sources, conjuncts: list[Expression],
                         statement) -> PhysicalOperator | None:
    """The cost-based replacement for the compiler's syntactic FROM planner.

    Applies predicate pushdown, projection pruning and join reordering,
    then builds a left-deep tree through the runner's policy (which picks
    the physical operator per join).  Returns ``None`` to make the caller
    fall back to the default path when the query shape is not eligible
    (no statement context, ``SELECT *`` column-order dependence, ambiguous
    unqualified predicates, ...).
    """
    from .sql.compiler import _resolvable

    if statement is None or not sources:
        return None
    if any(item.star for item in statement.items):
        # Star expansion depends on the FROM-order concatenated schema;
        # keep the syntactic order for those queries.
        return None

    leaves, extra = _flatten_sources(runner, sources)
    if leaves is None:
        return None
    pool = list(conjuncts) + extra
    if len(leaves) == 1 and not pool:
        return None

    # -- classify conjuncts -------------------------------------------------
    single: dict[int, list[Expression]] = {}
    edges: list[_JoinEdge] = []
    post: list[Expression] = []
    for conjunct in pool:
        owners = [i for i, leaf in enumerate(leaves)
                  if _resolvable(conjunct, leaf.schema)]
        if len(owners) > 1:
            # Unqualified reference resolvable against several relations:
            # the syntactic planner's prefix semantics would disambiguate
            # by position, so leave such queries to it.
            return None
        if len(owners) == 1:
            single.setdefault(owners[0], []).append(conjunct)
            continue
        edge = _as_join_edge(conjunct, leaves)
        if edge is not None:
            edges.append(edge)
        else:
            post.append(conjunct)

    # -- predicate pushdown + projection pruning ---------------------------
    needed = collect_column_refs(statement)
    policy = runner.policy
    planned: list[PhysicalOperator] = []
    for index, leaf in enumerate(leaves):
        for predicate in single.get(index, ()):
            leaf = policy.make_filter(leaf, predicate)
        planned.append(prune_columns(leaf, needed))

    estimator = getattr(policy, "estimator", None) or CardinalityEstimator()
    leaf_rows = [max(float(estimator.annotate(leaf)), 0.1)
                 for leaf in planned]
    for edge in edges:
        edge.selectivity = estimator.equi_join_selectivity(
            planned[edge.left_index], planned[edge.right_index],
            [edge.left_expr], [edge.right_expr])

    order = choose_join_order(leaf_rows, edges)

    # -- build the left-deep tree ------------------------------------------
    current = planned[order[0]]
    joined = {order[0]}
    remaining_edges = list(edges)
    for index in order[1:]:
        live = [e for e in remaining_edges
                if e.touches(index) and e.other(index) in joined]
        if live:
            left_keys = [e.expr_for(e.other(index)) for e in live]
            right_keys = [e.expr_for(index) for e in live]
            current = policy.make_equi_join(current, planned[index],
                                            left_keys, right_keys)
            remaining_edges = [e for e in remaining_edges if e not in live]
        else:
            current = NestedLoopJoin(current, planned[index], None)
        joined.add(index)
        still: list[Expression] = []
        for conjunct in post:
            if _resolvable(conjunct, current.schema):
                current = policy.make_filter(current, conjunct)
            else:
                still.append(conjunct)
        post = still
    # Edges never joined (both endpoints met through other paths) become
    # plain filters; anything unresolved is the same bind error the
    # syntactic path would raise.
    for edge in remaining_edges:
        post.append(edge.conjunct)
    for conjunct in post:
        if not _resolvable(conjunct, current.schema):
            from .errors import BindError

            raise BindError(
                f"predicate {conjunct.sql()} references unknown columns")
        current = policy.make_filter(current, conjunct)
    return current


def _flatten_sources(runner, sources):
    """FROM sources → (list of leaf operators, extra conjuncts), flattening
    inner-join trees into the conjunct pool.  ``(None, [])`` when a source
    kind (outer/right joins) pins the syntactic structure."""
    from .sql.ast import JoinKind, JoinSource
    from .sql.compiler import _flatten_and

    leaves: list[PhysicalOperator] = []
    extra: list[Expression] = []

    def flatten(source) -> bool:
        if isinstance(source, JoinSource):
            if source.kind is JoinKind.INNER:
                if not flatten(source.left) or not flatten(source.right):
                    return False
                extra.extend(_flatten_and(source.condition))
                return True
            if source.kind is JoinKind.CROSS:
                return flatten(source.left) and flatten(source.right)
            return False  # outer joins keep their shape
        leaves.append(runner._scan_source(source))
        return True

    for source in sources:
        if not flatten(source):
            return None, []
    return leaves, extra


def _as_join_edge(conjunct: Expression,
                  leaves: Sequence[PhysicalOperator]) -> _JoinEdge | None:
    from .sql.compiler import _resolvable

    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None

    def unique_owner(expr: Expression) -> int | None:
        owners = [i for i, leaf in enumerate(leaves)
                  if _resolvable(expr, leaf.schema)]
        return owners[0] if len(owners) == 1 else None

    left_owner = unique_owner(conjunct.left)
    right_owner = unique_owner(conjunct.right)
    if left_owner is None or right_owner is None or left_owner == right_owner:
        return None
    return _JoinEdge(left_owner, right_owner, conjunct.left, conjunct.right,
                     conjunct)


def choose_join_order(leaf_rows: Sequence[float],
                      edges: Sequence[_JoinEdge]) -> list[int]:
    """Left-deep join order minimising C_out (sum of intermediate sizes).

    Exhaustive subset DP up to :data:`DP_RELATION_LIMIT` relations, greedy
    smallest-result-first beyond.  Cartesian products are allowed but their
    blown-up intermediate sizes price them out whenever a connected order
    exists.
    """
    n = len(leaf_rows)
    if n <= 1:
        return list(range(n))

    def subset_rows(subset: frozenset[int]) -> float:
        rows = 1.0
        for index in subset:
            rows *= leaf_rows[index]
        for edge in edges:
            if edge.left_index in subset and edge.right_index in subset:
                rows *= edge.selectivity
        return max(rows, 1.0)

    if n <= DP_RELATION_LIMIT:
        return _dp_order(n, leaf_rows, edges, subset_rows)
    return _greedy_order(n, leaf_rows, edges, subset_rows)


def _dp_order(n, leaf_rows, edges, subset_rows) -> list[int]:
    best: dict[frozenset[int], tuple[float, tuple[int, ...]]] = {
        frozenset((i,)): (0.0, (i,)) for i in range(n)}
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            subset = frozenset(combo)
            rows = subset_rows(subset)
            champion: tuple[float, tuple[int, ...]] | None = None
            for last in combo:
                previous = subset - {last}
                entry = best.get(previous)
                if entry is None:
                    continue
                cost = entry[0] + rows
                order = entry[1] + (last,)
                if champion is None or (cost, order) < champion:
                    champion = (cost, order)
            if champion is not None:
                best[subset] = champion
    return list(best[frozenset(range(n))][1])


def _greedy_order(n, leaf_rows, edges, subset_rows) -> list[int]:
    start = min(range(n), key=lambda i: (leaf_rows[i], i))
    order = [start]
    joined = frozenset((start,))
    while len(order) < n:
        candidates = [i for i in range(n) if i not in joined]
        connected = [i for i in candidates
                     if any(e.touches(i) and e.other(i) in joined
                            for e in edges)]
        pool = connected or candidates
        follower = min(pool,
                       key=lambda i: (subset_rows(joined | {i}), i))
        order.append(follower)
        joined = joined | {follower}
    return order
