"""Shared machinery of the batch operators.

The hash-family operators (:class:`~.joins.HashJoin` and its outer,
semi and anti variants, :class:`~.aggregate.HashAggregate`,
:class:`~.project.Project`, :class:`~.filter.Filter` and
:class:`~.setops.UnionAllOp`) compute their whole output as one row list
instead of pulling one row at a time through nested generators: they
materialise their inputs in chunks, extract join/grouping keys with
precompiled ``operator.itemgetter`` calls over whole row batches, and
build output rows with list comprehensions.  That moves the per-row
interpreter overhead (generator resumption, recursive expression
evaluation, per-row arity checks) out of the hot loop and into a handful
of C-level bulk operations.

Over columnar tables they go further and exchange the column batches of
:mod:`.blocks` instead of row tuples.  Dispatch is conservative three
ways: (1) a subtree without a columnar anchor takes the row path; (2) an
instrumented plan (EXPLAIN ANALYZE / telemetry="on") takes the row path
too, so every inter-operator hand-off stays observable; (3) the block
computation is speculative — if a vector kernel raises an
``ArithmeticError`` or ``TypeError`` (the only errors raw operator
evaluation raises), the operator replays through the row path, which
reproduces the row-order error (or the result, when only the vectorized
evaluation order could fail).  Any other exception propagates.

``MergeJoin``, ``SortAggregate`` and ``NotInAntiJoin`` are dialect cost
models in their own right and stay tuple-at-a-time.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..expressions import BoundColumn, bind, single_column_getter
from ..relation import Relation, Row
from .base import PhysicalOperator
from .blocks import ColumnBatch

#: Rows pulled from a child iterator per batch.  Bounds peak memory for
#: the probe side of joins while keeping per-chunk Python overhead low.
CHUNK_SIZE = 4096

#: What a speculative block computation may raise and still be replayed
#: through the row path.
REPLAYED_ERRORS = (ArithmeticError, TypeError)


class ListOperator(PhysicalOperator):
    """An operator that computes its whole output as one row list."""

    def _compute(self) -> list[Row]:
        raise NotImplementedError

    def execute(self) -> Relation:
        return Relation.from_trusted_rows(self.schema, self._compute())

    def rows(self) -> Iterator[Row]:
        return iter(self._compute())


def materialize(node: PhysicalOperator) -> list[Row]:
    """Pull every row of *node* into a list (one bulk drain)."""
    rows = node.rows()
    if isinstance(rows, list):
        return rows
    return list(rows)


def chunks(node: PhysicalOperator) -> Iterator[list[Row]]:
    """Drain *node* in lists of at most :data:`CHUNK_SIZE` rows."""
    rows = node.rows()
    if isinstance(rows, list):
        if len(rows) <= CHUNK_SIZE:
            if rows:
                yield rows
            return
        for start in range(0, len(rows), CHUNK_SIZE):
            yield rows[start:start + CHUNK_SIZE]
        return
    while True:
        chunk = []
        append = chunk.append
        for row in rows:
            append(row)
            if len(chunk) >= CHUNK_SIZE:
                break
        if not chunk:
            return
        yield chunk
        if len(chunk) < CHUNK_SIZE:
            return


def scalar_key(keys, schema):
    """Raw (untupled) getter for a single-column key, else None."""
    return single_column_getter([bind(k, schema) for k in keys])


def bound_positions(keys, schema) -> tuple[int, ...] | None:
    """Column positions when every key is a plain column reference."""
    bound = [bind(k, schema) for k in keys]
    if bound and all(isinstance(b, BoundColumn) for b in bound):
        return tuple(b.index for b in bound)
    return None


def build_index(rows: list[Row], scalar, key_fn) -> dict[Any, list[Row]]:
    """key -> bucket over *rows*, skipping NULL keys (they match nothing).

    *scalar* is the raw single-column getter when there is one; otherwise
    *key_fn* yields key tuples."""
    index: dict[Any, list[Row]] = {}
    if scalar is not None:
        for key, row in zip(map(scalar, rows), rows):
            if key is None:
                continue
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        return index
    for key, row in zip(map(key_fn, rows), rows):
        if None in key:
            continue
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)
    return index


def key_set(rows: list[Row], scalar, key_fn) -> set:
    """Non-NULL key set for semi/anti joins (build side)."""
    if scalar is not None:
        return {key for key in map(scalar, rows) if key is not None}
    return {key for key in map(key_fn, rows) if None not in key}


# -- block pipeline dispatch -------------------------------------------------


def _instrumented(node: PhysicalOperator) -> bool:
    """True when EXPLAIN ANALYZE patched ``rows`` anywhere in the tree."""
    if "rows" in node.__dict__:
        return True
    return any(_instrumented(child) for child in node.children())


def _has_columnar_anchor(node: PhysicalOperator) -> bool:
    if node.columnar_store() is not None:
        return True
    return any(_has_columnar_anchor(child) for child in node.children())


def block_eligible(node: PhysicalOperator) -> bool:
    return _has_columnar_anchor(node) and not _instrumented(node)


def batch_source(node: PhysicalOperator) -> ColumnBatch | None:
    """Resolve *node* into a column batch, or None to use the row path."""
    if "rows" in node.__dict__:
        return None
    return node.block_source()
