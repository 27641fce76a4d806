"""Scan operators: sequential table scans, relation scans and index scans."""

from __future__ import annotations

from typing import Iterator

from ..errors import ExecutionError
from ..indexes import SortedIndex
from ..relation import Relation, Row
from ..schema import Schema
from ..table import Table
from .base import PhysicalOperator
from .blocks import RowsColumns, StoreColumns


class TableScan(PhysicalOperator):
    """Sequential scan of a table, optionally re-qualified under an alias."""

    label = "Seq Scan"

    def __init__(self, table: Table, alias: str | None = None):
        self.table = table
        self.alias = alias or table.name
        self._schema = table.schema.rename_relation(self.alias)

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self) -> Iterator[Row]:
        return iter(list(self.table.rows))

    def columnar_store(self):
        store = self.table.rows
        if getattr(store, "storage", "rows") == "columnar":
            return store
        return None

    def block_source(self):
        store = self.columnar_store()
        return StoreColumns(store) if store is not None else None

    def detail(self) -> str:
        if self.alias != self.table.name:
            return f"{self.table.name} as {self.alias}"
        return self.table.name


class RelationScan(PhysicalOperator):
    """Scan over an already-materialised relation (subquery results etc.)."""

    label = "Relation Scan"

    def __init__(self, relation: Relation, alias: str | None = None):
        self.relation = relation
        self._schema = (relation.schema.rename_relation(alias)
                        if alias else relation.schema)
        self.alias = alias

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self) -> Iterator[Row]:
        return iter(self.relation.rows)

    def block_source(self):
        return RowsColumns(list(self.rows()), self._schema.arity)

    def detail(self) -> str:
        return self.alias or ""


class BindingScan(PhysicalOperator):
    """Late-bound scan: reads its relation from a mutable slot dict at
    *execution* time rather than capturing it at plan time.

    This is what lets the recursive executor compile each with+ branch
    once and re-execute the same plan every iteration: the loop just
    re-points ``slots[name]`` at the current R (or COMPUTED BY) contents
    before each execution.  Shares :class:`RelationScan`'s label so
    EXPLAIN output is identical for cached and uncached plans.
    """

    label = "Relation Scan"

    def __init__(self, slots: dict[str, Relation], name: str,
                 schema: Schema, alias: str | None = None):
        self.slots = slots
        self.name = name
        self.alias = alias
        self._schema = schema.rename_relation(alias) if alias else schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self) -> Iterator[Row]:
        relation = self.slots.get(self.name)
        if relation is None:
            raise ExecutionError(f"unbound recursive slot {self.name!r}")
        if relation.schema.arity != self._schema.arity:
            raise ExecutionError(
                f"slot {self.name!r} changed arity; cached plan is stale")
        return iter(relation.rows)

    def block_source(self):
        return RowsColumns(list(self.rows()), self._schema.arity)

    def detail(self) -> str:
        return self.alias or self.name


class IndexOrderedScan(PhysicalOperator):
    """Scan a table through a sorted index, yielding rows in key order.

    This is the plan PostgreSQL switches to when an index exists on the
    join attribute of a temp table: a merge join can consume the output
    without an explicit sort (Fig 10 of the paper).
    """

    label = "Index Scan"

    def __init__(self, table: Table, index_name: str, alias: str | None = None):
        self.table = table
        index = table.indexes.get(index_name)
        if index is None:
            raise ExecutionError(f"no index {index_name!r} on {table.name}")
        if not isinstance(index, SortedIndex):
            raise ExecutionError(
                f"index {index_name!r} on {table.name} is not ordered")
        self.index = index
        self.index_name = index_name
        self.alias = alias or table.name
        self._schema = table.schema.rename_relation(self.alias)

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self) -> Iterator[Row]:
        # NULL-keyed rows are appended after the ordered run, mirroring a
        # B+-tree scan with NULLS LAST.
        yield from self.index.ordered_rows()
        yield from self.index._null_rows

    def detail(self) -> str:
        return f"{self.table.name} using {self.index_name}"
