"""Requalify: re-label a child's output columns under a new relation alias."""

from __future__ import annotations

from typing import Iterator, Sequence

from ..relation import Row
from ..schema import Schema
from .base import PhysicalOperator
from .batch import batch_source


class Requalify(PhysicalOperator):
    """Rows pass through; the schema is re-qualified as *alias* (ρ)."""

    label = "Requalify"

    def __init__(self, child: PhysicalOperator, alias: str):
        self.child = child
        self.alias = alias
        self._schema = child.schema.rename_relation(alias)

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Row]:
        return self.child.rows()

    def block_source(self):
        # Pure rename (ρ): rows pass through untouched.
        return batch_source(self.child)

    def detail(self) -> str:
        return self.alias


class ReorderColumns(PhysicalOperator):
    """Positionally permute a child's columns, keeping each
    :class:`~repro.relational.schema.Column` intact (qualifier and type).

    Used by the RIGHT JOIN flip: name-based projection would strip
    qualifiers and collide when both sides share column names."""

    label = "ReorderColumns"

    def __init__(self, child: PhysicalOperator, order: Sequence[int]):
        self.child = child
        self.order = tuple(order)
        self._schema = Schema(tuple(child.schema.columns[i]
                                    for i in self.order))

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def rows(self) -> Iterator[Row]:
        order = self.order
        for row in self.child.rows():
            yield tuple(row[i] for i in order)

    def detail(self) -> str:
        return ", ".join(str(i) for i in self.order)
