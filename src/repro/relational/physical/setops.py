"""Set operators: UNION ALL, UNION, EXCEPT, INTERSECT."""

from __future__ import annotations

from typing import Iterator

from ..errors import SchemaError
from ..relation import Row
from ..schema import Schema
from .base import PhysicalOperator
from .batch import ListOperator, batch_source, materialize
from .blocks import ConcatColumns


class _SetOp(PhysicalOperator):
    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        if left.schema.arity != right.schema.arity:
            raise SchemaError(
                f"set operation between arities {left.schema.arity}"
                f" and {right.schema.arity}")
        self.left = left
        self.right = right

    @property
    def schema(self) -> Schema:
        return self.left.schema.without_key()

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)


class UnionAllOp(_SetOp, ListOperator):
    """Concatenates the materialised inputs in one list operation, or
    the two column batches in a block pipeline."""

    label = "Union All"

    def block_source(self):
        left = batch_source(self.left)
        if left is None:
            return None
        right = batch_source(self.right)
        if right is None:
            return None
        return ConcatColumns(left, right)

    def _compute(self) -> list[Row]:
        return materialize(self.left) + materialize(self.right)


class UnionDistinctOp(_SetOp):
    label = "Union"

    def rows(self) -> Iterator[Row]:
        seen: set[Row] = set()
        for row in self.left.rows():
            if row not in seen:
                seen.add(row)
                yield row
        for row in self.right.rows():
            if row not in seen:
                seen.add(row)
                yield row


class ExceptOp(_SetOp):
    label = "Except"

    def rows(self) -> Iterator[Row]:
        gone = set(self.right.rows())
        seen: set[Row] = set()
        for row in self.left.rows():
            if row not in gone and row not in seen:
                seen.add(row)
                yield row


class IntersectOp(_SetOp):
    label = "Intersect"

    def rows(self) -> Iterator[Row]:
        kept = set(self.right.rows())
        seen: set[Row] = set()
        for row in self.left.rows():
            if row in kept and row not in seen:
                seen.add(row)
                yield row
