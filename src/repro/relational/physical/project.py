"""Project: computed select-lists over a child operator."""

from __future__ import annotations

from typing import Sequence

from ..expressions import BoundColumn, Expression, bind, compile_key_function
from ..relation import Row
from ..schema import Column, Schema
from ..types import SqlType
from .base import PhysicalOperator
from .batch import (
    REPLAYED_ERRORS,
    ListOperator,
    batch_source,
    block_eligible,
    materialize,
)
from .blocks import DerivedColumns, compile_vector


class Project(ListOperator):
    """Evaluates ``(expression, alias)`` pairs per input row: one
    list-comprehension pass with the compiled row-builder, or derived
    column vectors in a block pipeline."""

    label = "Project"

    def __init__(self, child: PhysicalOperator,
                 items: Sequence[tuple[Expression, str]]):
        self.child = child
        self.items = [(bind(expr, child.schema), alias) for expr, alias in items]
        columns = []
        for bound, alias in self.items:
            if isinstance(bound, BoundColumn):
                sql_type = child.schema.columns[bound.index].sql_type
            else:
                sql_type = SqlType.DOUBLE
            columns.append(Column(alias, sql_type))
        self._schema = Schema(tuple(columns))
        # One compiled row-builder for the whole select list; pure-column
        # lists lower to a single itemgetter.
        self._builder = compile_key_function([b for b, _ in self.items])

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def block_source(self):
        vectors = [compile_vector(bound) for bound, _ in self.items]
        if any(v is None for v in vectors):
            return None
        child = batch_source(self.child)
        if child is None:
            return None
        return DerivedColumns(
            child.length,
            [(lambda v=v: v(child)) for v in vectors])

    def _compute(self) -> list[Row]:
        if block_eligible(self):
            try:
                source = batch_source(self)
                if source is not None:
                    return source.rows()
            except REPLAYED_ERRORS:
                pass  # replay through the row path for the exact error
        return list(map(self._builder, materialize(self.child)))

    def detail(self) -> str:
        return ", ".join(f"{bound.sql()} AS {alias}"
                         for bound, alias in self.items)
