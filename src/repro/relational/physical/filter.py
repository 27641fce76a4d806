"""Filter: selection over a child operator."""

from __future__ import annotations

from ..expressions import Expression, bind, compile_expression
from ..relation import Row
from ..schema import Schema
from .base import PhysicalOperator
from .batch import (
    REPLAYED_ERRORS,
    ListOperator,
    batch_source,
    block_eligible,
    materialize,
)
from .blocks import FilteredColumns, compile_vector


class Filter(ListOperator):
    """Keeps the rows for which the predicate evaluates to TRUE.

    SQL semantics: rows where the predicate is NULL are dropped too.  One
    whole-input list comprehension over the compiled predicate, or a
    selection vector over a column batch in a block pipeline.
    """

    label = "Filter"

    def __init__(self, child: PhysicalOperator, predicate: Expression):
        self.child = child
        self.predicate = bind(predicate, child.schema)
        self._compiled = compile_expression(self.predicate)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def block_source(self):
        predicate = compile_vector(self.predicate)
        if predicate is None:
            return None
        child = batch_source(self.child)
        if child is None:
            return None
        selection = [i for i, keep in enumerate(predicate(child))
                     if keep is True]
        return FilteredColumns(child, selection)

    def _compute(self) -> list[Row]:
        if block_eligible(self):
            try:
                source = batch_source(self)
                if source is not None:
                    return source.rows()
            except REPLAYED_ERRORS:
                pass  # replay through the row path for the exact error
        evaluate = self._compiled
        return [row for row in materialize(self.child)
                if evaluate(row) is True]

    def detail(self) -> str:
        return self.predicate.sql()
