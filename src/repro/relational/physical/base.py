"""Base class and EXPLAIN support for physical operators."""

from __future__ import annotations

from typing import Iterator

from ..relation import Relation, Row
from ..schema import Schema


class PhysicalOperator:
    """One node of an executable plan tree."""

    #: Human-readable operator name shown by EXPLAIN.
    label = "physical"

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        """Stream output rows.  May be consumed at most once per execution."""
        raise NotImplementedError

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def detail(self) -> str:
        """Extra EXPLAIN annotation (join keys, predicates, ...)."""
        return ""

    def execute(self) -> Relation:
        """Materialise the full output."""
        return Relation(self.schema, self.rows())

    def columnar_store(self):
        """The ColumnStore this node scans directly, or None."""
        return None

    def block_source(self):
        """This node's output as a column batch (:mod:`.blocks`), or None
        when it has no block form and the caller takes the row path."""
        return None


def explain_plan(root: PhysicalOperator) -> str:
    """Render a plan tree as indented text, one operator per line.

    Tests assert on these strings to pin down dialect plan differences
    (e.g. the PostgreSQL profile choosing Merge Join on unanalyzed temp
    tables, per the paper's Exp-A discussion).
    """
    lines: list[str] = []

    def visit(node: PhysicalOperator, depth: int) -> None:
        annotation = node.detail()
        suffix = f" [{annotation}]" if annotation else ""
        estimate = getattr(node, "estimated_rows", None)
        if estimate is not None:
            suffix += f" (est_rows={estimate})"
        lines.append("  " * depth + f"-> {node.label}{suffix}")
        for child in node.children():
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
