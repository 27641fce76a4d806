"""Physical (executable) operators for the relational engine.

Each operator exposes an output :class:`~repro.relational.schema.Schema`
and a ``rows()`` iterator; the hash family, projections, filters and
UNION ALL compute their output as one list (see :mod:`.batch`).  The
planner (:mod:`repro.relational.planner`) assembles trees of these and the
engine materialises the root into a
:class:`~repro.relational.relation.Relation`.
"""

from .analyze import OperatorStats, execute_analyzed, instrument, render_analysis
from .base import PhysicalOperator, explain_plan
from .scan import BindingScan, IndexOrderedScan, RelationScan, TableScan
from .filter import Filter
from .project import Project
from .joins import (
    HashAntiJoin,
    HashFullOuterJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    MergeJoin,
    NestedLoopJoin,
    NotInAntiJoin,
    contains_binding_scan,
    is_stable_input,
)
from .prune import ColumnPrune
from .aggregate import HashAggregate, SortAggregate
from .setops import ExceptOp, IntersectOp, UnionAllOp, UnionDistinctOp
from .sort import Sort
from .distinct import Distinct
from .limit import Limit
from .materialize import Materialize
from .rename import ReorderColumns, Requalify
from .window import WindowAggregate, WindowSpec

__all__ = [
    "ReorderColumns",
    "Requalify",
    "WindowAggregate",
    "WindowSpec",
    "PhysicalOperator",
    "explain_plan",
    "OperatorStats",
    "instrument",
    "render_analysis",
    "execute_analyzed",
    "TableScan",
    "RelationScan",
    "BindingScan",
    "IndexOrderedScan",
    "Filter",
    "Project",
    "ColumnPrune",
    "HashJoin",
    "contains_binding_scan",
    "is_stable_input",
    "MergeJoin",
    "NestedLoopJoin",
    "HashLeftOuterJoin",
    "HashFullOuterJoin",
    "HashSemiJoin",
    "HashAntiJoin",
    "NotInAntiJoin",
    "HashAggregate",
    "SortAggregate",
    "UnionAllOp",
    "UnionDistinctOp",
    "ExceptOp",
    "IntersectOp",
    "Sort",
    "Distinct",
    "Limit",
    "Materialize",
]
