"""Planner policies: where dialect profiles shape physical plans.

The compiler asks the active :class:`PlannerPolicy` to build joins and
aggregations; the policy encodes the per-RDBMS behaviour the paper observed:

* :class:`HashFirstPolicy` (Oracle profile) — hash join + hash aggregation,
  regardless of indexes ("the optimizers do not choose a new query plan for
  temporary tables, even when an index is constructed", Exp-A);
* :class:`HashJoinSortAggPolicy` (DB2 profile) — hash join but sort-based
  aggregation, making it systematically slower than the Oracle profile;
* :class:`MergeJoinPolicy` (PostgreSQL profile) — merge join + sort
  aggregation whenever a side lacks fresh statistics (temp tables in a
  recursive loop always do), upgrading to an ordered index scan when a
  sorted index exists on the join columns — the Fig 10 effect.  With fresh
  statistics on both sides it plans hash joins like the others.
"""

from __future__ import annotations

from typing import Sequence

from .expressions import ColumnRef, Expression
from .physical import (
    Filter,
    HashAggregate,
    HashAntiJoin,
    HashFullOuterJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    IndexOrderedScan,
    MergeJoin,
    NotInAntiJoin,
    PhysicalOperator,
    Project,
    SortAggregate,
    TableScan,
    UnionAllOp,
)
from .relation import AggregateSpec

class PlannerPolicy:
    """Choice points the compiler delegates to."""

    name = "default"
    #: A :class:`repro.observability.MetricsRegistry` when the owning
    #: engine attached one; policies count their operator choices there.
    metrics = None

    def _count_join(self, join: PhysicalOperator) -> PhysicalOperator:
        """Record which join operator this policy chose (plan-time only —
        one counter increment per join node, never per row)."""
        if self.metrics is not None:
            self.metrics.counter(
                "repro_planner_join_choices_total",
                "Join operators chosen at plan time, by policy.",
                operator=join.label, policy=self.name).inc()
        return join

    def make_equi_join(self, left: PhysicalOperator, right: PhysicalOperator,
                       left_keys: Sequence[Expression],
                       right_keys: Sequence[Expression]) -> PhysicalOperator:
        raise NotImplementedError

    def make_left_outer_join(self, left, right, left_keys, right_keys):
        return HashLeftOuterJoin(left, right, left_keys, right_keys)

    def make_full_outer_join(self, left, right, left_keys, right_keys):
        return HashFullOuterJoin(left, right, left_keys, right_keys)

    def make_semi_join(self, left, right, left_keys, right_keys):
        return HashSemiJoin(left, right, left_keys, right_keys)

    def make_anti_join(self, left, right, left_keys, right_keys):
        """NOT EXISTS / LEFT JOIN ... IS NULL plan."""
        return HashAntiJoin(left, right, left_keys, right_keys)

    def make_not_in_anti_join(self, left, right, left_keys, right_keys):
        """NOT IN plan, with its NULL-aware bookkeeping."""
        return NotInAntiJoin(left, right, left_keys, right_keys)

    def make_project(self, child: PhysicalOperator, items) -> PhysicalOperator:
        return Project(child, items)

    def make_filter(self, child: PhysicalOperator,
                    predicate: Expression) -> PhysicalOperator:
        return Filter(child, predicate)

    def make_union_all(self, left: PhysicalOperator,
                       right: PhysicalOperator) -> PhysicalOperator:
        return UnionAllOp(left, right)

    def make_aggregate(self, child: PhysicalOperator,
                       keys: Sequence[Expression],
                       aggregates: Sequence[AggregateSpec],
                       key_aliases: Sequence[str]) -> PhysicalOperator:
        raise NotImplementedError


def _estimate_rows(node: PhysicalOperator) -> int | None:
    """Cardinality estimate from catalog/statistics info, when available.

    This is the statistics knowledge the commercial optimizers have and
    PostgreSQL lacks on temp tables; the stats-aware policies use it to
    put the smaller input on a hash join's build side.
    """
    from .physical import BindingScan, Filter, Project, RelationScan, Requalify

    if isinstance(node, TableScan):
        return len(node.table.rows)
    if isinstance(node, IndexOrderedScan):
        return len(node.table.rows)
    if isinstance(node, RelationScan):
        return len(node.relation)
    if isinstance(node, BindingScan):
        relation = node.slots.get(node.name)
        return len(relation) if relation is not None else None
    if isinstance(node, (Filter, Project, Requalify)):
        return _estimate_rows(node.children()[0])
    return None


def _stats_aware_hash_join(left, right, left_keys, right_keys):
    left_size = _estimate_rows(left)
    right_size = _estimate_rows(right)
    build_side = "right"
    if left_size is not None and right_size is not None \
            and left_size < right_size:
        build_side = "left"
    return HashJoin(left, right, left_keys, right_keys, build_side)


class HashFirstPolicy(PlannerPolicy):
    """Hash join (smaller side as build) + hash aggregation — the Oracle
    profile, with the plan quality its statistics afford."""

    name = "hash-first"

    def make_equi_join(self, left, right, left_keys, right_keys):
        return self._count_join(_stats_aware_hash_join(
            left, right, left_keys, right_keys))

    def make_aggregate(self, child, keys, aggregates, key_aliases):
        return HashAggregate(child, keys, aggregates, key_aliases)


class HashJoinSortAggPolicy(PlannerPolicy):
    """Hash join with the default build side + sort-based aggregation —
    the DB2 profile.

    DB2 Express-C's optimizer plans hash joins like Oracle's but without
    the same plan quality on this workload (no build-side choice here) and
    with sort-based grouping, which keeps it measurably behind Oracle yet
    ahead of the PostgreSQL profile's input-sorting merge joins — the
    paper's overall ordering.
    """

    name = "hash-join-sort-agg"

    def make_equi_join(self, left, right, left_keys, right_keys):
        return self._count_join(
            HashJoin(left, right, left_keys, right_keys))

    def make_aggregate(self, child, keys, aggregates, key_aliases):
        # Sort aggregation is this profile's cost model.
        return SortAggregate(child, keys, aggregates, key_aliases)


class MergeJoinPolicy(PlannerPolicy):
    """Merge join + hash aggregation on stale statistics (the PostgreSQL
    profile: "the optimizer generates a sub-optimal query plan using merge
    join and hash aggregation", Exp-A).

    When a join input is a bare table scan whose table carries a sorted
    index on exactly the join columns, the scan is replaced by an
    :class:`IndexOrderedScan` so the merge join skips its sort — the
    Fig 10 mechanism.
    """

    name = "merge-join"

    def make_equi_join(self, left, right, left_keys, right_keys):
        if self._both_sides_analyzed(left, right):
            return self._count_join(
                HashJoin(left, right, left_keys, right_keys))
        left = self._try_index_feed(left, left_keys)
        right = self._try_index_feed(right, right_keys)
        return self._count_join(
            MergeJoin(left, right, left_keys, right_keys))

    def make_aggregate(self, child, keys, aggregates, key_aliases):
        return HashAggregate(child, keys, aggregates, key_aliases)

    @staticmethod
    def _both_sides_analyzed(left: PhysicalOperator,
                             right: PhysicalOperator) -> bool:
        def analyzed(node: PhysicalOperator) -> bool:
            return (isinstance(node, TableScan)
                    and node.table.statistics.fresh
                    and not node.table.temporary)

        return analyzed(left) and analyzed(right)

    @staticmethod
    def _try_index_feed(node: PhysicalOperator,
                        keys: Sequence[Expression]) -> PhysicalOperator:
        from .indexes import SortedIndex

        if not isinstance(node, TableScan):
            return node
        column_names: list[str] = []
        for key in keys:
            if not isinstance(key, ColumnRef):
                return node
            column_names.append(key.name)
        try:
            index = node.table.index_on(column_names)
        except Exception:
            return node
        if index is None or not isinstance(index, SortedIndex):
            return node
        index_name = next(name for name, ix in node.table.indexes.items()
                          if ix is index)
        return IndexOrderedScan(node.table, index_name, node.alias)


class CostBasedPolicy(PlannerPolicy):
    """Statistics-driven planning, replacing the dialect heuristics.

    Where the three profiles above *model* a vendor's fixed behaviour,
    this policy picks operators from estimated costs
    (:mod:`repro.relational.optimizer`):

    * hash join with the cheaper side as build — except in the with+
      branch shape (a loop-bound delta joined to a stable input), where
      the stable side builds: over columnar storage its hash index is
      the store's cached ``join_index``, built once and reused by every
      iteration, so only the delta is probed;
    * merge join only when both inputs arrive presorted through a sorted
      index and neither side re-executes against loop bindings;
    * hash aggregation throughout.

    The compiler additionally routes FROM planning through
    :func:`~repro.relational.optimizer.plan_from_cost_based` (pushdown +
    join reordering) when it sees ``cost_based`` on the policy, and the
    recursive executor reads ``adaptive`` / ``replan_factor`` to replan
    cached branch plans when observed delta cardinality drifts from the
    estimates.
    """

    name = "cost-based"
    #: Compiler switch: route FROM planning through the optimizer.
    cost_based = True
    #: Recursive-executor switch: replan on cardinality drift.
    adaptive = True

    #: Merge join needs both inputs presorted and size-balanced at least
    #: this much; otherwise building a hash on the small side wins.
    MERGE_BALANCE = 0.25

    #: Block-aware override, keyed by the catalog's storage backend: a
    #: merge join must decode sealed blocks into sorted row tuples while
    #: a hash join reads the key column straight out of the store, so
    #: merge needs a much more balanced pair of inputs to win.
    STORAGE_MERGE_BALANCE = {"columnar": 0.5}

    def __init__(self, replan_factor: float = 8.0, storage: str = "rows"):
        from .optimizer import CardinalityEstimator

        self.replan_factor = replan_factor
        self.storage = storage
        self.MERGE_BALANCE = self.STORAGE_MERGE_BALANCE.get(
            storage, type(self).MERGE_BALANCE)
        self.estimator = CardinalityEstimator(refresh=True)

    def make_equi_join(self, left, right, left_keys, right_keys):
        from .physical import contains_binding_scan, is_stable_input

        left_rows = self.estimator.annotate(left)
        right_rows = self.estimator.annotate(right)
        rescanned_left = contains_binding_scan(left)
        rescanned_right = contains_binding_scan(right)
        if not (rescanned_left or rescanned_right):
            merged = self._try_merge_join(left, right, left_keys, right_keys,
                                          left_rows, right_rows)
            if merged is not None:
                return self._count_join(merged)
        stable_left = is_stable_input(left)
        stable_right = is_stable_input(right)
        if stable_right and rescanned_left and not rescanned_right:
            # The classic with+ branch shape: delta ⋈ stable base table.
            # Build on the stable side regardless of size — over columnar
            # storage a table scan's build is the store's cached index,
            # paid once across iterations.
            build_side = "right"
        elif stable_left and rescanned_right and not rescanned_left:
            build_side = "left"
        else:
            build_side = "left" if left_rows <= right_rows else "right"
        join = HashJoin(left, right, left_keys, right_keys, build_side)
        self.estimator.annotate(join)
        return self._count_join(join)

    def _try_merge_join(self, left, right, left_keys, right_keys,
                        left_rows, right_rows):
        from .physical import ColumnPrune

        bigger = max(left_rows, right_rows, 1)
        if min(left_rows, right_rows) / bigger < self.MERGE_BALANCE:
            return None
        # Projection pushdown may have wrapped the scans; a merge join's
        # presorted feed needs the bare index-ordered scan, so trade the
        # prune back for the skipped sort when an index fits.
        bare_left = left.child if isinstance(left, ColumnPrune) else left
        bare_right = right.child if isinstance(right, ColumnPrune) else right
        fed_left = MergeJoinPolicy._try_index_feed(bare_left, left_keys)
        fed_right = MergeJoinPolicy._try_index_feed(bare_right, right_keys)
        if fed_left is bare_left or fed_right is bare_right:
            # Some side would have to sort: hash is never worse here.
            return None
        join = MergeJoin(fed_left, fed_right, left_keys, right_keys)
        self.estimator.annotate(join)
        return join

    def make_aggregate(self, child, keys, aggregates, key_aliases):
        self.estimator.annotate(child)
        return HashAggregate(child, keys, aggregates, key_aliases)


POLICIES: dict[str, type[PlannerPolicy]] = {
    "hash-first": HashFirstPolicy,
    "hash-join-sort-agg": HashJoinSortAggPolicy,
    "merge-join": MergeJoinPolicy,
    "cost-based": CostBasedPolicy,
}
