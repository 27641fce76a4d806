"""Cost-based optimizer: statistics, pushdown, join reordering, ANALYZE,
adaptive replanning, and optimizer-on/off result identity."""

import math

import pytest

from repro.core.algorithms.registry import ALGORITHMS
from repro.datasets import preferential_attachment, random_dag
from repro.relational import Engine
from repro.relational.optimizer import CardinalityEstimator, choose_join_order
from repro.relational.physical import HashJoin, explain_plan
from repro.relational.planner import CostBasedPolicy
from repro.relational.sql.compiler import QueryRunner
from repro.relational.sql.parser import parse_statement


@pytest.fixture
def loaded(request):
    def make(**kwargs):
        engine = Engine("oracle", optimizer="cost", **kwargs)
        engine.database.load_edge_table(
            "E", [(i, (i * 7 + 1) % 40, 1.0) for i in range(200)])
        engine.database.load_node_table(
            "V", [(i, float(i % 5)) for i in range(40)])
        return engine
    return make


JOIN_SQL = "select E.F, V.vw from E, V where E.T = V.ID"


class TestCardinalityEstimates:
    def test_explain_reports_estimates_on_every_operator(self, loaded):
        plan = loaded().explain(JOIN_SQL)
        for line in plan.splitlines():
            assert "est_rows=" in line, line

    def test_scan_estimate_matches_row_count(self, loaded):
        plan = loaded().explain("select F from E")
        assert "est_rows=200" in plan

    def test_equality_filter_uses_distinct_counts(self, loaded):
        # vw takes 5 distinct values over 40 rows -> ~8 rows estimated.
        plan = loaded().explain("select ID from V where vw = 1.0")
        filter_line = next(l for l in plan.splitlines() if "Filter" in l)
        est = int(filter_line.split("est_rows=")[1].rstrip(")"))
        assert 4 <= est <= 16

    def test_range_filter_interpolates_min_max(self, loaded):
        # vw is uniform over [0, 4]; vw < 1 covers ~25% of the range.
        plan = loaded().explain("select ID from V where vw < 1.0")
        filter_line = next(l for l in plan.splitlines() if "Filter" in l)
        est = int(filter_line.split("est_rows=")[1].rstrip(")"))
        assert est < 20

    def test_dialect_policies_also_report_estimates(self):
        engine = Engine("oracle")  # optimizer off
        engine.database.load_edge_table("E", [(1, 2), (2, 3)])
        assert "est_rows=" in engine.explain("select F from E")

    def test_explain_analyze_reports_estimated_and_actual(self, loaded):
        report = loaded().explain_analyze(JOIN_SQL)
        for line in report.splitlines():
            assert "est_rows=" in line, line
            assert "actual rows=" in line, line


class TestPushdownAndReordering:
    def test_single_table_predicate_pushed_below_join(self, loaded):
        plan = loaded().explain(
            "select E.F from E, V where E.T = V.ID and V.vw = 1.0")
        lines = plan.splitlines()
        join_depth = next(i for i, l in enumerate(lines) if "Join" in l)
        filter_depth = next(i for i, l in enumerate(lines) if "Filter" in l)
        assert filter_depth > join_depth  # filter is inside the join subtree

    def test_unreferenced_columns_pruned(self, loaded):
        plan = loaded().explain(JOIN_SQL)
        assert "Column Prune" in plan

    def test_star_select_keeps_syntactic_plan_and_column_order(self, loaded):
        engine = loaded()
        rows = engine.execute(
            "select * from E, V where E.T = V.ID and V.ID = 1").rows
        names = [c.name for c in engine.execute(
            "select * from E, V where E.T = V.ID").schema.columns]
        assert names == ["F", "T", "ew", "ID", "vw"]
        assert all(len(row) == 5 for row in rows)

    def test_small_filtered_relation_joined_first(self):
        # Three-way chain A-B-C where C shrinks to ~1 row under its
        # filter: the reorderer must not start from the big end.
        engine = Engine("oracle", optimizer="cost")
        engine.database.load_edge_table(
            "A", [(i, i % 50, 1.0) for i in range(500)])
        engine.database.load_edge_table(
            "B", [(i % 50, i // 50, 1.0) for i in range(300)])
        engine.database.load_node_table(
            "C", [(i, float(i)) for i in range(20)])
        plan = engine.explain(
            "select A.F from A, B, C"
            " where A.T = B.F and B.T = C.ID and C.vw = 3.0")
        lines = plan.splitlines()
        # The deepest (first-joined) inputs must include filtered C; the
        # 500-row A joins last, so it sits directly under the root join.
        root_join = next(l for l in lines if "Join" in l)
        assert "est_rows=" in root_join
        c_scan = next(i for i, l in enumerate(lines) if "[C]" in l)
        a_scan = next(i for i, l in enumerate(lines) if "[A]" in l)
        # A joins last: its scan renders after C's and sits shallower.
        assert a_scan > c_scan
        assert lines[a_scan].index("->") < lines[c_scan].index("->")

    def test_reordered_results_match_syntactic_order(self):
        engine_off = Engine("oracle")
        engine_on = Engine("oracle", optimizer="cost")
        for engine in (engine_off, engine_on):
            engine.database.load_edge_table(
                "A", [(i, i % 50, 1.0) for i in range(500)])
            engine.database.load_edge_table(
                "B", [(i % 50, i // 50, 1.0) for i in range(300)])
            engine.database.load_node_table(
                "C", [(i, float(i)) for i in range(20)])
        sql = ("select A.F, C.vw from A, B, C"
               " where A.T = B.F and B.T = C.ID and C.vw = 3.0")
        assert sorted(engine_off.execute(sql).rows) == \
            sorted(engine_on.execute(sql).rows)

    def test_dp_order_prefers_selective_edges(self):
        # Leaves: 0 (1000 rows), 1 (10 rows), 2 (100 rows); edges 0-1 and
        # 1-2 both selective.  The order must start from the small leaf.
        class Edge:
            def __init__(self, a, b, sel):
                self.left_index, self.right_index = a, b
                self.selectivity = sel

            def touches(self, i):
                return i in (self.left_index, self.right_index)

            def other(self, i):
                return (self.right_index if i == self.left_index
                        else self.left_index)

        order = choose_join_order(
            [1000.0, 10.0, 100.0],
            [Edge(0, 1, 0.0001), Edge(1, 2, 0.01)])
        # The highly selective 0-1 edge (1 row out) beats joining 1-2
        # first (10 rows out); leaf 2 joins last.  Never a cross start.
        assert set(order[:2]) == {0, 1}
        assert order[2] == 2


class TestOperatorSelection:
    def test_build_side_on_smaller_input_batch(self, loaded):
        # V (40 rows) much smaller than E (200): build from V's side, on
        # the plain (batch) Hash Join.
        engine = loaded()
        node = QueryRunner(engine.database, engine.policy).plan(
            parse_statement(JOIN_SQL))
        while node.label != "Hash Join":
            (node,) = [c for c in node.children()
                       if c.label != "Seq Scan"]
        assert type(node) is HashJoin
        assert node.build_side == "right"
        assert "V" in explain_plan(node.right)

    def test_merge_join_when_both_sides_presorted(self):
        engine = Engine("oracle", optimizer="cost")
        engine.database.load_edge_table(
            "R", [(i, i + 1, 1.0) for i in range(50)])
        engine.database.load_edge_table(
            "S", [(i, i + 2, 1.0) for i in range(40)])
        engine.database.table("R").create_index("ix_r", ["T"], "btree")
        engine.database.table("S").create_index("ix_s", ["F"], "btree")
        plan = engine.explain("select R.F from R, S where R.T = S.F")
        assert "Merge Join" in plan
        assert "Index Ordered Scan" in plan or "index" in plan.lower()

    def test_hash_join_when_sizes_skewed(self):
        engine = Engine("oracle", optimizer="cost")
        engine.database.load_edge_table(
            "R", [(i, i + 1, 1.0) for i in range(500)])
        engine.database.load_edge_table("S", [(1, 2, 1.0), (2, 3, 1.0)])
        engine.database.table("R").create_index("ix_r", ["T"], "btree")
        engine.database.table("S").create_index("ix_s", ["F"], "btree")
        plan = engine.explain("select R.F from R, S where R.T = S.F")
        assert "Merge Join" not in plan

    def test_cost_plan_agrees_with_modelled_plan(self):
        engine = Engine("oracle", optimizer="cost")
        engine.database.load_edge_table(
            "E", [(i, (i * 7 + 1) % 40, 1.0) for i in range(200)])
        engine.database.load_node_table(
            "V", [(i, float(i % 5)) for i in range(40)])
        plan = engine.explain(JOIN_SQL)
        assert "Hash Join" in plan
        rows = sorted(engine.execute(JOIN_SQL).rows)
        baseline = Engine("oracle")
        baseline.database.load_edge_table(
            "E", [(i, (i * 7 + 1) % 40, 1.0) for i in range(200)])
        baseline.database.load_node_table(
            "V", [(i, float(i % 5)) for i in range(40)])
        assert rows == sorted(baseline.execute(JOIN_SQL).rows)


class TestAnalyzeStatement:
    def test_analyze_table_refreshes_statistics(self, loaded):
        engine = loaded()
        table = engine.database.table("E")
        table.insert((999, 0, 1.0))  # invalidates
        assert not table.statistics.fresh
        result = engine.execute("analyze E")
        assert table.statistics.fresh
        assert result.rows == (("E", 201),)

    def test_analyze_without_name_refreshes_all(self, loaded):
        engine = loaded()
        engine.database.table("E").insert((999, 0, 1.0))
        engine.database.table("V").insert((999, 0.0))
        result = engine.execute("analyze")
        assert engine.database.table("E").statistics.fresh
        assert engine.database.table("V").statistics.fresh
        assert len(result.rows) >= 2

    def test_analyze_unknown_table_raises(self, loaded):
        with pytest.raises(Exception):
            loaded().execute("analyze nosuch")

    def test_cost_policy_lazily_refreshes_stale_statistics(self, loaded):
        engine = loaded()
        table = engine.database.table("E")
        table.insert((999, 0, 1.0))
        assert not table.statistics.fresh
        engine.explain(JOIN_SQL)  # estimation auto-analyzes
        assert table.statistics.fresh

    def test_dialect_policies_never_auto_refresh(self):
        engine = Engine("postgres")
        engine.database.load_edge_table("E", [(1, 2), (2, 3)])
        engine.database.load_node_table("V", [(1, 0.0), (2, 0.0)])
        engine.database.table("E").insert((3, 1, 1.0))
        engine.explain(JOIN_SQL)
        # The postgres profile's merge-join-on-stale-stats behaviour
        # depends on statistics staying stale.
        assert not engine.database.table("E").statistics.fresh


class TestAdaptiveReplanning:
    def test_union_all_shrinking_delta_triggers_replan(self):
        engine = Engine("oracle", optimizer="cost", replan_factor=2.0)
        # A single chain: the semi-naive delta starts at 30 rows and
        # shrinks by one per iteration as walk heads fall off the end,
        # so the planned cardinality drifts past the 2x factor.
        edges = [(i, i + 1, 1.0) for i in range(30)]
        engine.database.load_edge_table("E", edges)
        detail = engine.execute_detailed(
            "with R(ID) as ("
            " select F as ID from E"
            " union all"
            " select E.T as ID from R, E where R.ID = E.F"
            " maxrecursion 40)"
            " select count(*) as n from R")
        assert detail.replans >= 1
        assert detail.relation.rows[0][0] > 0

    def test_replans_counted_and_results_unchanged(self):
        results = {}
        for opt, factor in (("off", 8.0), ("cost", 1.5)):
            engine = Engine("oracle", optimizer=opt, replan_factor=factor)
            engine.database.load_edge_table(
                "E", [(i, i + 1, 1.0) for i in range(40)]
                     + [(0, i, 2.0) for i in range(2, 20)])
            detail = engine.execute_detailed(
                "with R(ID, d) as ("
                " select 0 as ID, 0.0 as d"
                " union all"
                " select E.T as ID, R.d + E.ew as d"
                " from R, E where R.ID = E.F"
                " maxrecursion 60)"
                " select ID, min(d) as dist from R group by ID")
            results[opt] = sorted(detail.relation.rows)
            if opt == "cost":
                # The first iteration plans against a 1-row delta; the
                # fan-out to ~19 rows must trip the 1.5x drift check.
                assert detail.replans >= 1
        assert results["off"] == results["cost"]

    def test_no_replan_on_stable_cardinality(self):
        engine = Engine("oracle", optimizer="cost", replan_factor=8.0)
        graph_edges = [(i, (i + 1) % 10, 1.0) for i in range(10)]
        engine.database.load_edge_table("E", graph_edges)
        detail = engine.execute_detailed(
            "with R(ID, v) as ("
            " select F as ID, 1.0 as v from E"
            " union by update ID"
            " select E.T as ID, min(R.v + E.ew) as v"
            " from R, E where R.ID = E.F group by E.T"
            " maxrecursion 30)"
            " select count(*) as n from R")
        # union-by-update keeps R at a constant cardinality: never replan.
        assert detail.replans == 0


def _comparable(left, right) -> bool:
    if set(left) != set(right):
        return False
    for key, a in left.items():
        b = right[key]
        if a == b:
            continue
        if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
            if all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
                   for x, y in zip(a, b)):
                continue
        if isinstance(a, float) and isinstance(b, float) and \
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
            continue
        return False
    return True


class TestResultIdentity:
    """Optimizer on must agree with optimizer off over the whole registry
    (exact, modulo float-summation order inside aggregates)."""

    @pytest.mark.parametrize(
        "key", sorted(k for k, info in ALGORITHMS.items() if info.has_sql))
    def test_algorithm_matches_without_optimizer(self, key):
        info = ALGORITHMS[key]
        graph = (random_dag(60, 2, seed=3) if info.needs_dag
                 else preferential_attachment(120, 3, seed=3))
        kwargs = dict(info.bench_kwargs or {})
        off = info.run_sql(Engine("oracle"), graph, **kwargs)
        on = info.run_sql(Engine("oracle", optimizer="cost"), graph, **kwargs)
        assert _comparable(off.values, on.values)
        assert off.iterations == on.iterations
