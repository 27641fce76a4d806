"""Continuous profiler: stack accounting, reports, the persistent
store, and the profiling-on/off identity guarantee."""

import json

import pytest

from repro.observability import DRIFT_THRESHOLD, ProfileStore, Profiler
from repro.observability.profiling import estimate_row_bytes
from repro.relational import Engine
from repro.relational.physical import instrument, render_analysis
from repro.relational.schema import Column, Schema, SqlType
from repro.relational.sql.compiler import QueryRunner
from repro.relational.sql.parser import parse_statement

RECURSIVE_SQL = """
with R(F, T) as (
  (select F, T from E where F = 1)
  union
  (select R.F, E.T from R, E where R.T = E.F)
)
select count(*) as n from R
"""

EDGES = [(i, (i * 7 + 1) % 40) for i in range(120)]


def make_engine(**kwargs) -> Engine:
    engine = Engine("postgres", **kwargs)
    engine.database.load_edge_table("E", EDGES, weighted=False)
    return engine


def plan_query(engine: Engine, sql: str):
    runner = QueryRunner(engine.database, engine.policy)
    return runner.plan(parse_statement(sql))


class TestRowBytesEstimate:
    def test_deterministic_schema_estimate(self):
        schema = Schema((Column("a", SqlType.INTEGER),
                         Column("b", SqlType.TEXT)))
        # tuple header 56 + (8 + 28) int + (8 + 60) text
        assert estimate_row_bytes(schema) == 160

    def test_unknown_types_get_a_default(self):
        assert estimate_row_bytes(object()) == 56  # header only


class TestProfilerRecording:
    def test_disabled_profiler_records_nothing(self):
        profiler = Profiler(enabled=False)
        profiler.record_query("select", {"parse": 1.0})
        assert profiler.queries == 0
        assert profiler.to_collapsed() == ""
        assert profiler.top_operators() == []

    def test_select_plan_feeds_stacks_and_top_operators(self):
        engine = make_engine(telemetry="profile")
        engine.execute("select count(*) as n from E")
        profiler = engine.telemetry.profiler
        assert profiler.queries == 1
        collapsed = profiler.to_collapsed()
        assert "query:select;phase:parse" in collapsed
        assert "op:" in collapsed
        for line in collapsed.strip().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0
        top = profiler.top_operators(3)
        assert top and top[0]["seconds"] >= top[-1]["seconds"]
        # The label follows the engine's backend (REPRO_STORAGE may
        # flip the default to columnar in CI).
        assert all(entry["storage"] == engine.storage for entry in top)
        shares = [entry["share"] for entry in
                  profiler.top_operators(k=100)]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)

    def test_self_time_never_exceeds_inclusive(self):
        engine = make_engine(telemetry="profile")
        engine.execute(
            "select count(*) as n from E where F < 30")
        profiler = engine.telemetry.profiler
        for entry in profiler._stacks.values():
            assert entry.seconds >= 0.0

    def test_recursive_plans_aggregate_iterations(self):
        engine = make_engine(telemetry="profile")
        result = engine.execute_detailed(RECURSIVE_SQL)
        profiler = engine.telemetry.profiler
        iterations = profiler.iteration_profile()
        assert len(iterations) == result.iterations
        assert iterations[0]["iteration"] == 1
        assert all(slot["runs"] == 1 for slot in iterations)
        collapsed = profiler.to_collapsed()
        assert "query:recursive;plan:recursive branch" in collapsed

    def test_iteration_indexes_aggregate_across_queries(self):
        engine = make_engine(telemetry="profile")
        engine.execute_detailed(RECURSIVE_SQL)
        engine.execute_detailed(RECURSIVE_SQL)
        iterations = engine.telemetry.profiler.iteration_profile()
        assert all(slot["runs"] == 2 for slot in iterations)

    def test_reset_clears_everything(self):
        engine = make_engine(telemetry="profile")
        engine.execute("select count(*) as n from E")
        profiler = engine.telemetry.profiler
        profiler.reset()
        assert profiler.queries == 0
        assert profiler.to_collapsed() == ""
        assert profiler.iteration_profile() == []


class TestMisestimates:
    def test_large_drift_is_reported(self):
        profiler = Profiler(enabled=True)
        engine = make_engine()
        runner_plan = plan_query(engine, "select F from E")
        stats = instrument(runner_plan)
        runner_plan.execute()
        for node in [runner_plan] + list(runner_plan.children()):
            node.estimated_rows = 1  # force every node far off
        profiler.record_plan("select", "query", runner_plan, stats)
        report = profiler.misestimate_report()
        assert report, "120 actual vs est 1 must register"
        assert report[0]["under"] >= 1
        assert report[0]["worst_ratio"] > DRIFT_THRESHOLD

    def test_accurate_estimates_stay_quiet(self):
        profiler = Profiler(enabled=True)
        engine = make_engine()
        plan = plan_query(engine, "select F from E")
        stats = instrument(plan)
        plan.execute()
        for node in [plan] + list(plan.children()):
            node_stats = stats.get(node)
            if node_stats is not None:
                node.estimated_rows = max(node_stats.rows, 1)
        profiler.record_plan("select", "query", plan, stats)
        assert profiler.misestimate_report() == []


class TestDriftRendering:
    def test_zero_estimate_renders_na_not_a_ratio(self):
        engine = make_engine()
        plan = plan_query(engine, "select F from E")
        stats = instrument(plan)
        plan.execute()
        plan.estimated_rows = 0
        report = render_analysis(plan, stats)
        assert "drift=n/a" in report.splitlines()[0]
        plan.estimated_rows = 120
        report = render_analysis(plan, stats)
        assert "drift=1.00x" in report.splitlines()[0]


class TestProfileJsonSchema:
    def test_snapshot_shape(self):
        engine = make_engine(telemetry="profile")
        engine.execute_detailed(RECURSIVE_SQL)
        snapshot = engine.telemetry.profiler.to_dict()
        assert snapshot["format"] == "repro-profile-v1"
        assert set(snapshot) == {"format", "queries", "phases", "stacks",
                                 "top_operators", "iterations",
                                 "misestimates", "stragglers"}
        assert snapshot["stragglers"] == []  # serial run: no partitions
        assert snapshot["queries"] == 1
        for stack, entry in snapshot["stacks"].items():
            assert set(entry) == {"us", "rows", "calls", "bytes"}
            assert stack.startswith("query:")
        for op in snapshot["top_operators"]:
            assert set(op) == {"operator", "storage", "seconds", "share",
                               "rows", "calls", "bytes_est"}
        json.dumps(snapshot)  # JSON-ready without custom encoders


class TestProfileStore:
    def test_merge_accumulates_across_snapshots(self, tmp_path):
        path = tmp_path / "profile.json"
        for _ in range(2):
            engine = make_engine(telemetry="profile")
            engine.execute("select count(*) as n from E")
            store = ProfileStore(str(path))
            store.merge(engine.telemetry.profiler.to_dict())
            store.save()
        store = ProfileStore(str(path))
        assert store.data["queries"] == 2
        collapsed = store.to_collapsed()
        assert collapsed.endswith("\n")
        assert any("op:" in line for line in collapsed.splitlines())

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            ProfileStore(str(path))


class TestIdentityGuard:
    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_results_identical_with_profiling_on_and_off(self, storage):
        results = {}
        for telemetry in ("off", "profile"):
            engine = make_engine(telemetry=telemetry, storage=storage)
            result = engine.execute_detailed(RECURSIVE_SQL)
            results[telemetry] = (tuple(result.relation.rows),
                                  result.iterations)
        assert results["off"] == results["profile"]
