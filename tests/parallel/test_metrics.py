"""Worker-pool health on /metrics and in the differential matrix."""

import pytest

from repro.check.oracles import EngineConfig, default_matrix, \
    relevant_matrix
from repro.relational import Engine


@pytest.fixture
def strict(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_STRICT", "1")


PAGERANK = """with P(ID, val) as (
  (select ID, 0.5 as val from V)
  union by update ID
  (select E.T, 0.2 + 0.8 * sum(P.val * E.ew)
   from P, E where P.ID = E.F group by E.T)
  maxrecursion 5
) select ID, val from P"""


@pytest.mark.usefixtures("strict")
def test_parallel_gauges_exposed_after_parallel_run():
    engine = Engine("oracle", parallel=2)
    engine.database.load_edge_table(
        "E", [(i, (i + 1) % 40, 1.0) for i in range(40)])
    engine.database.load_node_table("V", [(i, 1.0) for i in range(40)])
    engine.execute(PAGERANK)
    text = engine.metrics.to_prometheus()
    assert 'repro_parallel_workers{state="configured"} 2' in text
    assert 'repro_parallel_workers{state="alive"} 2' in text
    assert "repro_parallel_queue_depth" in text
    assert 'repro_parallel_exchange_bytes{direction="sent"}' in text
    assert 'repro_parallel_exchange_bytes{direction="received"}' in text
    assert 'repro_parallel_jobs{kind="fix_iter"}' in text
    assert 'repro_parallel_worker_busy_fraction{worker="0"}' in text
    assert 'repro_parallel_worker_busy_fraction{worker="1"}' in text


def test_serial_engine_exposes_no_parallel_gauges():
    # parallel=0 pinned: with REPRO_PARALLEL set the scrape-time peek
    # would (correctly) surface the shared pool's gauges.
    engine = Engine("oracle", parallel=0)
    engine.database.load_node_table("V", [(1, 1.0)])
    engine.execute("select ID from V")
    assert "repro_parallel" not in engine.metrics.to_prometheus()


def test_default_matrix_includes_parallel_cells():
    matrix = default_matrix()
    assert len(matrix) == 48
    parallel_cells = [c for c in matrix if c.parallel]
    assert len(parallel_cells) == 16
    # worker telemetry shards let instrumented runs fan out too, so
    # parallel cells cover both telemetry modes
    assert {c.telemetry for c in parallel_cells} == {"off", "on"}
    assert all(c.parallel == 2 for c in parallel_cells)
    labels = {c.label() for c in matrix}
    assert len(labels) == 48  # parallel must show up in the label


def test_relevant_matrix_keeps_parallel_axis_for_plain_queries():
    from types import SimpleNamespace

    matrix = (EngineConfig(strategy="merge", parallel=0),
              EngineConfig(strategy="full_outer_join", parallel=0),
              EngineConfig(strategy="merge", parallel=2))
    scenario = SimpleNamespace(recursive=False)
    collapsed = relevant_matrix(scenario, matrix)
    # strategies collapse for plain queries, the parallel axis must not
    assert len(collapsed) == 2
    assert {c.parallel for c in collapsed} == {0, 2}


@pytest.mark.usefixtures("strict")
def test_engineconfig_parallel_cell_builds_and_runs():
    config = EngineConfig(storage="columnar", parallel=2)
    assert "parallel=2" in config.label()
    engine = config.build_engine()
    assert engine.parallel == 2
    engine.database.load_edge_table(
        "E", [(i, (i + 1) % 20, 1.0) for i in range(20)])
    engine.database.load_node_table("V", [(i, 1.0) for i in range(20)])
    result = engine.execute_detailed(PAGERANK)
    assert result.iterations == 5
