"""Byte-identity of the partitioned fixpoint against the serial loop.

Every test runs under ``REPRO_PARALLEL_STRICT=1`` so infrastructure
failures raise instead of silently degrading to serial — a silently
serial run would make the identity assertions vacuous.  Where a test's
point *is* the parallel path, it additionally asserts the pool actually
processed fixpoint jobs.
"""

import pickle
import random

import pytest

from repro.relational import Engine
from repro.relational.errors import RelationalError

pytestmark = pytest.mark.usefixtures("strict_parallel")


@pytest.fixture
def strict_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_STRICT", "1")
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)


def _graph(seed=7, nodes=60, edges=240):
    rng = random.Random(seed)
    edge_rows = sorted({(rng.randrange(nodes), rng.randrange(nodes))
                        for _ in range(edges)})
    node_ids = sorted({u for u, _ in edge_rows}
                      | {v for _, v in edge_rows})
    return edge_rows, node_ids


def _engine(parallel, storage=None, dialect="oracle"):
    edge_rows, node_ids = _graph()
    engine = Engine(dialect, storage=storage, parallel=parallel)
    engine.database.load_edge_table(
        "E", [(u, v, 1.0) for u, v in edge_rows])
    engine.database.load_node_table("V", [(n, 1.0) for n in node_ids])
    return engine


PAGERANK = """with P(ID, val) as (
  (select ID, 1.0 as val from V)
  union by update ID
  (select E.T, 0.2 + 0.8 * sum(P.val * E.ew)
   from P, E where P.ID = E.F group by E.T)
  maxrecursion 15
) select ID, val from P"""

WCC = """with C(ID, comp) as (
  (select ID, ID as comp from V)
  union by update ID
  (select X.ID, min(X.comp) from (
      select E.T as ID, C.comp as comp from C, E where C.ID = E.F
      union all
      select ID, comp from C
   ) as X group by X.ID)
  maxrecursion 100
) select ID, comp from C"""

SSSP = """with D(ID, dist) as (
  (select ID, case when ID = 1 then 0.0 else 1e18 end as dist from V)
  union by update ID
  (select X.ID, min(X.dist) from (
      select E.T as ID, D.dist + E.ew as dist from D, E
      where D.ID = E.F
      union all
      select ID, dist from D
   ) as X group by X.ID)
  maxrecursion 100
) select ID, dist from D"""


@pytest.mark.parametrize("nworkers", [2, 4])
@pytest.mark.parametrize("storage", ["rows", "columnar"])
@pytest.mark.parametrize("query", [PAGERANK, WCC, SSSP],
                         ids=["pagerank", "wcc", "sssp"])
def test_fixpoint_byte_identical_to_serial(query, storage, nworkers):
    serial = _engine(0, storage).execute_detailed(query)
    engine = _engine(nworkers, storage)
    parallel = engine.execute_detailed(query)
    assert pickle.dumps(parallel.relation.rows) == \
        pickle.dumps(serial.relation.rows)
    assert parallel.iterations == serial.iterations
    pool = engine._parallel_pool
    assert pool is not None, "pool never engaged"
    assert pool.health()["jobs"].get("fix_iter", 0) > 0


def test_iteration_stats_match_serial():
    serial = _engine(0).execute_detailed(PAGERANK)
    parallel = _engine(2).execute_detailed(PAGERANK)
    for ours, theirs in zip(parallel.per_iteration, serial.per_iteration):
        assert (ours.iteration, ours.delta_rows, ours.total_rows,
                ours.inserted, ours.overwritten, ours.pruned) == \
            (theirs.iteration, theirs.delta_rows, theirs.total_rows,
             theirs.inserted, theirs.overwritten, theirs.pruned)


def test_maxrecursion_error_matches_serial(monkeypatch):
    # val grows by 1 every iteration, so without a maxrecursion clause
    # the default cap must fire — shrunk to 8 here to keep the test fast
    # (both the serial loop and the parallel driver read the module
    # global at run time).
    monkeypatch.setattr(
        "repro.relational.recursive.DEFAULT_RECURSION_CAP", 8)
    monkeypatch.setattr(
        "repro.relational.parallel.fixpoint.DEFAULT_RECURSION_CAP", 8)
    query = """with P(ID, val) as (
      (select ID, 1.0 as val from V)
      union by update ID
      (select E.T, max(P.val) + 1.0
       from P, E where P.ID = E.F group by E.T)
    ) select ID, val from P"""
    try:
        _engine(0).execute_detailed(query)
        raised = None
    except RelationalError as exc:
        raised = (type(exc), str(exc))
    assert raised is not None
    with pytest.raises(raised[0]) as info:
        _engine(2).execute_detailed(query)
    assert str(info.value) == raised[1]


def test_semantic_error_replayed_serially():
    # val goes 2.5 → 2.0 → division by zero on iteration 2, i.e. the
    # error strikes mid-flight with workers already holding replicas:
    # the parallel run must surface the exact serial exception type and
    # message (via the serial replay of the failing iteration).
    query = """with P(ID, val) as (
      (select ID, 2.5 as val from V)
      union by update ID
      (select E.T, min(1.0 / (P.val - 2.0))
       from P, E where P.ID = E.F group by E.T)
      maxrecursion 10
    ) select ID, val from P"""
    try:
        _engine(0).execute_detailed(query)
        serial_error = None
    except Exception as exc:  # noqa: BLE001 — capture whatever serial does
        serial_error = (type(exc), str(exc))
    if serial_error is None:
        pytest.skip("division never reached zero serially")
    with pytest.raises(serial_error[0]) as info:
        _engine(2).execute_detailed(query)
    assert str(info.value) == serial_error[1]


def test_ineligible_shapes_fall_back_silently():
    # UNION ALL recursion (no update key) is outside the parallel shape;
    # under strict mode it must still run — serially — with identical
    # results.
    query = """with TC(F, T) as (
      (select F, T from E)
      union all
      (select TC.F, E.T from TC, E where TC.T = E.F and TC.F < 3)
      maxrecursion 3
    ) select F, T from TC"""
    serial = _engine(0).execute_detailed(query)
    engine = _engine(2)
    parallel = engine.execute_detailed(query)
    assert pickle.dumps(parallel.relation.rows) == \
        pickle.dumps(serial.relation.rows)


def test_update_from_strategy_identical():
    serial = _engine(0, dialect="postgres")
    serial.union_by_update_strategy = "update_from"
    expected = serial.execute_detailed(PAGERANK)
    engine = _engine(2, dialect="postgres")
    engine.union_by_update_strategy = "update_from"
    got = engine.execute_detailed(PAGERANK)
    assert pickle.dumps(got.relation.rows) == \
        pickle.dumps(expected.relation.rows)
    assert got.iterations == expected.iterations


def test_rand_in_branch_stays_serial():
    # Nondeterministic expressions must not be shipped to workers; the
    # engine falls back and the query still completes.
    query = """with P(ID, val) as (
      (select ID, 1.0 as val from V)
      union by update ID
      (select P.ID, max(P.val - 1.0)
       from P where rand() >= 0.0 group by P.ID)
      maxrecursion 3
    ) select ID, val from P"""
    engine = _engine(2)
    result = engine.execute_detailed(query)
    pool = engine._parallel_pool
    jobs = pool.health()["jobs"] if pool is not None else {}
    assert jobs.get("fix_iter", 0) == 0
    assert len(result.relation.rows) > 0
