"""Gather-exchange placement and identity for plain statements."""

import pickle
import random

import pytest

from repro.relational import Engine


@pytest.fixture
def strict(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_STRICT", "1")
    monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "10")


def _engine(parallel, storage=None):
    rng = random.Random(13)
    edge_rows = sorted({(rng.randrange(80), rng.randrange(80))
                        for _ in range(400)})
    engine = Engine("oracle", storage=storage, parallel=parallel)
    engine.database.load_edge_table(
        "E", [(u, v, (u + v) * 0.125) for u, v in edge_rows])
    return engine


QUERIES = [
    "select F, T from E where ew > 2.0",
    "select F, T, ew * 2.0 as w2 from E",
    "select F, count(*) as c from E group by F",
    "select T, min(ew) as m from E where F < 40 group by T",
    "select F, sum(ew) as s, count(*) as c from E group by F",
]


@pytest.mark.usefixtures("strict")
@pytest.mark.parametrize("storage", ["rows", "columnar"])
@pytest.mark.parametrize("query", QUERIES)
def test_plain_queries_identical(query, storage):
    expected = _engine(0, storage).execute(query)
    engine = _engine(2, storage)
    got = engine.execute(query)
    assert pickle.dumps(got.rows) == pickle.dumps(expected.rows)
    assert got.schema.names == expected.schema.names


@pytest.mark.usefixtures("strict")
def test_pool_actually_engaged():
    engine = _engine(2)
    engine.execute(QUERIES[0])  # chain shape
    engine.execute(QUERIES[2])  # aggregate shape
    pool = engine._parallel_pool
    assert pool is not None
    jobs = pool.health()["jobs"]
    assert jobs.get("chain_exec", 0) > 0
    assert jobs.get("agg_exec", 0) > 0


def test_small_inputs_stay_serial(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_STRICT", "1")
    monkeypatch.delenv("REPRO_PARALLEL_MIN_ROWS", raising=False)
    # ~400 rows is far below the 10k default break-even: the cost rule
    # must keep the query serial, so the pool is never even forked.
    engine = _engine(2)
    engine.execute(QUERIES[0])
    assert engine._parallel_pool is None


@pytest.mark.usefixtures("strict")
def test_order_by_falls_back_serially():
    # ORDER BY sits above the chain shape and is not extracted; the
    # query must still answer correctly (serial fallback, no strict
    # failure since shape ineligibility is not an infrastructure error).
    query = "select F, T from E where ew > 2.0 order by F, T"
    expected = _engine(0).execute(query)
    got = _engine(2).execute(query)
    assert pickle.dumps(got.rows) == pickle.dumps(expected.rows)


@pytest.mark.usefixtures("strict")
def test_observe_mode_unaffected():
    # telemetry="on" instruments operators, which forces serial — but
    # results must be identical and nothing may raise under strict.
    engine = Engine("oracle", telemetry="on", parallel=2)
    rng = random.Random(13)
    rows = sorted({(rng.randrange(80), rng.randrange(80))
                   for _ in range(400)})
    engine.database.load_edge_table(
        "E", [(u, v, (u + v) * 0.125) for u, v in rows])
    expected = _engine(0).execute(QUERIES[0])
    got = engine.execute(QUERIES[0])
    assert pickle.dumps(got.rows) == pickle.dumps(expected.rows)
