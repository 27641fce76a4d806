"""Rows- vs columnar-storage benchmark (graph workloads + microbench).

Two sections, one report (``BENCH_storage.json``):

* **Graph workloads** — PageRank, WCC and SSSP through the SQL front-end
  on each storage backend; ``speedup`` is columnar over rows.
* **Microbench** — scan / filter / aggregate statements over a generated
  edge table, rows vs. columnar, plus resident bytes of each backend (``size_bytes`` is a ``sys.getsizeof`` walk over
  the stored representation).

Run directly (``python -m repro.bench.storage_bench``) or through the
pytest wrapper ``benchmarks/bench_storage.py``; ``REPRO_BENCH_SCALE``
scales the graph as for every other bench.
"""

from __future__ import annotations

import gc
import json
import math
import pathlib
from typing import Any, Callable

from repro.core.algorithms import bellman_ford, pagerank, wcc
from repro.datasets import preferential_attachment
from repro.graphsystems.graph import Graph

from .harness import BENCH_SCALE, fresh_engine, phase_breakdown, time_call

#: Nodes at scale 1.0; average out-degree of the generated graph.  The
#: storage bench uses a larger base graph than the optimizer bench: block
#: effects (sealing, compressed scans, columnar delta merges) only show
#: once tables span multiple 2048-row morsels.
BASE_NODES = 8000
DEGREE = 4.0

#: The measured storage backends; the first is the speedup's baseline.
STORAGES = ("rows", "columnar")

_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_REPORT = (_ROOT if (_ROOT / "pyproject.toml").exists()
                  else pathlib.Path.cwd()) / "BENCH_storage.json"

#: Microbench statements over the edge table E(F, T, ew).
MICRO_QUERIES = (
    ("scan", "select F, T, ew from E"),
    ("filter", "select F, T from E where ew < 0.35 and T > 16"),
    ("aggregate", "select T, count(*) as c, sum(ew) as s, min(F) as lo"
                  " from E group by T"),
)


def _values_identical(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    for key, left in a.items():
        right = b[key]
        if left == right:
            continue
        if isinstance(left, float) and isinstance(right, float) and \
                math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12):
            continue
        return False
    return True


def _workloads(graph: Graph) -> list[tuple[str, Callable]]:
    return [
        ("PR", lambda engine: pagerank.run_sql(engine, graph)),
        ("WCC", lambda engine: wcc.run_sql(engine, graph)),
        ("SSSP", lambda engine: bellman_ford.run_sql(engine, graph, 0)),
    ]


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    gc.collect()
    gc.disable()
    try:
        return time_call(fn)
    finally:
        gc.enable()


def run_graph_workloads(graph: Graph, dialect: str,
                        repeats: int) -> list[dict[str, Any]]:
    results = []
    for name, workload in _workloads(graph):
        timings = {storage: math.inf for storage in STORAGES}
        outcomes: dict[str, Any] = {}
        phases: dict[str, dict] = {}
        # Interleave backends across repeats so machine-load drift hits
        # every side alike; best-of-N wall time per backend.
        for _ in range(max(repeats, 1)):
            for storage in STORAGES:
                engine = fresh_engine(dialect, storage=storage)
                result, seconds = _timed(lambda: workload(engine))
                if seconds < timings[storage]:
                    timings[storage] = seconds
                    phases[storage] = phase_breakdown(engine)
                outcomes[storage] = result
        base = outcomes["rows"]
        identical = all(
            _values_identical(base.values, outcomes[storage].values)
            and base.iterations == outcomes[storage].iterations
            for storage in STORAGES[1:])
        ms = {storage: round(t * 1000, 3) for storage, t in timings.items()}
        results.append({
            "query": name,
            "rows_ms": ms["rows"],
            "columnar_ms": ms["columnar"],
            "speedup": round(ms["rows"] / ms["columnar"], 3),
            "identical": identical,
            "iterations": base.iterations,
            "phases": phases,
        })
    return results


def _micro_engine(storage: str, graph: Graph, dialect: str):
    from repro.core.algorithms import common

    engine = fresh_engine(dialect, storage=storage)
    common.load_graph(engine, graph)
    return engine


def run_microbench(graph: Graph, dialect: str,
                   repeats: int) -> dict[str, Any]:
    engines = {storage: _micro_engine(storage, graph, dialect)
               for storage in STORAGES}
    entries = []
    for name, sql in MICRO_QUERIES:
        timings = {"rows": math.inf, "columnar": math.inf}
        outcomes: dict[str, Any] = {}
        for _ in range(max(repeats, 1)):
            for storage, engine in engines.items():
                relation, seconds = _timed(lambda: engine.execute(sql))
                timings[storage] = min(timings[storage], seconds)
                outcomes[storage] = relation
        from collections import Counter

        identical = (Counter(outcomes["rows"].rows)
                     == Counter(outcomes["columnar"].rows))
        entries.append({
            "query": name,
            "sql": sql,
            "rows_ms": round(timings["rows"] * 1000, 3),
            "columnar_ms": round(timings["columnar"] * 1000, 3),
            "speedup": round(timings["rows"] / timings["columnar"], 3),
            "identical": identical,
        })
    resident = {
        storage: sum(table.rows.size_bytes()
                     for table in engine.database.all_tables())
        for storage, engine in engines.items()}
    compression = {}
    for table in engines["columnar"].database.all_tables():
        summary = getattr(table.rows, "encoding_summary", None)
        if summary:
            compression[table.name] = summary()
    return {
        "queries": entries,
        "resident_bytes": {
            "rows": resident["rows"],
            "columnar": resident["columnar"],
            "ratio": round(resident["rows"] / max(resident["columnar"], 1),
                           3),
        },
        "encodings": compression,
    }


def run_storage_bench(scale: float | None = None, dialect: str = "oracle",
                      repeats: int = 3) -> dict[str, Any]:
    """Full report dict: graph workloads + microbench + resident bytes."""
    scale = BENCH_SCALE if scale is None else scale
    n = max(int(BASE_NODES * scale), 40)
    graph = preferential_attachment(n, DEGREE, directed=True, seed=11)
    return {
        "bench": "storage",
        "dialect": dialect,
        "scale": scale,
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "storages": list(STORAGES),
        "results": run_graph_workloads(graph, dialect, repeats),
        "microbench": run_microbench(graph, dialect, repeats),
    }


def write_report(report: dict[str, Any],
                 path: pathlib.Path | str = DEFAULT_REPORT) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main() -> None:  # pragma: no cover - CLI entry
    report = run_storage_bench()
    path = write_report(report)
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
