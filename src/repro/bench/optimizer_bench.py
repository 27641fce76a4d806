"""Cost-based optimizer on/off benchmark (PR, WCC, SSSP, 4-way join).

Runs the three recursive workloads plus a 4-way equi-join chain with the
dialect's modelled planner (``optimizer="off"``) and with the cost-based
optimizer (``optimizer="cost"``), checks result identity, and writes a
machine-readable ``BENCH_optimizer.json`` so the perf trajectory is
tracked across PRs.

Run directly (``python -m repro.bench.optimizer_bench``) or through the
pytest wrapper ``benchmarks/bench_optimizer.py``; ``REPRO_BENCH_SCALE``
controls the graph size as for every other bench.
"""

from __future__ import annotations

import gc
import json
import math
import pathlib
from typing import Any, Callable

from repro.core.algorithms import bellman_ford, pagerank, wcc
from repro.core.algorithms.common import load_graph
from repro.datasets import preferential_attachment
from repro.graphsystems.graph import Graph

from .harness import BENCH_SCALE, fresh_engine, phase_breakdown, time_call

#: Nodes at scale 1.0; average out-degree of the generated graph.
BASE_NODES = 1500
DEGREE = 3.0

OPTIMIZER_MODES = ("off", "cost")

_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_REPORT = (_ROOT if (_ROOT / "pyproject.toml").exists()
                  else pathlib.Path.cwd()) / "BENCH_optimizer.json"


def _four_way_sql(graph: Graph) -> str:
    limit = max(graph.num_nodes // 10, 2)
    return ("select count(*) as paths from E as A, E as B, E as C, V"
            " where A.T = B.F and B.T = C.F and C.T = V.ID"
            f" and V.ID < {limit}")


def _workloads(graph: Graph) -> list[tuple[str, Callable]]:
    """Each entry maps an engine to a zero-arg timed callable returning
    the workload's comparable result value."""

    def algo(fn: Callable) -> Callable:
        def make(engine):
            return lambda: fn(engine).values

        return make

    def four_way(engine):
        # Table loading happens outside the timed region: the 4-way join
        # measures planning quality (pushdown + join order), not inserts.
        load_graph(engine, graph)
        sql = _four_way_sql(graph)
        return lambda: engine.execute(sql).rows

    return [
        ("PR", algo(lambda e: pagerank.run_sql(e, graph))),
        ("WCC", algo(lambda e: wcc.run_sql(e, graph))),
        ("SSSP", algo(lambda e: bellman_ford.run_sql(e, graph, 0))),
        ("4-way-join", four_way),
    ]


def run_optimizer_bench(scale: float | None = None,
                        dialect: str = "oracle",
                        repeats: int = 5) -> dict[str, Any]:
    """Time each workload with the optimizer off and on; returns the report.

    Each (workload, mode) pair runs *repeats* times on a fresh engine and
    reports the best wall time, with modes interleaved across repeats so
    machine-load drift hits both sides alike and the collector kept out
    of the timed region.
    """
    scale = BENCH_SCALE if scale is None else scale
    n = max(int(BASE_NODES * scale), 40)
    graph = preferential_attachment(n, DEGREE, directed=True, seed=11)
    results: list[dict[str, Any]] = []
    for name, make in _workloads(graph):
        timings = {mode: math.inf for mode in OPTIMIZER_MODES}
        values: dict[str, Any] = {}
        phases: dict[str, dict] = {}
        for _ in range(max(repeats, 1)):
            for mode in OPTIMIZER_MODES:
                engine = fresh_engine(dialect, optimizer=mode)
                timed = make(engine)
                gc.collect()
                gc.disable()
                try:
                    value, seconds = time_call(timed)
                finally:
                    gc.enable()
                if seconds < timings[mode]:
                    timings[mode] = seconds
                    phases[mode] = phase_breakdown(engine)
                values[mode] = value
        timings = {k: v * 1000 for k, v in timings.items()}
        results.append({
            "query": name,
            "off_ms": round(timings["off"], 3),
            "cost_ms": round(timings["cost"], 3),
            "speedup": round(timings["off"] / timings["cost"], 3),
            "identical": values["off"] == values["cost"],
            "phases": phases,
        })
    return {
        "bench": "optimizer",
        "dialect": dialect,
        "scale": scale,
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "results": results,
    }


def write_report(report: dict[str, Any],
                 path: pathlib.Path | str = DEFAULT_REPORT) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main(smoke: bool = False) -> None:  # pragma: no cover - CLI entry
    if smoke:
        report = run_optimizer_bench(scale=0.05, repeats=1)
        print(json.dumps(report, indent=2))
        for entry in report["results"]:
            assert entry["identical"], f"{entry['query']} results diverged"
        return
    report = run_optimizer_bench()
    path = write_report(report)
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    main(smoke="--smoke" in sys.argv[1:])
