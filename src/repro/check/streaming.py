"""The incremental-vs-full streaming oracle (``repro fuzz --streaming``).

The streaming subsystem's contract is *byte-identity*: after every
mutation batch, each maintained view (PageRank trajectory, WCC labels,
SSSP distances) must equal a cold from-scratch derivation on a fresh
engine over the same mutated graph — same keys, same ``repr`` of every
value, so float bit-patterns (``-0.0`` included) count.  This module
turns that contract into a seeded campaign:

* **graph scenarios** — a random directed graph plus a random sequence
  of batches (edge inserts/deletes, weight updates, vertex
  inserts/deletes), applied through :meth:`StreamingManager.apply_batch`
  with all three views registered.  After each batch every view is
  diffed against the cold run, and the relational mirror ``E`` is
  diffed (multiset) against a fresh load of the mutated graph;
* **table scenarios** — batches over a plain keyed table; the post-batch
  table contents must equal the independently-maintained reference
  multiset;
* **rejection probes** — invalid batches (missing-edge deletes,
  duplicate-vertex inserts) must raise :class:`StreamingError` and leave
  both the graph and the views untouched.

Divergences are written as pytest reproducers that regenerate the
scenario from its seed and re-run the check.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.graphsystems.graph import Graph
from repro.relational import Engine
from repro.streaming import StreamingError


@dataclass
class StreamingScenario:
    """One seeded streaming campaign unit — fully reproducible."""

    seed: int
    kind: str                       # "graph" | "table"
    storage: str = "rows"
    parallel: int = 0
    #: graph kind: initial vertices 0..nodes-1, initial (u, v, w) edges,
    #: then per-batch mutations.
    nodes: int = 0
    edges: tuple = ()
    batches: tuple = ()             # ((inserts, deletes), ...)
    sssp_source: int = 0
    iterations: int = 6
    probe_rejection: bool = False
    #: table kind: (rows, batches) over TBL(K int primary key, A int).
    table_rows: tuple = ()

    def label(self) -> str:
        par = f" parallel={self.parallel}" if self.parallel else ""
        return (f"seed={self.seed} kind={self.kind}"
                f" storage={self.storage}{par}"
                f" batches={len(self.batches)}")


@dataclass
class StreamingDivergence:
    scenario: StreamingScenario
    detail: str
    regression_path: str | None = None

    def summary(self) -> str:
        return (f"seed {self.scenario.seed} [streaming]"
                f" {self.detail.splitlines()[0]}")


@dataclass
class StreamingReport:
    seed: int
    budget: int
    scenarios: int = 0
    graph_count: int = 0
    table_count: int = 0
    batch_count: int = 0
    incremental_refreshes: int = 0
    full_refreshes: int = 0
    divergences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = [
            f"fuzz --streaming: seed={self.seed} budget={self.budget}"
            f" ran={self.scenarios}"
            f" (graph={self.graph_count}, table={self.table_count},"
            f" batches={self.batch_count},"
            f" incremental={self.incremental_refreshes},"
            f" full={self.full_refreshes})",
        ]
        if self.ok:
            lines.append("no divergences")
        for divergence in self.divergences:
            lines.append("DIVERGENCE " + divergence.summary())
            if divergence.regression_path:
                lines.append(f"  reproducer: {divergence.regression_path}")
        return "\n".join(lines)


# -- generation ---------------------------------------------------------------

_WEIGHTS = (1.0, 1.0, 1.0, 2.0, 0.5)


def generate_streaming_scenario(seed: int) -> StreamingScenario:
    """A deterministic scenario for *seed* — batches are simulated
    against a shadow graph so every delete targets a live edge/vertex."""
    rng = random.Random(seed)
    if rng.random() < 0.25:
        return _generate_table_scenario(seed, rng)
    return _generate_graph_scenario(seed, rng)


def _engine_knobs(rng: random.Random) -> dict:
    return {
        "storage": rng.choice(("rows", "rows", "columnar")),
        "parallel": 2 if rng.random() < 0.08 else 0,
    }


def _generate_graph_scenario(seed: int,
                             rng: random.Random) -> StreamingScenario:
    n = rng.randint(4, 10)
    weighted = rng.random() < 0.3
    shadow = Graph(directed=True, name=f"fuzz-{seed}")
    for v in range(n):
        shadow.add_node(v)
    edges = []
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if shadow.has_edge(u, v):
            continue
        w = rng.choice(_WEIGHTS) if weighted else 1.0
        shadow.add_edge(u, v, w)
        edges.append((u, v, w))
    next_vertex = n
    batches = []
    for _ in range(rng.randint(2, 5)):
        inserts: dict = {}
        deletes: dict = {}
        for _ in range(rng.randint(1, 4)):
            live_edges = list(shadow.weighted_edges())
            move = rng.random()
            if move < 0.40 or not live_edges:
                # insert a new or reweighted edge
                u = rng.choice(list(shadow.nodes()))
                v = rng.choice(list(shadow.nodes()))
                w = rng.choice(_WEIGHTS) if weighted else 1.0
                if shadow.has_edge(u, v):
                    shadow.remove_edge(u, v)
                shadow.add_edge(u, v, w)
                inserts.setdefault("E", []).append((u, v, w))
            elif move < 0.70:
                u, v, _ = rng.choice(live_edges)
                pending = inserts.get("E", [])
                if any(p[0] == u and p[1] == v for p in pending):
                    continue
                shadow.remove_edge(u, v)
                deletes.setdefault("E", []).append((u, v))
            elif move < 0.85 and shadow.num_nodes > 3:
                z = rng.choice(list(shadow.nodes()))
                # Deletes run before inserts inside a batch, so a vertex
                # (or edge endpoint) introduced earlier in this batch is
                # not yet deletable.
                pending = (inserts.get("E", []) + deletes.get("E", [])
                           + inserts.get("V", []))
                if any(z in p[:2] for p in pending):
                    continue
                shadow.remove_node(z)
                deletes.setdefault("V", []).append((z,))
            else:
                z = next_vertex
                next_vertex += 1
                shadow.add_node(z)
                inserts.setdefault("V", []).append((z,))
        if inserts or deletes:
            batches.append((
                {k: tuple(v) for k, v in inserts.items()},
                {k: tuple(v) for k, v in deletes.items()}))
    return StreamingScenario(
        seed=seed, kind="graph", nodes=n, edges=tuple(edges),
        batches=tuple(batches), sssp_source=rng.randrange(n),
        iterations=rng.randint(3, 8),
        probe_rejection=rng.random() < 0.3,
        **_engine_knobs(rng))


def _generate_table_scenario(seed: int,
                             rng: random.Random) -> StreamingScenario:
    rows = []
    keys = list(range(rng.randint(3, 8)))
    for key in keys:
        rows.append((key, rng.randint(0, 9)))
    live = set(keys)
    next_key = len(keys)
    batches = []
    for _ in range(rng.randint(2, 4)):
        inserts: dict = {}
        deletes: dict = {}
        for _ in range(rng.randint(1, 3)):
            if live and rng.random() < 0.4:
                key = rng.choice(sorted(live))
                live.discard(key)
                deletes.setdefault("TBL", []).append((key,))
            else:
                key = next_key
                next_key += 1
                live.add(key)
                inserts.setdefault("TBL", []).append(
                    (key, rng.randint(0, 9)))
        batches.append((
            {k: tuple(v) for k, v in inserts.items()},
            {k: tuple(v) for k, v in deletes.items()}))
    return StreamingScenario(
        seed=seed, kind="table", table_rows=tuple(rows),
        batches=tuple(batches), **_engine_knobs(rng))


# -- checking -----------------------------------------------------------------


def _repr_diff(name: str, got: dict, want: dict) -> str | None:
    """First byte-level mismatch between two value dicts, or None."""
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))[:5]
        extra = sorted(set(got) - set(want))[:5]
        return (f"{name}: key sets differ"
                f" (missing {missing}, extra {extra})")
    for key in want:
        if repr(got[key]) != repr(want[key]):
            return (f"{name}: value for {key} diverged —"
                    f" incremental {got[key]!r} vs full {want[key]!r}")
    return None


def _check_graph(scenario: StreamingScenario,
                 report: StreamingReport | None) -> str | None:
    from repro.core.algorithms import bellman_ford, pagerank, wcc

    graph = Graph(directed=True, name=f"fuzz-{scenario.seed}")
    for v in range(scenario.nodes):
        graph.add_node(v)
    for u, v, w in scenario.edges:
        graph.add_edge(u, v, w)
    if not graph.num_nodes:
        return None
    engine = Engine("oracle", storage=scenario.storage,
                    parallel=scenario.parallel or None)
    manager = engine.streaming
    manager.attach_graph(graph)
    source = scenario.sssp_source
    if not graph.has_node(source):
        source = next(iter(graph.nodes()))
    manager.register_view("pr", "pagerank",
                          iterations=scenario.iterations)
    manager.register_view("cc", "wcc")
    manager.register_view("sp", "sssp", source=source)
    for index, (inserts, deletes) in enumerate(scenario.batches):
        inserts = {k: list(v) for k, v in inserts.items()}
        deletes = {k: list(v) for k, v in deletes.items()}
        if scenario.probe_rejection:
            detail = _probe_rejection(manager, index)
            if detail is not None:
                return detail
        result = manager.apply_batch(inserts=inserts, deletes=deletes)
        if report is not None:
            report.batch_count += 1
            for mode in result.views.values():
                if mode == "incremental":
                    report.incremental_refreshes += 1
                else:
                    report.full_refreshes += 1
        if not graph.num_nodes:
            return None

        fresh = Engine("oracle")
        cold_pr = pagerank.run_sql(
            fresh, graph, iterations=scenario.iterations).values
        detail = _repr_diff(f"batch {index} pagerank",
                            manager.views["pr"].values, cold_pr)
        if detail is not None:
            return detail
        fresh = Engine("oracle")
        cold_cc = wcc.run_sql(fresh, graph).values
        detail = _repr_diff(f"batch {index} wcc",
                            manager.views["cc"].values, cold_cc)
        if detail is not None:
            return detail
        if graph.has_node(source):
            fresh = Engine("oracle")
            cold_sp = bellman_ford.run_sql(fresh, graph, source).values
            detail = _repr_diff(f"batch {index} sssp",
                                manager.views["sp"].values, cold_sp)
            if detail is not None:
                return detail

        mirror = Counter(map(tuple,
                             engine.database.table("E").rows))
        truth = Counter(graph.weighted_edges())
        if mirror != truth:
            return (f"batch {index}: edge table desynchronised from"
                    f" the graph — {len(mirror)} mirror row(s) vs"
                    f" {len(truth)} edge(s)")
    return None


def _probe_rejection(manager, index: int) -> str | None:
    """An invalid batch must raise and must not move any state."""
    graph = manager.graph
    before_edges = Counter(graph.weighted_edges())
    before_batches = manager.batches_applied
    missing = (10 ** 6 + index, 10 ** 6 + index + 1)
    try:
        manager.apply_batch(deletes={"E": [missing]})
    except StreamingError:
        pass
    else:
        return (f"batch {index}: deleting missing edge {missing}"
                " did not raise StreamingError")
    if Counter(graph.weighted_edges()) != before_edges:
        return f"batch {index}: rejected batch mutated the graph"
    if manager.batches_applied != before_batches:
        return f"batch {index}: rejected batch advanced the batch count"
    return None


def _check_table(scenario: StreamingScenario) -> str | None:
    from repro.relational.schema import Schema
    from repro.relational.types import SqlType

    engine = Engine("oracle", storage=scenario.storage)
    table = engine.database.create_table(
        "TBL", Schema.of(("K", SqlType.INTEGER), ("A", SqlType.INTEGER),
                         primary_key=("K",)))
    table.insert_many(scenario.table_rows)
    reference = Counter(tuple(map(int, r)) for r in scenario.table_rows)
    for index, (inserts, deletes) in enumerate(scenario.batches):
        for row in deletes.get("TBL", ()):
            for existing in [r for r in reference if r[0] == row[0]]:
                del reference[existing]
        for row in inserts.get("TBL", ()):
            reference[tuple(map(int, row))] += 1
        engine.apply_batch(inserts={k: list(v) for k, v in inserts.items()},
                           deletes={k: list(v) for k, v in deletes.items()})
        got = Counter(engine.execute("select K, A from TBL").rows)
        if got != +reference:
            return (f"batch {index}: table contents diverged —"
                    f" {sorted(got.items())} vs"
                    f" {sorted((+reference).items())}")
    return None


def check_streaming(scenario: StreamingScenario,
                    report: StreamingReport | None = None) -> str | None:
    """Run one scenario; returns the first divergence detail or None."""
    if scenario.kind == "table":
        return _check_table(scenario)
    return _check_graph(scenario, report)


# -- campaign -----------------------------------------------------------------

_HEADER = '''\
"""Reproducer generated by `repro fuzz --streaming` (seed {seed}).

Scenario: {label}
Original divergence:
    {detail}
"""
'''


def write_streaming_regression(divergence: StreamingDivergence,
                               directory: str) -> str:
    """A pytest file that regenerates the scenario from its seed and
    re-runs the incremental-vs-full check."""
    scenario = divergence.scenario
    os.makedirs(directory, exist_ok=True)
    init = os.path.join(directory, "__init__.py")
    if not os.path.exists(init):
        with open(init, "w", encoding="utf-8") as handle:
            handle.write('"""Fuzzer-found minimized reproducers."""\n')
    path = os.path.join(directory,
                        f"test_streaming_{scenario.seed}.py")
    body = (
        "from repro.check.streaming import (check_streaming,\n"
        "                                   generate_streaming_scenario)\n"
        "\n"
        "\n"
        f"def test_streaming_{scenario.seed}():\n"
        f"    scenario = generate_streaming_scenario({scenario.seed})\n"
        "    detail = check_streaming(scenario)\n"
        "    assert detail is None, detail\n"
    )
    header = _HEADER.format(
        seed=scenario.seed, label=scenario.label(),
        detail=divergence.detail.replace("\n", "\n    "))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n" + body)
    return path


def fuzz_streaming(seed: int, budget: int,
                   regressions_dir: str | None = None,
                   on_progress=None) -> StreamingReport:
    """Run *budget* streaming scenarios derived from *seed*."""
    report = StreamingReport(seed=seed, budget=budget)
    for index in range(budget):
        scenario = generate_streaming_scenario(seed * 1_000_003 + index)
        report.scenarios += 1
        if scenario.kind == "graph":
            report.graph_count += 1
        else:
            report.table_count += 1
            report.batch_count += len(scenario.batches)
        try:
            detail = check_streaming(scenario, report)
        except Exception as exc:  # noqa: BLE001 — a crash is a finding
            detail = (f"crash {type(exc).__name__}: {exc}")
        if detail is not None:
            divergence = StreamingDivergence(scenario, detail)
            if regressions_dir is not None:
                divergence.regression_path = write_streaming_regression(
                    divergence, regressions_dir)
            report.divergences.append(divergence)
        if on_progress is not None:
            on_progress(index + 1, report)
    return report
