"""The benchmark's three workloads and their correctness oracles.

Every workload builds its inputs from the seed alone, using only the
``repro.datasets`` generators, and drives ``Engine(dialect)`` with the
library defaults.  A workload is

* ``prepare()`` — untimed per-set-up work on the generated inputs (a fresh
  copy of a graph the run mutates);
* ``setup()`` — the timed set-up: engine creation, graph load, derived
  relations and, on ``ingest-mixed``, the view baselines;
* ``ops()`` — the deterministic op sequence for the state ``setup()``
  left.  Each :class:`Op` carries the engine call (the only timed part)
  and an oracle that checks its result outside the timed region;
* ``final_check()`` — oracle checks that belong after the last op.

Why each workload exists, and the layer it loads:

``macro-fixpoint``
    Four directed preferential-attachment graphs (2,500 nodes, about 6e3
    edges each) are loaded once, each into its own engine with ``S`` and
    ``ES`` derived once; PageRank, WCC and SSSP from seeded sources then
    run on each in a fixed rotation.  Each
    statement compiles once and iterates over deltas of thousands of
    rows, so physical operators, the union-by-update merge and storage
    scans do nearly all the work and parse/plan almost none.  This is
    where executor, storage, vectorisation and parallel changes show.
    (The graphs are smaller than the 5e4 edges first proposed so that a
    run of a few tens of seconds still yields enough statements for a
    tail.)

``paper-matrix``
    The paper's ten Section-7 algorithms (SSSP, WCC, PR, HITS, TS, KC,
    MIS, LP, MNM, KS) under the ``oracle``, ``db2`` and ``postgres``
    profiles on catalog dataset WG (TS on a seeded DAG twin, with one
    anti-join spelling per dialect), inputs loaded once per dialect
    engine.  Many short statements over every operator family
    (anti-join, sort aggregate, merge join on temp tables, nonlinear
    recursion, COMPUTED BY), so per-statement compile and per-iteration
    fixed cost weigh far more than on macro: a macro-only gain that costs
    the paper's own matrix shows up here.

``ingest-mixed``
    Three graphs (1,000 nodes each) are attached, each to its own engine,
    and PageRank, WCC and SSSP views are registered on each; then a seeded
    stream of edge batches follows, rotating over the graphs.  Most
    batches insert a few edges; one batch in three also deletes edges,
    which trips the views' full-refresh cost rule.  Three plain SELECT
    reads over the mutated ``E`` follow every batch: a grouped aggregate,
    a filter and a 2-hop join from a seeded vertex.  Writes sit beside
    reads on one storage layer: tail appends, tombstones, epoch bumps that
    invalidate join-index and statistics caches, and warm-started
    fixpoints with tiny deltas.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.algorithms import (bellman_ford, hits, keyword_search, kcore,
                                   label_propagation, mis, mnm, pagerank,
                                   toposort, wcc)
from repro.core.algorithms.common import (INF, load_graph,
                                          prepare_transition, rows_to_dict)
from repro.core.algorithms.registry import BENCHMARKED, get_algorithm
from repro.datasets import catalog, preferential_attachment, random_dag
from repro.graphsystems.graph import Graph
from repro.relational import Engine
from repro.relational.expressions import set_rng

#: The dialect profile of the single-dialect workloads.
DIALECT = "oracle"
DIALECTS = ("oracle", "db2", "postgres")

#: TopoSort's anti-join spelling per dialect: the three spellings of the
#: paper's Tables 6/7, so the matrix runs every anti-join plan shape.
TS_ANTI_JOIN = {"oracle": "not_in", "db2": "not_exists",
                "postgres": "left_outer_join"}

#: Relative tolerance for float aggregates — the one the tests use.
FLOAT_TOLERANCE = 1e-9


@dataclass
class Op:
    """One client operation: the timed engine call and its oracle.

    ``check`` returns ``None`` when the result is correct and a short
    reason otherwise.  ``primary`` ops feed ``op_ms_*``/``ops_per_s``;
    ``query`` ops (one client ``execute_detailed``) feed ``query_ms_*``.
    A run stops only after an op that ends a round of the workload's
    rotation, so every run measures the same op mix.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    primary: bool = True
    query: bool = True
    ends_round: bool = False


# -- value comparison --------------------------------------------------------


def _same(got: Any, expected: Any) -> bool:
    if isinstance(expected, tuple) or isinstance(got, tuple):
        return (isinstance(got, tuple) and isinstance(expected, tuple)
                and len(got) == len(expected)
                and all(_same(g, e) for g, e in zip(got, expected)))
    if got is None or expected is None:
        return got is expected
    if isinstance(got, bool) or isinstance(expected, bool):
        return got == expected
    if float(got).is_integer() and float(expected).is_integer():
        return got == expected  # integers (and integral floats) exactly
    return abs(got - expected) <= FLOAT_TOLERANCE * max(
        1.0, abs(got), abs(expected))


def compare_values(got: dict, expected: dict) -> str | None:
    """``None`` when *got* matches *expected* key for key; else why not."""
    if got.keys() != expected.keys():
        diff = set(got) ^ set(expected)
        return f"key sets differ in {len(diff)} keys"
    for key, value in expected.items():
        if not _same(got[key], value):
            return f"value of {key!r}: {got[key]!r} != {value!r}"
    return None


def clone_graph(graph: Graph) -> Graph:
    copy = Graph(directed=graph.directed, name=graph.name)
    for v in graph.nodes():
        copy.add_node(v, weight=graph.node_weight(v))
        copy.set_label(v, graph.label(v))
    for u, v, w in graph.weighted_edges():
        copy.add_edge(u, v, w)
    return copy


# -- the workloads -----------------------------------------------------------


class Workload:
    """Base: seeded inputs, timed set-up, op sequence, oracles."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    SETUPS = 5
    #: Rounds of the rotation every full-size run completes, whatever
    #: ``--seconds`` says; the tail percentile is derived from it.
    MIN_ROUNDS = 1

    def __init__(self, seed: int, small: bool = False,
                 inject_fault: bool = False):
        self.seed = seed
        #: Self-test hook: perturb the first PageRank result the oracle
        #: sees, which must then be counted as a failed op.
        self._fault_pending = inject_fault
        self._references: dict[Any, dict] = {}

    def prepare(self) -> None:
        """Untimed work before each ``setup()``."""

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []

    def engines(self) -> list[Engine]:
        raise NotImplementedError

    def _reference(self, key: Any, compute: Callable[[], dict]) -> dict:
        if key not in self._references:
            self._references[key] = compute()
        return self._references[key]

    def _maybe_perturb(self, values: dict) -> dict:
        """Apply the injected fault to one PageRank value set."""
        if not self._fault_pending or not values:
            return values
        self._fault_pending = False
        values = dict(values)
        first = min(values)
        values[first] = values[first] + 1e-3
        return values

    def _statement_op(self, label: str, engine: Engine, sql: str,
                      convert: Callable, reference: Callable[[], dict],
                      before: Callable[[], None] | None = None) -> Op:
        """A with+ statement op whose result is checked against a
        reference value map."""
        def run():
            if before is not None:
                before()
            return engine.execute_detailed(sql)

        def check(result) -> str | None:
            values = convert(result.relation)
            if label.startswith("PR"):
                values = self._maybe_perturb(values)
            return compare_values(values, reference())

        return Op(label, run, check)


def _sssp_values(relation) -> dict:
    return {node: (None if d >= INF else d) for node, d in relation.rows}


def _tuple_values(relation) -> dict:
    return {row[0]: tuple(row[1:]) for row in relation.rows}


def _members(relation) -> dict:
    return {row[0]: True for row in relation.rows}


class MacroFixpoint(Workload):
    name = "macro-fixpoint"
    SETUPS = 9
    MIN_ROUNDS = 3
    #: Graphs per run: each is loaded once into its own engine.  Their
    #: iteration counts differ (WCC and SSSP follow the diameter), so a
    #: run over several graphs measures the profile, not one draw of it.
    GRAPHS = 4
    NODES = 2500
    SMALL_NODES = 300
    DEGREE = 5.0

    def __init__(self, seed: int, small: bool = False,
                 inject_fault: bool = False):
        super().__init__(seed, small, inject_fault)
        nodes = self.SMALL_NODES if small else self.NODES
        seeds = random.Random(seed)
        self.graphs = [preferential_attachment(
            nodes, self.DEGREE, directed=True,
            seed=seeds.randrange(1 << 30)) for _ in range(self.GRAPHS)]
        self.graph_engines: list[Engine] = []

    def setup(self) -> None:
        engines = []
        for graph in self.graphs:
            engine = Engine(DIALECT)
            load_graph(engine, graph)
            prepare_transition(engine)
            wcc.prepare_symmetric_edges(engine)
            engines.append(engine)
        self.graph_engines = engines

    def engines(self) -> list[Engine]:
        return self.graph_engines

    def _graph_ops(self, index: int, source: int) -> list[Op]:
        graph, engine = self.graphs[index], self.graph_engines[index]
        iterations = get_algorithm("PR").bench_kwargs["iterations"]
        ref = self._reference
        return [
            self._statement_op(
                "PR", engine, pagerank.sql(graph.num_nodes,
                                           iterations=iterations),
                rows_to_dict, lambda: ref(("PR", index), lambda: pagerank
                                          .run_reference(
                                              graph, iterations=iterations)
                                          .values)),
            self._statement_op(
                "WCC", engine, wcc.sql(), rows_to_dict,
                lambda: ref(("WCC", index),
                            lambda: wcc.run_reference(graph).values)),
            self._statement_op(
                "SSSP", engine, bellman_ford.sql(source), _sssp_values,
                lambda: ref(("SSSP", index, source), lambda: bellman_ford
                            .run_reference(graph, source).values)),
        ]

    def ops(self) -> Iterator[Op]:
        sources = random.Random(self.seed * 7919 + 1)
        while True:
            for index, graph in enumerate(self.graphs):
                ops = self._graph_ops(index,
                                      sources.randrange(graph.num_nodes))
                ops[-1].ends_round = index == len(self.graphs) - 1
                yield from ops


class PaperMatrix(Workload):
    name = "paper-matrix"
    SETUPS = 9
    MIN_ROUNDS = 2
    SMALL_SCALE = 0.15

    def __init__(self, seed: int, small: bool = False,
                 inject_fault: bool = False):
        super().__init__(seed, small, inject_fault)
        # The paper's named dataset, as the catalog generates it: the seed
        # picks the DAG twin, the SSSP sources and the MIS rng.
        self.graph = catalog.DATASETS["WG"].generate(
            self.SMALL_SCALE if small else 1.0)
        self.dag = random_dag(self.graph.num_nodes,
                              max(self.graph.average_degree / 2.0, 0.5),
                              seed=seed + 3, name="WG-dag")
        #: dialect -> (engine over WG, engine over the DAG twin)
        self.dialect_engines: dict[str, tuple[Engine, Engine]] = {}

    def setup(self) -> None:
        engines = {}
        for dialect in DIALECTS:
            main = Engine(dialect)
            load_graph(main, self.graph)
            prepare_transition(main)
            wcc.prepare_symmetric_edges(main)
            twin = Engine(dialect)
            load_graph(twin, self.dag)
            engines[dialect] = (main, twin)
        self.dialect_engines = engines

    def engines(self) -> list[Engine]:
        return [e for pair in self.dialect_engines.values() for e in pair]

    def _algorithm_op(self, key: str, dialect: str,
                      rng: random.Random) -> Op:
        graph = self.graph
        kwargs = get_algorithm(key).bench_kwargs
        main, twin = self.dialect_engines[dialect]
        label = f"{key}@{dialect}"
        ref = self._reference
        if key == "SSSP":
            source = rng.randrange(graph.num_nodes)
            return self._statement_op(
                label, main, bellman_ford.sql(source), _sssp_values,
                lambda: ref(("SSSP", source), lambda: bellman_ford
                            .run_reference(graph, source).values))
        if key == "MIS":
            mis_seed = rng.randrange(1 << 30)
            return self._statement_op(
                label, main, mis.sql(), rows_to_dict,
                lambda: ref(("MIS", mis_seed), lambda: mis.run_reference(
                    graph, seed=mis_seed).values),
                before=lambda: set_rng(random.Random(mis_seed)))
        if key == "TS":
            return self._statement_op(
                label, twin, toposort.sql_variant(TS_ANTI_JOIN[dialect]),
                rows_to_dict,
                lambda: ref("TS", lambda: toposort.run_reference(
                    self.dag).values))
        statements = {
            "WCC": (lambda: wcc.sql(), rows_to_dict),
            "PR": (lambda: pagerank.sql(graph.num_nodes, **kwargs),
                   rows_to_dict),
            "HITS": (lambda: hits.sql(**kwargs), _tuple_values),
            "KC": (lambda: kcore.sql(**kwargs), _members),
            "LP": (lambda: label_propagation.sql(**kwargs), rows_to_dict),
            "MNM": (lambda: mnm.sql(), rows_to_dict),
            "KS": (lambda: keyword_search.sql(**kwargs), _tuple_values),
        }
        make_sql, convert = statements[key]
        module = get_algorithm(key).module
        return self._statement_op(
            label, main, make_sql(), convert,
            lambda: ref(key, lambda: module.run_reference(
                graph, **kwargs).values))

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed * 7919 + 2)
        cells = [(key, dialect) for key in BENCHMARKED
                 for dialect in DIALECTS]
        while True:
            for key, dialect in cells:
                op = self._algorithm_op(key, dialect, rng)
                op.ends_round = (key, dialect) == cells[-1]
                yield op


class IngestMixed(Workload):
    name = "ingest-mixed"
    SETUPS = 3
    MIN_ROUNDS = 15
    #: Graphs per run, each attached to its own engine with its own views;
    #: batches rotate over them.  One graph's SSSP source eccentricity and
    #: shape set a run's batch and set-up costs by a fifth either way, so
    #: a run over several measures the profile, not one draw of it.
    GRAPHS = 3
    NODES = 1000
    SMALL_NODES = 200
    DEGREE = 4.0
    PR_ITERATIONS = 15
    BATCH_INSERTS = 8
    BATCH_DELETES = 4
    #: One batch per block of this many also deletes edges.  A third of
    #: the batches keeps the tail percentile well inside the delete
    #: batches and the median well inside the insert-only ones.
    DELETE_EVERY = 3
    #: Share of batches after which the views are checked against a cold
    #: reference (and always after the last batch).
    CHECKPOINT_SHARE = 0.25

    READS = {
        "aggregate": "select F, count(*) as c, sum(ew) as s"
                     " from E group by F",
        "filter": "select F, T, ew from E where T = {v}",
        "two_hop": "select a.F, a.T as M, b.T from E a, E b"
                   " where a.T = b.F and a.F = {v}",
    }

    def __init__(self, seed: int, small: bool = False,
                 inject_fault: bool = False):
        super().__init__(seed, small, inject_fault)
        nodes = self.SMALL_NODES if small else self.NODES
        seeds = random.Random(seed)
        self.bases = [preferential_attachment(
            nodes, self.DEGREE, directed=True,
            seed=seeds.randrange(1 << 30)) for _ in range(self.GRAPHS)]
        sources = random.Random(self.seed * 7919 + 3)
        self.sources = [sources.randrange(nodes) for _ in self.bases]
        self.graphs: list[Graph] = []
        self.graph_engines: list[Engine] = []
        #: Per graph, (F, T) -> ew: the plain-Python mirror of its edges.
        self.mirrors: list[dict[tuple[int, int], float]] = []

    def prepare(self) -> None:
        self.graphs = [clone_graph(base) for base in self.bases]
        self.mirrors = [{(u, v): w for u, v, w in base.weighted_edges()}
                        for base in self.bases]

    def setup(self) -> None:
        engines = []
        for graph, source in zip(self.graphs, self.sources):
            engine = Engine(DIALECT)
            manager = engine.streaming
            manager.attach_graph(graph)
            manager.register_view("pr", "pagerank",
                                  iterations=self.PR_ITERATIONS)
            manager.register_view("cc", "wcc")
            manager.register_view("sp", "sssp", source=source)
            engines.append(engine)
        self.graph_engines = engines

    def engines(self) -> list[Engine]:
        return self.graph_engines

    # -- oracles ---------------------------------------------------------------

    def check_views(self, index: int) -> str | None:
        graph, source = self.graphs[index], self.sources[index]
        views = self.graph_engines[index].streaming.views
        expected = {
            "pr": pagerank.run_reference(
                graph, iterations=self.PR_ITERATIONS).values,
            "cc": wcc.run_reference(graph).values,
            "sp": bellman_ford.run_reference(graph, source).values,
        }
        for name, reference in expected.items():
            values = views[name].values
            if name == "pr":
                values = self._maybe_perturb(values)
            problem = compare_values(values, reference)
            if problem is not None:
                return f"graph {index} view {name}: {problem}"
        return None

    def final_check(self) -> list[str]:
        problems = (self.check_views(i) for i in range(len(self.graphs)))
        return [f"after last batch: {problem}" for problem in problems
                if problem is not None]

    def _check_read(self, index: int, kind: str, v: int,
                    rows) -> str | None:
        mirror = self.mirrors[index]
        if kind == "aggregate":
            groups: dict[int, list[float]] = {}
            for (f, _), w in mirror.items():
                groups.setdefault(f, []).append(w)
            expected = {f: (len(ws), sum(ws)) for f, ws in groups.items()}
            got = {row[0]: tuple(row[1:]) for row in rows}
            if len(got) != len(rows):
                return "aggregate read returned a group twice"
            # sum(ew) is a float aggregate: compare_values uses tolerance.
            return compare_values(got, expected)
        if kind == "filter":
            expected = Counter((f, t, w) for (f, t), w in mirror.items()
                               if t == v)
        else:
            out_edges: dict[int, list[int]] = {}
            for f, t in mirror:
                out_edges.setdefault(f, []).append(t)
            expected = Counter((v, t, x) for t in out_edges.get(v, ())
                               for x in out_edges.get(t, ()))
        if Counter(rows) != expected:
            return (f"{kind} read from {v} on graph {index} differs from"
                    " the edge mirror")
        return None

    def _read_op(self, index: int, kind: str, v: int) -> Op:
        engine = self.graph_engines[index]
        sql = self.READS[kind].format(v=v)

        def check(result) -> str | None:
            return self._check_read(index, kind, v, result.relation.rows)

        return Op(f"read:{kind}", lambda: engine.execute_detailed(sql),
                  check, primary=False, query=True)

    def _batch_op(self, index: int, inserts: list[tuple],
                  deletes: list[tuple], checkpoint: bool) -> Op:
        manager = self.graph_engines[index].streaming
        mirror = self.mirrors[index]

        def run():
            return manager.apply_batch(inserts={"E": inserts},
                                       deletes={"E": deletes} if deletes
                                       else None)

        def check(result) -> str | None:
            for u, v in deletes:
                del mirror[(u, v)]
            for u, v, w in inserts:
                mirror[(u, v)] = w
            if result.inserted_rows < len(inserts):
                return "batch inserted fewer edge rows than sent"
            return self.check_views(index) if checkpoint else None

        return Op("batch", run, check, primary=True, query=False)

    def ops(self) -> Iterator[Op]:
        """Batch *b* goes to graph ``b % GRAPHS``; a round ends when both
        the delete block and the graph rotation are complete."""
        rng = random.Random(self.seed * 7919 + 4)
        graphs = len(self.graphs)
        round_batches = math.lcm(graphs, self.DELETE_EVERY)
        batch = 0
        delete_at = 0
        while True:
            index = batch % graphs
            nodes = self.graphs[index].num_nodes
            if batch % self.DELETE_EVERY == 0:
                delete_at = rng.randrange(self.DELETE_EVERY)
            present = self.mirrors[index]
            deletes: list[tuple[int, int]] = []
            if batch % self.DELETE_EVERY == delete_at:
                deletes = rng.sample(sorted(present), self.BATCH_DELETES)
            inserts: list[tuple[int, int, float]] = []
            chosen: set[tuple[int, int]] = set()
            while len(inserts) < self.BATCH_INSERTS:
                u, v = rng.randrange(nodes), rng.randrange(nodes)
                if u == v or (u, v) in present or (u, v) in chosen:
                    continue
                chosen.add((u, v))
                inserts.append((u, v, 1.0))
            checkpoint = rng.random() < self.CHECKPOINT_SHARE
            yield self._batch_op(index, inserts, deletes, checkpoint)
            for kind in self.READS:
                op = self._read_op(index, kind, rng.randrange(nodes))
                op.ends_round = (kind == "two_hop" and batch
                                 % round_batches == round_batches - 1)
                yield op
            batch += 1


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (MacroFixpoint, PaperMatrix, IngestMixed)
}
