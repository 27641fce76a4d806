"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Algorithms (Table 2 classification) and datasets (Table 3 stats).
``run ALGO``
    Run one algorithm on a dataset under a dialect; print timing and a
    sample of the result.
``sql ALGO``
    Print the algorithm's with+ query.
``psm ALGO``
    Print the SQL/PSM procedure Algorithm 1 emits for a dialect.
``query "SELECT ..."``
    Ad-hoc SQL (with+ included) over a loaded dataset's E/V/W/L tables.
``explain "SELECT ..."``
    Physical plan of a non-recursive query under a dialect profile.
``trace ALGO``
    Run one algorithm with tracing on; print the phase breakdown, the
    fixpoint trajectory, and the span tree.  ``--export trace.json``
    writes Chrome trace events (load in ``chrome://tracing`` or Perfetto);
    ``--metrics metrics.prom`` writes the Prometheus text exposition.
``fuzz``
    Differential correctness campaign: generated programs run under the
    full engine-configuration matrix plus metamorphic oracles; failures
    are shrunk to minimal reproducers and written as pytest files.
    ``--streaming`` switches to the incremental-vs-full oracle: random
    mutation batches against maintained PR/WCC/SSSP views.
``ingest BATCHES.jsonl``
    Apply streaming mutation batches from a JSONL file to a loaded
    dataset, maintaining registered algorithm views incrementally
    (``--view pagerank --view sssp:0``); see ``docs/streaming.md``.
``profile ALGO``
    Run one algorithm with continuous profiling on; print the top-K hot
    operators, the aggregated fixpoint profile, and the misestimate
    report.  ``--out stacks.txt`` writes the collapsed-stack flamegraph
    file; ``--store profile.json`` merges into a persistent profile.
``flight list|show|replay``
    Inspect or re-execute flight-recorder bundles (see
    ``Telemetry(flight_dir=...)``).
``serve-metrics``
    Load a dataset, start the live ops HTTP endpoint (``/metrics``,
    ``/healthz``, ``/queries``, ``/profile``, ``/flight``), and serve
    until interrupted.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.bench.reporting import format_table
from repro.core.algorithms import common
from repro.core.algorithms.registry import ALGORITHMS, get_algorithm
from repro.datasets import DATASETS, load, random_dag, table3_row
from repro.relational import Engine


def _sql_text(key: str, graph) -> str:
    """The with+ query for *key*, instantiated for *graph*."""
    info = get_algorithm(key)
    module = info.module
    kwargs = dict(info.bench_kwargs)
    if key == "PR":
        return module.sql(graph.num_nodes, iterations=kwargs["iterations"])
    if key in ("BFS", "SSSP"):
        return module.sql(kwargs.get("source", 0))
    if key == "RWR":
        return module.sql(kwargs["restart_node"],
                          iterations=kwargs["iterations"])
    if key == "KS":
        return module.sql(kwargs["keywords"], kwargs["depth"])
    if key in ("KC", "KT"):
        return module.sql(kwargs["k"])
    if key == "APSP":
        return module.sql(kwargs["depth"])
    if key in ("HITS", "LP", "SR"):
        return module.sql(iterations=kwargs["iterations"])
    if hasattr(module, "sql"):
        return module.sql()
    raise SystemExit(f"{key} has no SQL form (see the registry)")


def _load_for(key: str, args,
              telemetry: str = "off") -> tuple[Engine, object]:
    info = get_algorithm(key)
    graph = load(args.dataset, args.scale)
    if info.needs_dag:
        graph = random_dag(graph.num_nodes,
                           max(graph.average_degree / 2.0, 0.5),
                           seed=1234, name=f"{graph.name}-dag")
    return Engine(args.dialect, telemetry=telemetry,
                  parallel=getattr(args, "parallel", 0) or None), graph


def _resolve_algorithm(token: str) -> str:
    """Accept a registry key (``PR``) or a spelled-out name
    (``pagerank``, ``connected-component``)."""
    if token.upper() in ALGORITHMS:
        return token.upper()
    wanted = token.replace("-", "").replace("_", "").lower()
    for key, info in ALGORITHMS.items():
        if info.name.replace("-", "").replace("_", "").lower() == wanted:
            return key
    raise SystemExit(f"unknown algorithm {token!r};"
                     f" choose from {sorted(ALGORITHMS)}")


def cmd_list(args) -> int:
    rows = [[info.key, info.name, info.aggregate,
             "yes" if info.linear else "no",
             "yes" if info.nonlinear else "no",
             "yes" if info.has_sql else "no"]
            for info in ALGORITHMS.values()]
    print(format_table(
        ["key", "algorithm", "aggregate", "linear", "nonlinear", "sql"],
        rows, "Algorithms (Table 2)"))
    print()
    dataset_rows = [[r["key"], r["dataset"],
                     "yes" if r["directed"] else "no", r["nodes"],
                     r["edges"], r["avg_degree"]]
                    for r in (table3_row(k, args.scale) for k in DATASETS)]
    print(format_table(
        ["key", "dataset", "directed", "|V|", "|E|", "avg deg"],
        dataset_rows, f"Datasets (Table 3, scale={args.scale})"))
    return 0


def cmd_run(args) -> int:
    key = args.algorithm.upper()
    info = get_algorithm(key)
    if not info.has_sql:
        print(f"{key} ships reference/algebra implementations only",
              file=sys.stderr)
        return 2
    engine, graph = _load_for(key, args)
    started = time.perf_counter()
    result = info.run_sql(engine, graph)
    elapsed = time.perf_counter() - started
    print(f"{info.name} on {args.dataset} ({graph.num_nodes} nodes,"
          f" {graph.num_edges} edges) under {args.dialect}:"
          f" {elapsed * 1000:.1f} ms, {result.iterations} iterations")
    sample = list(result.values.items())[:args.limit]
    for item, value in sample:
        print(f"  {item}: {value}")
    if len(result.values) > args.limit:
        print(f"  ... ({len(result.values)} values)")
    return 0


def cmd_sql(args) -> int:
    key = args.algorithm.upper()
    graph = load(args.dataset, args.scale)
    print(_sql_text(key, graph).strip())
    return 0


def cmd_psm(args) -> int:
    key = args.algorithm.upper()
    engine = Engine(args.dialect)
    graph = load(args.dataset, args.scale)
    print(engine.to_psm(_sql_text(key, graph)).render())
    return 0


def cmd_query(args) -> int:
    engine = Engine(args.dialect, parallel=args.parallel or None)
    graph = load(args.dataset, args.scale)
    common.load_graph(engine, graph)
    common.prepare_transition(engine)
    result = engine.execute(args.sql, mode=args.mode)
    print(result.pretty(args.limit))
    return 0


def _print_span(span, depth: int = 0, limit: int = 3) -> None:
    attrs = {k: v for k, v in span.attrs.items() if k != "sql"}
    note = f"  {attrs}" if attrs else ""
    print(f"  {'  ' * depth}{span.name:<24}"
          f" {span.duration * 1000:8.2f} ms{note}")
    shown = span.children[:limit] if depth >= 1 else span.children
    for child in shown:
        _print_span(child, depth + 1, limit)
    if len(span.children) > len(shown):
        print(f"  {'  ' * (depth + 1)}"
              f"... ({len(span.children) - len(shown)} more)")


def cmd_trace(args) -> int:
    key = _resolve_algorithm(args.algorithm)
    info = get_algorithm(key)
    if not info.has_sql:
        print(f"{key} ships reference/algebra implementations only",
              file=sys.stderr)
        return 2
    engine, graph = _load_for(key, args, telemetry="on")
    result = info.run_sql(engine, graph)
    print(f"{info.name} on {args.dataset} ({graph.num_nodes} nodes,"
          f" {graph.num_edges} edges) under {args.dialect}:"
          f" {result.iterations} iterations")

    recursive = [e for e in engine.query_log.entries()
                 if e.kind == "recursive"]
    if recursive:
        entry = max(recursive, key=lambda e: e.total_ms)
        print(format_table(
            ["phase", "ms"],
            [[phase, f"{ms:.2f}"] for phase, ms in entry.phases.items()]
            + [["total", f"{entry.total_ms:.2f}"]],
            "Phase breakdown (slowest recursive statement)"))
        print()

    trajectory = engine.execute(
        "select iteration, delta_rows, total_rows, ms, inserted,"
        " overwritten, pruned, antijoin_pruned from __iterations__")
    rows = [[r[0], r[1], r[2], f"{r[3]:.2f}", r[4], r[5], r[6], r[7]]
            for r in trajectory.rows]
    if len(rows) > args.limit:
        rows = rows[:args.limit] + [["..."] * 8]
    print(format_table(
        ["iter", "delta", "total", "ms", "ins", "overwr", "pruned",
         "aj-pruned"], rows, "Fixpoint trajectory (__iterations__)"))
    print()

    storage_rows = []
    for table in engine.database.all_tables():
        store = table.rows
        row = [table.name, table.storage, len(store),
               table.index_rebuilds, table.incremental_index_ops]
        if hasattr(store, "blocks_sealed"):
            codecs = " ".join(f"{codec}x{count}" for codec, count
                              in sorted(store.encoding_counts.items()))
            row += [store.blocks_sealed, store.block_decays,
                    store.row_assigns, codecs or "-"]
        else:
            row += ["-", "-", "-", "-"]
        storage_rows.append(row)
    print(format_table(
        ["table", "storage", "rows", "rebuilds", "incr-ops", "sealed",
         "decays", "assigns", "codecs"], storage_rows,
        "Storage (per-table maintenance and compression counters)"))
    print()

    if args.parallel and args.parallel >= 2:
        # Workers carry their own telemetry shards, so the traced run
        # above executed on the pool directly — report its health and
        # the per-iteration straggler picture from the same run.
        pool = engine._parallel_pool
        if pool is None:
            print(f"Parallel: requested {args.parallel} workers but the"
                  " query never engaged the pool (shape ineligible)")
        else:
            health = pool.health()
            jobs = " ".join(f"{kind}x{count}" for kind, count
                            in sorted(health["jobs"].items())) or "-"
            busy = " ".join(f"{fraction * 100:.0f}%" for fraction
                            in health["busy_fraction"])
            print(format_table(
                ["workers", "alive", "queue", "sent", "received",
                 "busy", "jobs"],
                [[health["workers"], health["alive"],
                  health["queue_depth"], health["bytes_sent"],
                  health["bytes_received"], busy, jobs]],
                "Parallel (traced run, pool health)"))
            straggler_rows = []
            for stat in result.per_iteration:
                seconds = getattr(stat, "worker_seconds", ())
                if not seconds:
                    continue
                max_ms = max(seconds) * 1000
                median_ms = statistics.median(seconds) * 1000
                wrows = getattr(stat, "worker_rows", ())
                straggler_rows.append([
                    stat.iteration, f"{max_ms:.2f}", f"{median_ms:.2f}",
                    f"{max_ms / median_ms:.2f}" if median_ms else "-",
                    max(wrows) if wrows else "-",
                    int(statistics.median(wrows)) if wrows else "-"])
            if straggler_rows:
                if len(straggler_rows) > args.limit:
                    straggler_rows = (straggler_rows[:args.limit]
                                      + [["..."] * 6])
                print()
                print(format_table(
                    ["iter", "max ms", "median ms", "skew", "max rows",
                     "median rows"], straggler_rows,
                    "Stragglers (per-iteration partition skew)"))
        print()

    print("Spans:")
    for root in engine.tracer.roots:
        _print_span(root)

    if args.export:
        engine.tracer.export_chrome(args.export)
        events = len(engine.tracer.to_chrome_trace()["traceEvents"])
        print(f"\nwrote {events} trace events to {args.export}")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(engine.metrics.to_prometheus())
        print(f"wrote metrics to {args.metrics}")
    return 0


def cmd_explain(args) -> int:
    engine, graph = Engine(args.dialect), load(args.dataset, args.scale)
    common.load_graph(engine, graph)
    common.prepare_transition(engine)
    print(engine.explain(args.sql))
    return 0


def cmd_fuzz(args) -> int:
    if args.streaming:
        return _cmd_fuzz_streaming(args)
    from repro.check import fuzz
    from repro.check.oracles import STRATEGY_DIALECTS, EngineConfig

    matrix = None
    if (args.optimizers or args.telemetry or args.storage
            or args.parallel is not None):
        optimizers = args.optimizers or ["off", "cost"]
        telemetry = args.telemetry or ["off", "on"]
        storages = args.storage or ["rows", "columnar"]
        parallels = args.parallel if args.parallel is not None else [0]
        matrix = tuple(
            EngineConfig(dialect=dialect, optimizer=optimizer,
                         strategy=strategy, telemetry=mode,
                         storage=storage, parallel=parallel)
            for strategy, dialect in STRATEGY_DIALECTS
            for optimizer in optimizers
            for mode in telemetry
            for storage in storages
            for parallel in parallels)
    started = time.perf_counter()
    last_tick = [started]

    def on_progress(done, report):
        now = time.perf_counter()
        if now - last_tick[0] >= 5.0 or done == report.budget:
            last_tick[0] = now
            print(f"  {done}/{report.budget} scenarios,"
                  f" {len(report.divergences)} divergence(s),"
                  f" {now - started:.1f}s", file=sys.stderr)

    report = fuzz(seed=args.seed, budget=args.budget, matrix=matrix,
                  metamorphic=not args.no_metamorphic,
                  regressions_dir=args.regressions_dir,
                  shrink_attempts=args.shrink_attempts,
                  on_progress=on_progress)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_fuzz_streaming(args) -> int:
    from repro.check.streaming import fuzz_streaming

    started = time.perf_counter()
    last_tick = [started]

    def on_progress(done, report):
        now = time.perf_counter()
        if now - last_tick[0] >= 5.0 or done == report.budget:
            last_tick[0] = now
            print(f"  {done}/{report.budget} scenarios,"
                  f" {report.batch_count} batch(es),"
                  f" {len(report.divergences)} divergence(s),"
                  f" {now - started:.1f}s", file=sys.stderr)

    report = fuzz_streaming(seed=args.seed, budget=args.budget,
                            regressions_dir=args.regressions_dir,
                            on_progress=on_progress)
    print(report.render())
    return 0 if report.ok else 1


def cmd_ingest(args) -> int:
    from repro.streaming import read_batches

    batches = read_batches(args.batches)
    engine = Engine(args.dialect, telemetry=args.telemetry,
                    parallel=args.parallel or None)
    graph = load(args.dataset, args.scale)
    manager = engine.streaming
    manager.attach_graph(graph)
    for spec in args.view or []:
        algorithm, _, param = spec.partition(":")
        if algorithm.lower() == "sssp":
            source = int(param) if param else 0
            manager.register_view(spec, algorithm, source=source)
        elif param:
            raise SystemExit(f"view {spec!r}: only sssp takes a"
                             " :source parameter")
        else:
            manager.register_view(spec, algorithm)
    print(f"ingesting {len(batches)} batch(es) from {args.batches}"
          f" into {args.dataset} ({graph.num_nodes} nodes,"
          f" {graph.num_edges} edges), {len(manager.views)} view(s)")

    rows = []
    for inserts, deletes in batches:
        result = engine.apply_batch(inserts=inserts, deletes=deletes)
        modes = " ".join(f"{name}={mode}"
                         for name, mode in result.views.items()) or "-"
        touched = " ".join(
            f"{name}+{c['inserted']}-{c['deleted']}"
            for name, c in sorted(result.tables.items())) or "-"
        rows.append([result.batch, result.inserted_rows,
                     result.deleted_rows, touched, modes,
                     f"{result.duration_ms:.2f}"])
    if rows:
        if len(rows) > args.limit:
            rows = rows[:args.limit] + [["..."] * 6]
        print(format_table(
            ["batch", "ins", "del", "tables", "views", "ms"], rows,
            "Applied batches"))
    print(f"\ngraph now: {graph.num_nodes} nodes, {graph.num_edges} edges")
    for name, view in manager.views.items():
        sample = sorted(view.values.items())[:3]
        shown = ", ".join(f"{k}={v}" for k, v in sample)
        print(f"  view {name} ({view.algorithm}):"
              f" {len(view.values)} value(s), modes"
              f" {'/'.join(view.mode_history) or 'baseline-only'}"
              f" — {shown}")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(engine.metrics.to_prometheus())
        print(f"wrote metrics to {args.metrics}")
    return 0


def cmd_profile(args) -> int:
    from repro.observability import ProfileStore

    key = _resolve_algorithm(args.algorithm)
    info = get_algorithm(key)
    if not info.has_sql:
        print(f"{key} ships reference/algebra implementations only",
              file=sys.stderr)
        return 2
    engine, graph = _load_for(key, args, telemetry="profile")
    result = info.run_sql(engine, graph)
    profiler = engine.telemetry.profiler
    print(f"{info.name} on {args.dataset} ({graph.num_nodes} nodes,"
          f" {graph.num_edges} edges) under {args.dialect}:"
          f" {result.iterations} iterations, {profiler.queries}"
          f" profiled statements")
    print()

    top = profiler.top_operators(args.top)
    print(format_table(
        ["operator", "storage", "self ms", "share", "rows", "calls",
         "~bytes"],
        [[o["operator"], o["storage"], f"{o['seconds'] * 1000:.2f}",
          f"{o['share'] * 100:.1f}%", o["rows"], o["calls"],
          o["bytes_est"]] for o in top],
        f"Top {len(top)} operators by self time"))
    print()

    iterations = profiler.iteration_profile()
    if iterations:
        rows = [[s["iteration"], s["runs"], s["delta_rows"],
                 f"{s['ms']:.2f}", s["inserted"], s["pruned"]]
                for s in iterations[:args.limit]]
        if len(iterations) > args.limit:
            rows.append(["..."] * 6)
        print(format_table(
            ["iter", "runs", "delta", "ms", "ins", "pruned"], rows,
            "Fixpoint profile (aggregated by iteration index)"))
        print()

    misestimates = profiler.misestimate_report(args.top)
    if misestimates:
        print(format_table(
            ["operator", "count", "over", "under", "worst", "detail"],
            [[m["operator"], m["count"], m["over"], m["under"],
              f"{m['worst_ratio']:.2f}x", m["worst_detail"][:40]]
             for m in misestimates],
            "Cardinality misestimates (drift beyond threshold)"))
        print()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(profiler.to_collapsed())
        print(f"wrote collapsed stacks to {args.out}"
              " (flamegraph.pl / speedscope)")
    if args.store:
        store = ProfileStore(args.store)
        store.merge(profiler.to_dict())
        store.save()
        print(f"merged into profile store {args.store}"
              f" ({store.data['queries']} statements total)")
    return 0


def cmd_flight(args) -> int:
    import json as _json

    from repro.observability import (FlightRecorder, load_bundle,
                                     replay_bundle)

    if args.action == "list":
        recorder = FlightRecorder(args.dir)
        bundles = recorder.bundles()
        if not bundles:
            print(f"no bundles in {args.dir}")
            return 0
        rows = []
        for path in bundles:
            bundle = load_bundle(path)
            error = bundle.get("error")
            rows.append([
                path.rsplit("/", 1)[-1], bundle["reason"], bundle["kind"],
                bundle["engine"]["storage"],
                f"{bundle['query']['total_ms']:.1f}",
                error["type"] if error else "-",
                bundle["sql"].strip().splitlines()[0][:40]])
        print(format_table(
            ["bundle", "reason", "kind", "storage", "ms", "error", "sql"],
            rows, f"Flight bundles in {args.dir}"))
        return 0
    if args.action == "show":
        print(_json.dumps(load_bundle(args.bundle), indent=1,
                          default=str))
        return 0
    outcome = replay_bundle(args.bundle)
    print(outcome.render())
    return 0 if outcome.reproduced else 1


def cmd_serve_metrics(args) -> int:
    engine = Engine(args.dialect, telemetry=args.telemetry)
    graph = load(args.dataset, args.scale)
    common.load_graph(engine, graph)
    common.prepare_transition(engine)
    server = engine.serve_metrics(host=args.host, port=args.port)
    print(f"serving {args.dataset} (scale={args.scale}) under"
          f" {args.dialect} at {server.url}")
    print("routes: /metrics /healthz /queries /profile /flight"
          " — ctrl-c to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopping")
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph processing in an RDBMS, revisited (SIGMOD'17"
                    " reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p, dataset=True):
        p.add_argument("--dialect", default="oracle",
                       choices=("oracle", "db2", "postgres"))
        if dataset:
            p.add_argument("--dataset", default="WG",
                           choices=sorted(DATASETS))
        p.add_argument("--scale", type=float, default=0.35)
        p.add_argument("--limit", type=int, default=10)
        p.add_argument("--parallel", type=int, default=0, metavar="N",
                       help="partitioned execution on N worker processes"
                            " (0 = serial; also via REPRO_PARALLEL)")

    p = sub.add_parser("list", help="algorithms and datasets")
    p.add_argument("--scale", type=float, default=0.35)
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("run", help="run an algorithm via its with+ query")
    p.add_argument("algorithm")
    common_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sql", help="print an algorithm's with+ query")
    p.add_argument("algorithm")
    common_flags(p)
    p.set_defaults(fn=cmd_sql)

    p = sub.add_parser("psm", help="print the SQL/PSM translation")
    p.add_argument("algorithm")
    common_flags(p)
    p.set_defaults(fn=cmd_psm)

    p = sub.add_parser("query", help="ad-hoc SQL over a loaded dataset")
    p.add_argument("sql")
    p.add_argument("--mode", default="with+", choices=("with", "with+"))
    common_flags(p)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("explain", help="show the physical plan")
    p.add_argument("sql")
    common_flags(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("trace",
                       help="run an algorithm with tracing enabled")
    p.add_argument("algorithm")
    p.add_argument("--export", metavar="PATH",
                   help="write Chrome trace events (chrome://tracing)")
    p.add_argument("--metrics", metavar="PATH",
                   help="write the Prometheus text exposition")
    common_flags(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("fuzz",
                       help="differential correctness campaign")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--budget", type=int, default=200,
                   help="number of generated scenarios")
    p.add_argument("--optimizers", nargs="*", choices=("off", "cost"),
                   help="restrict the matrix's optimizer axis")
    p.add_argument("--telemetry", nargs="*", choices=("off", "on"),
                   help="restrict the matrix's telemetry axis")
    p.add_argument("--storage", nargs="*", choices=("rows", "columnar"),
                   help="restrict the matrix's storage axis")
    p.add_argument("--parallel", nargs="*", type=int, metavar="N",
                   help="restrict the matrix's parallel axis (worker"
                        " counts; 0 = serial, e.g. --parallel 0 2)")
    p.add_argument("--no-metamorphic", action="store_true",
                   help="config-matrix comparison only")
    p.add_argument("--streaming", action="store_true",
                   help="incremental-vs-full oracle: mutation batches"
                        " against maintained PR/WCC/SSSP views")
    p.add_argument("--regressions-dir", metavar="DIR",
                   help="write minimized reproducers as pytest files"
                        " into DIR")
    p.add_argument("--shrink-attempts", type=int, default=400)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("ingest",
                       help="apply JSONL mutation batches with maintained"
                            " algorithm views")
    p.add_argument("batches", help="JSONL file, one batch object per line"
                                   " (see docs/streaming.md)")
    p.add_argument("--view", action="append", metavar="ALGO",
                   help="maintain an algorithm result across batches:"
                        " pagerank, wcc, or sssp:SOURCE (repeatable)")
    p.add_argument("--telemetry", default="off",
                   choices=("off", "on", "profile", "full"))
    p.add_argument("--metrics", metavar="PATH",
                   help="write the Prometheus text exposition after the run")
    common_flags(p)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("profile",
                       help="run an algorithm with continuous profiling")
    p.add_argument("algorithm")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the hot-operator / misestimate tables")
    p.add_argument("--out", metavar="PATH",
                   help="write the collapsed-stack flamegraph file")
    p.add_argument("--store", metavar="PATH",
                   help="merge into a persistent profile store (JSON)")
    common_flags(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("flight", help="inspect flight-recorder bundles")
    flight_sub = p.add_subparsers(dest="action", required=True)
    fp = flight_sub.add_parser("list", help="list bundles in a directory")
    fp.add_argument("dir")
    fp.set_defaults(fn=cmd_flight)
    fp = flight_sub.add_parser("show", help="dump one bundle as JSON")
    fp.add_argument("bundle")
    fp.set_defaults(fn=cmd_flight)
    fp = flight_sub.add_parser(
        "replay", help="re-execute a bundle and compare the outcome")
    fp.add_argument("bundle")
    fp.set_defaults(fn=cmd_flight)

    p = sub.add_parser("serve-metrics",
                       help="start the live ops HTTP endpoint")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9188)
    p.add_argument("--telemetry", default="profile",
                   choices=("off", "on", "profile", "full"))
    common_flags(p)
    p.set_defaults(fn=cmd_serve_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # output piped into head etc.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
