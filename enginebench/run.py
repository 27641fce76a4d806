"""The benchmark command.

    python3 enginebench/run.py --workload macro-fixpoint --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout: the engine is imported from
``src/``.  One process, one client, closed loop — the next op is sent only
after the previous one returned.  With ``--trace 0`` the run reports the
end-to-end metrics: ``setup_s`` (median of several set-ups), ``op_ms_p50``
/ ``op_ms_tail`` / ``ops_per_s`` over the workload's primary op (one
``execute_detailed`` with+ statement; one ``apply_batch`` including view
maintenance on ``ingest-mixed``), ``query_ms_p50`` / ``query_ms_tail`` over
every client ``execute_detailed`` (the with+ statements; the interleaved
reads on ``ingest-mixed``) and ``peak_rss_mb``.  ``*_tail`` is the highest
percentile with at least ten samples beyond it in the shortest run the
workload allows; it is printed with its percentile and sample count.  ``failed_ratio`` is printed beside them and
carried by the result's ``attempted``/``failed`` counts.

Every time in those metrics is scaled to one reference host speed by
:mod:`enginebench.hostspeed`, which times a fixed pure-Python kernel
shortly before each op and set-up; the raw wall-clock medians and the
host's speed factor are printed beside them.

With ``--trace 1`` the run first runs a quarter of ``--seconds`` untraced,
then replays the same ops with the layer probes of
:mod:`enginebench.layers` installed, and reports per-layer self times and counts, ``unattributed_ms`` and
``trace.overhead_ratio``.  The spans go to
``enginebench/traces/<workload>-seed<n>.json`` (Chrome trace events).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Engine knobs read back from every engine and printed with the result.
ENGINE_KNOBS = ("executor", "storage", "optimizer", "parallel")


def pin_environment() -> None:
    """Every engine runs with the library defaults: drop ``REPRO_*``."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def tail_percentile(fewest: int) -> float:
    """The highest percentile with at least ten samples beyond it in a
    run of *fewest* samples (100 when there are too few, and never below
    the median).

    *fewest* is the sample count of the shortest run the workload allows,
    not of this run: a faster engine completes more rounds, and the tail
    must stay the same percentile for runs to stay comparable."""
    if fewest <= 10:
        return 100.0
    return max(50.0, 100.0 * (fewest - 11) / (fewest - 1))


def percentile(samples: list[float], pct: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def engine_config(engine) -> dict:
    config = {knob: getattr(engine, knob, "n/a") for knob in ENGINE_KNOBS}
    tracer = getattr(getattr(engine, "telemetry", None), "tracer", None)
    config["telemetry"] = ("on" if getattr(tracer, "enabled", False)
                           else "off")
    config["dialect"] = getattr(getattr(engine, "dialect", None), "name",
                                "n/a")
    return config


def host_fingerprint() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def resident_bytes(engines) -> int:
    total = 0
    for engine in engines:
        for table in engine.database.all_tables():
            size = getattr(table.rows, "size_bytes", None)
            total += size() if size is not None else 0
    return total


class Runner:
    """Set-up and the closed measurement loop for one workload."""

    def __init__(self, workload, seconds: float, min_rounds: int = 1):
        from enginebench.hostspeed import HostSpeed

        self.workload = workload
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.attempted = 0
        self.failures: list[str] = []
        self.host = HostSpeed()

    def timed_setup(self) -> float:
        """One set-up; returns its wall seconds (``host`` holds the
        calibration taken just before it)."""
        self.workload.prepare()
        gc.collect()
        self.host.calibrate(force=True)
        started = time.perf_counter()
        self.workload.setup()
        return time.perf_counter() - started

    def _fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")
        if len(self.failures) <= 5:
            print(f"FAILED {label}: {reason}", file=sys.stderr)

    def run_op(self, op, around=None) -> float:
        """Run one op; returns its wall seconds.  *around* (the traced
        run's probe switch) wraps the engine call only; the oracle check
        runs after the clock stops."""
        self.attempted += 1
        self.host.calibrate()
        with around(op.label) if around else contextlib.nullcontext():
            started = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # the loop must go on: count it, report it
                elapsed = time.perf_counter() - started
                self._fail(op.label, traceback.format_exc(limit=3).strip())
                return elapsed
            elapsed = time.perf_counter() - started
        problem = op.check(result)
        if problem is not None:
            self._fail(op.label, problem)
        return elapsed

    def measure(self, max_ops: int | None = None, around=None):
        """Run ops until ``seconds`` of op wall time have passed and at
        least ``min_rounds`` rounds of the rotation are complete (or until
        *max_ops* ops ran).  Returns (ops, busy seconds) where *ops* holds
        ``(op, seconds, reference seconds)`` triples, the last scaled to
        the reference host speed; *around* wraps each op (trace spans)."""
        ops = self.workload.ops()
        done: list[tuple[object, float, float]] = []
        busy = 0.0
        rounds = 0
        while True:
            if max_ops is None:
                if busy >= self.seconds and rounds >= self.min_rounds \
                        and done[-1][0].ends_round:
                    break
            elif len(done) >= max_ops:
                break
            op = next(ops)
            elapsed = self.run_op(op, around)
            busy += elapsed
            rounds += op.ends_round
            done.append((op, elapsed, self.host.scale(elapsed)))
        return done, busy

    def final_check(self) -> None:
        for problem in self.workload.final_check():
            self._fail("final", problem)


def end_to_end(runner: Runner, setups: list[tuple[float, float]], done,
               busy: float):
    """The end-to-end metrics, times at the reference host speed;
    *setups* holds (wall, reference) seconds per set-up."""
    op_ms = [ref * 1000.0 for op, _, ref in done if op.primary]
    query_ms = [ref * 1000.0 for op, _, ref in done if op.query]
    raw_op_ms = [s * 1000.0 for op, s, _ in done if op.primary]
    raw_query_ms = [s * 1000.0 for op, s, _ in done if op.query]
    ref_busy = sum(ref for _, _, ref in done)
    first_round = next(i for i, (op, _, _) in enumerate(done)
                       if op.ends_round)
    per_round = done[:first_round + 1]
    op_pct = tail_percentile(
        runner.min_rounds * sum(op.primary for op, _, _ in per_round))
    query_pct = tail_percentile(
        runner.min_rounds * sum(op.query for op, _, _ in per_round))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(ref for _, ref in setups), "s",
                    f"median of {len(setups)} set-ups; wall "
                    f"{statistics.median(s for s, _ in setups):.4f} s"),
        "op_ms_p50": (statistics.median(op_ms), "ms",
                      f"n={len(op_ms)}; wall "
                      f"{statistics.median(raw_op_ms):.2f} ms"),
        "op_ms_tail": (percentile(op_ms, op_pct), "ms",
                       f"p{op_pct:.1f} of n={len(op_ms)}; wall "
                       f"{percentile(raw_op_ms, op_pct):.2f} ms"),
        "ops_per_s": (len(op_ms) / ref_busy, "1/s",
                      f"{len(op_ms)} ops in {ref_busy:.3f} s of op time;"
                      f" wall {len(op_ms) / busy:.4f} 1/s"),
        "query_ms_p50": (statistics.median(query_ms), "ms",
                         f"n={len(query_ms)}; wall "
                         f"{statistics.median(raw_query_ms):.2f} ms"),
        "query_ms_tail": (percentile(query_ms, query_pct), "ms",
                          f"p{query_pct:.1f} of n={len(query_ms)}; wall "
                          f"{percentile(raw_query_ms, query_pct):.2f} ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "process peak"),
    }


def traced(runner: Runner, trace_path: pathlib.Path):
    """Untraced replay, then the same ops traced; per-layer metrics."""
    from enginebench.layers import LayerTrace

    workload = runner.workload
    # Untraced stretch: a quarter of the run, with its own set-up.
    plain = Runner(workload, runner.seconds / 4.0)
    untraced_setup = plain.timed_setup()
    done, busy = plain.measure()
    untraced_wall = untraced_setup + busy
    runner.attempted += plain.attempted
    runner.failures.extend(plain.failures)

    trace = LayerTrace()
    trace.install()
    try:
        workload.prepare()
        gc.collect()
        with trace.activated("setup"):
            started = time.perf_counter()
            workload.setup()
            traced_setup = time.perf_counter() - started
        _, traced_busy = runner.measure(
            max_ops=len(done), around=lambda label: trace.activated(
                f"op:{label}"))
    finally:
        trace.uninstall()
    traced_wall = traced_setup + traced_busy
    metrics = trace.metrics(traced_wall, untraced_wall,
                            resident_bytes(workload.engines()))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace.tracer.export_chrome(str(trace_path))
    return metrics, trace.layer_table(traced_wall), traced_wall


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("macro-fixpoint", "paper-matrix",
                                 "ingest-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs, for the benchmark's self-tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one PageRank result (self-test of"
                             " the oracle)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"enginebench: no engine sources under {ROOT / 'src'};"
              " run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from enginebench.hostspeed import REFERENCE_MS
    from enginebench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, small=args.small,
                                        inject_fault=args.inject_fault)
    runner = Runner(workload, args.seconds,
                    min_rounds=1 if args.small else workload.MIN_ROUNDS)
    if args.trace:
        trace_path = ROOT / "enginebench" / "traces" / \
            f"{args.workload}-seed{args.seed}.json"
        metrics, table, wall = traced(runner, trace_path)
        rows = [(name, value, unit, "") for name, (value, unit)
                in metrics.items()]
    else:
        setups = []
        for _ in range(workload.SETUPS):
            wall = runner.timed_setup()
            setups.append((wall, runner.host.scale(wall)))
        done, busy = runner.measure()
        metrics = end_to_end(runner, setups, done, busy)
        rows = [(name, value, unit, detail) for name, (value, unit, detail)
                in metrics.items()]
    runner.final_check()

    failed = len(runner.failures)
    configs = sorted({json.dumps(engine_config(engine), sort_keys=True)
                      for engine in workload.engines()})
    print(f"workload {args.workload}  seed {args.seed}"
          f"  seconds {args.seconds:g}  trace {args.trace}")
    for config in configs:
        print("engine   " + config)
    print("host     " + json.dumps(host_fingerprint(), sort_keys=True))
    kernel_ms = statistics.median(runner.host.samples)
    print(f"speed    calibration kernel median {kernel_ms:.3f} ms over"
          f" {len(runner.host.samples)} calibrations; times below are"
          f" scaled to {REFERENCE_MS:g} ms"
          + (" (trace.overhead_ratio is wall over wall)" if args.trace
             else ""))
    print(f"{'metric':34} {'value':>16}  {'unit':6} detail")
    for name, value, unit, detail in rows:
        print(f"{name:34} {value:16.4f}  {unit:6} {detail}")
    print(f"{'failed_ratio':34} {failed / max(runner.attempted, 1):16.4f}"
          f"  {'ratio':6} {failed} of {runner.attempted} ops")
    if args.trace:
        print(f"\nper-layer self time (sums to traced wall {wall * 1000:.1f}"
              " ms); spans in " + str(trace_path.relative_to(ROOT)))
        for layer, ms in table:
            print(f"  {layer:16} {ms:12.1f} ms {100 * ms / (wall * 1000):6.1f}%")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
