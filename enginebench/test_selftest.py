"""Self-tests of the benchmark, on its small-input mode.

    python3 -m pytest enginebench

They check the command's contract (every metric named in BENCHMARK.json
is emitted with its unit), that the oracle counts an injected wrong
result as a failed op, that inputs depend on the seed alone, that the
command refuses to run without the engine sources, and how times are
scaled to the reference host speed.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def run_bench(workload: str, *extra: str, cwd: pathlib.Path = ROOT,
              seconds: str = "1"):
    proc = subprocess.run(
        [sys.executable, str(cwd / "enginebench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--small", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and \
        lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc, result = run_bench(workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if section == "end_to_end":
        assert all(v > 0 for v in values)
    else:
        trace_file = ROOT / "enginebench" / "traces" / \
            f"{workload}-seed3.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(e["name"].startswith("op:") for e in events)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_result_counts_as_failed(workload):
    proc, result = run_bench(workload, "--inject-fault")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_traced_layers_and_unattributed_sum_to_wall():
    proc, _ = run_bench("ingest-mixed", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("per-layer self time"))
    wall = float(lines[start].split("traced wall ")[1].split(" ms")[0])
    rows = {}
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        name, ms = line.split()[:2]
        rows[name] = float(ms)
    assert {"sql", "recursive", "physical", "strategies", "table",
            "columnar", "streaming", "unattributed"} <= set(rows)
    assert sum(rows.values()) == pytest.approx(wall, abs=1.0)
    assert rows["streaming"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload):
    from enginebench.workloads import WORKLOADS as CLASSES

    def first_ops(seed):
        bench = CLASSES[workload](seed, small=True)
        bench.prepare()
        bench.setup()
        ops = bench.ops()
        out = []
        for _ in range(8):
            op = next(ops)
            result = op.run()
            assert op.check(result) is None
            out.append((op.label, sorted(map(repr, result.relation.rows))
                        if hasattr(result, "relation") else
                        repr(sorted(result.tables.items()))))
        return out

    assert first_ops(5) == first_ops(5)
    assert first_ops(5) != first_ops(6)


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "enginebench", tmp_path / "enginebench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc, result = run_bench("macro-fixpoint", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_host_speed_scales_wall_time_to_the_reference():
    from enginebench.hostspeed import REFERENCE_MS, HostSpeed

    host = HostSpeed()
    host.calibrate()
    first = host.kernel_ms
    assert first > 0 and host.samples == [first]
    host.calibrate()  # within the interval: the calibration is kept
    assert host.samples == [first]
    host.kernel_ms = 2 * REFERENCE_MS  # a host running at half speed
    assert host.scale(0.5) == pytest.approx(0.25)
