"""Rows vs columnar storage comparison (the PR's acceptance benchmark).

Runs PageRank, WCC and SSSP through the same SQL front-end under the
PR-1 rows baseline (tuple executor), rows + batch, and columnar + batch,
plus a scan/filter/aggregate microbench with resident-bytes accounting.
Refreshes ``BENCH_storage.json`` at the repo root so the committed
report always matches the measured code.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.bench.storage_bench import run_storage_bench, write_report


def _emit_report(report, emit) -> None:
    rows = [[r["query"], r["baseline_ms"], r["rows_batch_ms"],
             r["columnar_ms"], f"{r['speedup']:.2f}x",
             f"{r['speedup_storage_only']:.2f}x", r["identical"]]
            for r in report["results"]]
    micro = report["microbench"]
    micro_rows = [[m["query"], m["rows_ms"], m["columnar_ms"],
                   f"{m['speedup']:.2f}x", m["identical"]]
                  for m in micro["queries"]]
    resident = micro["resident_bytes"]
    emit("storage", "\n\n".join([
        format_table(
            ("query", "baseline_ms", "rows_batch_ms", "columnar_ms",
             "speedup", "storage_only", "identical"), rows,
            title=f"columnar vs rows storage ({report['dialect']},"
                  f" n={report['graph']['nodes']})"),
        format_table(
            ("query", "rows_ms", "columnar_ms", "speedup", "identical"),
            micro_rows, title="scan/filter/aggregate microbench"),
        f"resident bytes: rows={resident['rows']}"
        f" columnar={resident['columnar']} ({resident['ratio']:.2f}x"
        f" smaller)",
    ]))


def test_storage_comparison(benchmark, emit):
    report = benchmark.pedantic(run_storage_bench, rounds=1, iterations=1)
    write_report(report)
    _emit_report(report, emit)
    for r in report["results"]:
        assert r["identical"], f"{r['query']} results differ across storages"
    for m in report["microbench"]["queries"]:
        assert m["identical"], f"{m['query']} microbench rows differ"


if __name__ == "__main__":
    import json
    import sys

    if "--smoke" in sys.argv[1:]:
        # Small no-report run for CI: exercises the whole bench path
        # without writing BENCH_storage.json or taking minutes, and
        # checks columnar holds its headline properties — identical
        # results everywhere and a scan microbench at least as fast as
        # row storage.  The scale keeps the edge table over the 2048-row
        # morsel, so a compact() would seal at least one block; loaded
        # tables stay an unencoded row overlay until then.
        report = run_storage_bench(scale=0.3, repeats=3)
        print(json.dumps(report, indent=2))
        for entry in report["results"]:
            assert entry["identical"], f"{entry['query']} results diverged"
        for entry in report["microbench"]["queries"]:
            assert entry["identical"], f"{entry['query']} rows diverged"
            if entry["query"] == "scan":
                assert entry["speedup"] >= 1.0, (
                    "columnar slower than rows on the scan microbench:"
                    f" {entry['rows_ms']}ms vs {entry['columnar_ms']}ms")
    else:
        report = run_storage_bench()
        write_report(report)
        print(json.dumps(report, indent=2))
