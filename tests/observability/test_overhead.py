"""Disabled-telemetry overhead guard.

The always-on half of the telemetry (phase timings, query log, counters)
must be nearly free — on every engine configuration, not just the
default one, so the guard runs on both storage backends.
The baseline stubs the engine's accounting entry points to no-ops — the
execution pipeline is untouched either way, so the measured gap is
exactly the always-on bookkeeping.  Best-of-N interleaved runs keep
scheduler noise out; the 5% bound gets a small absolute slack so
sub-10ms timings on busy CI machines don't flake.

A disabled profiler must be part of that guarantee: ``telemetry="off"``
leaves ``Profiler.enabled`` False, and the plan-instrumentation branch
in the engine is gated on it, so the stubbed baseline and the real run
execute the same uninstrumented plans.
"""

import gc
import time

import pytest

from repro.core.algorithms import pagerank
from repro.datasets import preferential_attachment
from repro.relational import Engine
from repro.relational.engine import Engine as EngineClass

ROUNDS = 5


def _time_run(graph, storage: str) -> float:
    engine = Engine("oracle", storage=storage)
    engine.load_graph(graph)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        pagerank.run_sql(engine, graph, iterations=10)
        return time.perf_counter() - started
    finally:
        gc.enable()


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_disabled_telemetry_overhead_under_5_percent(monkeypatch, storage):
    graph = preferential_attachment(150, 3, directed=True, seed=7)
    _time_run(graph, storage)  # warm-up: imports, caches

    with_accounting = float("inf")
    without_accounting = float("inf")
    for _ in range(ROUNDS):
        with_accounting = min(with_accounting,
                              _time_run(graph, storage))
        with monkeypatch.context() as patch:
            patch.setattr(EngineClass, "_record_query",
                          lambda self, *args, **kwargs: None)
            patch.setattr(EngineClass, "_publish_iterations",
                          lambda self, result: None)
            without_accounting = min(
                without_accounting, _time_run(graph, storage))

    assert with_accounting <= without_accounting * 1.05 + 0.005, (
        f"always-on telemetry cost {with_accounting * 1000:.2f} ms vs"
        f" {without_accounting * 1000:.2f} ms baseline"
        f" (storage={storage})")


def test_disabled_profiler_skips_plan_instrumentation():
    graph = preferential_attachment(60, 3, directed=True, seed=7)
    engine = Engine("oracle")  # telemetry="off"
    engine.load_graph(graph)
    pagerank.run_sql(engine, graph, iterations=3)
    profiler = engine.telemetry.profiler
    assert not profiler.enabled
    assert profiler.queries == 0
    assert profiler.to_collapsed() == ""
