"""Byte-identity of maintained views vs cold re-derivation, across the
storage/parallel matrix."""

import pytest

from repro.check.streaming import (StreamingReport, StreamingScenario,
                                   check_streaming,
                                   generate_streaming_scenario)

#: Ring 0..9 plus chords.
EDGES = tuple(
    [(i, (i + 1) % 10, 1.0) for i in range(10)]
    + [(0, 5, 1.0), (3, 8, 1.0), (7, 2, 1.0)])

#: Mixed mutations: edge churn, a weight change (non-unit WCC gate), a
#: vertex insert (PageRank teleport change → full), a vertex delete.
BATCHES = (
    ({"E": ((0, 7, 1.0),)}, {}),
    ({}, {"E": ((2, 3),)}),
    ({"E": ((5, 1, 2.0),)}, {}),
    ({"V": ((20,),)}, {}),
    ({"E": ((20, 0, 1.0), (7, 20, 1.0))}, {}),
    ({}, {"V": ((4,),)}),
    ({}, {"E": ((5, 1),)}),
    ({"E": ((8, 3, 1.0),)}, {}),
)

CONFIGS = (
    {"storage": "rows", "parallel": 0},
    {"storage": "columnar", "parallel": 0},
    {"storage": "rows", "parallel": 2},
    {"storage": "columnar", "parallel": 2},
)


def scenario_for(config) -> StreamingScenario:
    return StreamingScenario(
        seed=0, kind="graph", nodes=10, edges=EDGES, batches=BATCHES,
        sssp_source=0, iterations=6, **config)


@pytest.mark.parametrize(
    "config", CONFIGS,
    ids=lambda c: f"{c['storage']}-par{c['parallel']}")
def test_views_byte_identical_to_cold_runs(config, monkeypatch):
    if config["parallel"]:
        monkeypatch.setenv("REPRO_PARALLEL_STRICT", "1")
    detail = check_streaming(scenario_for(config))
    assert detail is None, detail


def test_mixed_batches_exercise_both_refresh_modes():
    report = StreamingReport(seed=0, budget=1)
    detail = check_streaming(scenario_for(CONFIGS[0]), report)
    assert detail is None, detail
    assert report.incremental_refreshes > 0
    assert report.full_refreshes > 0


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_seeded_streaming_scenarios_hold(seed):
    scenario = generate_streaming_scenario(seed)
    scenario.parallel = 0  # keep the unit run serial
    detail = check_streaming(scenario)
    assert detail is None, detail
