"""Oracle plumbing: injected engine faults must surface as divergences.

These tests break the engine on purpose (monkeypatched operators, via
pytest's undo-on-teardown) and assert the differential runner notices —
the end-to-end guarantee that a real regression in one execution path
cannot slip past the harness.
"""

import pytest

from repro.check.ir import (
    AggItemIR,
    ItemIR,
    JoinIR,
    Scenario,
    SelectIR,
    TableIR,
    WithIR,
)
from repro.check.oracles import default_matrix, relevant_matrix
from repro.check.runner import DifferentialRunner
from repro.relational.physical import HashAggregate, HashJoin
from repro.relational.physical.blocks import FilteredColumns

T0 = TableIR("T0", (("k0", "int"), ("c0", "int")),
             ((1, 10), (2, 20), (2, 21), (3, None)))

JOIN_SCENARIO = Scenario(
    seed=0, tables=(T0,),
    query=SelectIR(
        base_table="T0", base_alias="q0",
        joins=(JoinIR("join", "T0", "q1", "q0", "k0", "k0"),),
        items=(ItemIR(("col", "q0", "k0"), "o0"),
               ItemIR(("col", "q1", "c0"), "o1"))))

AGG_SCENARIO = Scenario(
    seed=0, tables=(T0,),
    query=SelectIR(
        base_table="T0", base_alias="q0",
        items=(ItemIR(("col", "q0", "k0"), "g0"),),
        agg_items=(AggItemIR("count", None, "a0"),)))

UBU_SCENARIO = Scenario(
    seed=0,
    tables=(TableIR("E", (("F", "int"), ("T", "int"), ("ew", "double")),
                    ((0, 1, 1.0), (1, 2, 0.5))),
            TableIR("V", (("ID", "int"), ("vw", "double")),
                    ((0, 0.0), (1, 1.0), (2, 2.0)))),
    query=WithIR(union_kind="union by update", seeds=(0,),
                 aggregate="min", maxrecursion=5))


def test_healthy_engine_passes_all_oracles():
    runner = DifferentialRunner()
    for scenario in (JOIN_SCENARIO, AGG_SCENARIO, UBU_SCENARIO):
        divergence = runner.check(scenario)
        assert divergence is None, divergence and divergence.detail


def test_injected_join_fault_is_caught(monkeypatch):
    """Drop one row from the hash join's columnar block path only: row
    and columnar storage now answer differently and the matrix oracle
    must fire."""
    original = HashJoin.block_source

    def lossy(self):
        source = original(self)
        if not source:
            return source
        return FilteredColumns(source, list(range(source.length - 1)))

    monkeypatch.setattr(HashJoin, "block_source", lossy)
    divergence = DifferentialRunner().check(JOIN_SCENARIO)
    assert divergence is not None
    assert divergence.oracle == "matrix"
    assert "columnar" in divergence.detail


def test_injected_aggregate_fault_is_caught(monkeypatch):
    """Off-by-one in the columnar count kernel: caught by the matrix."""
    original = HashAggregate._block_single

    def off_by_one(self, function):
        rows = original(self, function)
        if rows is not None and function == "count":
            rows = [(key, count + 1) for key, count in rows]
        return rows

    monkeypatch.setattr(HashAggregate, "_block_single", off_by_one)
    divergence = DifferentialRunner().check(AGG_SCENARIO)
    assert divergence is not None
    assert divergence.oracle == "matrix"


def test_injected_crash_is_caught(monkeypatch):
    """A raw exception escaping any cell is reported as a crash even if
    every configuration dies the same way."""

    def boom(self):
        raise RuntimeError("synthetic operator failure")

    monkeypatch.setattr(HashJoin, "_compute", boom)
    runner = DifferentialRunner()
    divergence = runner.check(JOIN_SCENARIO)
    assert divergence is not None
    assert divergence.oracle in ("matrix", "crash")


def test_matrix_covers_every_strategy_and_setting():
    matrix = default_matrix()
    assert len(matrix) == 48
    assert {c.strategy for c in matrix} == {
        "merge", "full_outer_join", "update_from", "drop_alter"}
    assert {c.optimizer for c in matrix} == {"off", "cost"}
    assert {c.telemetry for c in matrix} == {"off", "on"}
    assert {c.storage for c in matrix} == {"rows", "columnar"}
    assert {c.parallel for c in matrix} == {0, 2}
    # Partitioned cells cover both telemetry modes — worker telemetry
    # shards mean instrumented runs still fan out.
    assert {c.telemetry for c in matrix if c.parallel} == {"off", "on"}
    # Plain selects collapse the strategy axis...
    reduced = relevant_matrix(JOIN_SCENARIO, matrix)
    assert len(reduced) < len(matrix)
    # ...recursive scenarios keep all 48 cells.
    assert relevant_matrix(UBU_SCENARIO, matrix) == matrix
