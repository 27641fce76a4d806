"""Batch operators: agreement with the relational algebra on both the
row path and the columnar block path, NULL-key joins, plan caching,
incremental maintenance counters, and EXPLAIN ANALYZE."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import bellman_ford, pagerank, wcc
from repro.core.operators import mv_join, mv_join_basic
from repro.core.semiring import MAX_TIMES, MIN_PLUS, MIN_TIMES, PLUS_TIMES
from repro.datasets import preferential_attachment
from repro.relational import Engine
from repro.relational.expressions import BinaryOp, Literal, col
from repro.relational.physical import (
    Filter,
    HashAggregate,
    HashAntiJoin,
    HashFullOuterJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    Project,
    TableScan,
)
from repro.relational.relation import AggregateSpec, Relation
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import SqlType

DIALECTS = ("oracle", "db2", "postgres")

#: Row storage feeds the operators' row path; columnar storage their
#: block path (cached store indexes, column-vector kernels).
STORAGES = ("rows", "columnar")

#: (semiring, SQL rendering of ⊕(⊙)) — the four MV-join instantiations the
#: paper's algorithms use (Table "standard instances" in core.semiring).
SEMIRING_SQL = [
    (PLUS_TIMES, "sum(A.ew * C.vw)"),
    (MIN_PLUS, "min(A.ew + C.vw)"),
    (MAX_TIMES, "max(A.ew * C.vw)"),
    (MIN_TIMES, "min(A.ew * C.vw)"),
]


def relation(cols, rows, alias):
    return Relation.from_pairs(cols, rows).rename(alias)


def scan(rel, alias, storage):
    """A table scan over *rel* stored in the given backend."""
    table = Table(alias, rel.schema, storage=storage)
    table.insert_many(rel.rows)
    return TableScan(table, alias)


def sorted_rows(rows):
    return sorted(rows, key=repr)


def sql_keys_only(rel, key):
    """*rel* without its NULL-keyed rows.  SQL's NULL equals nothing, while
    the algebra's semi/anti-join set membership treats NULL as a value, so
    the reference drops NULL build keys before comparing."""
    qualifier, name = key.split(".")
    index = rel.schema.index_of(name, qualifier)
    return Relation(rel.schema, [r for r in rel.rows if r[index] is not None])


# -- merged operators vs relational algebra (incl. NULL join keys) -----------


LEFT = [(1, "a"), (2, "a"), (3, "b"), (4, None), (5, "z"), (6, None)]
RIGHT = [("a", 10), ("b", 20), ("c", 30), (None, 99)]

#: operator -> its relational-algebra reference over (left, right).
REFERENCES = {
    HashJoin: lambda l, r: l.equi_join(r, ["L.k"], ["R.k"]),
    HashLeftOuterJoin: lambda l, r: l.left_outer_join(r, ["L.k"], ["R.k"]),
    HashFullOuterJoin: lambda l, r: l.full_outer_join(r, ["L.k"], ["R.k"]),
    HashSemiJoin: lambda l, r: l.semi_join(sql_keys_only(r, "R.k"),
                                           ["L.k"], ["R.k"]),
    HashAntiJoin: lambda l, r: l.anti_join(sql_keys_only(r, "R.k"),
                                           ["L.k"], ["R.k"]),
}


class TestKernelAgreement:
    @pytest.mark.parametrize("operator", list(REFERENCES),
                             ids=lambda cls: cls.__name__)
    def test_null_keys_both_sides(self, operator):
        """NULL join keys match nothing — on either side, on either path.

        Regression: HashSemiJoin/HashAntiJoin used to admit NULL probe keys
        when a NULL appeared on the build side.
        """
        left = relation(("id", "k"), LEFT, "L")
        right = relation(("k", "v"), RIGHT, "R")
        expected = REFERENCES[operator](left, right)
        for storage in STORAGES:
            out = operator(scan(left, "L", storage),
                           scan(right, "R", storage),
                           [col("L.k")], [col("R.k")]).execute()
            assert sorted_rows(out.rows) == sorted_rows(expected.rows), \
                storage
            # NULL never equals NULL: the NULL-key right row (value 99)
            # may survive only as an outer-padded row, never paired with
            # a left row.
            assert all(not (99 in row and row[0] is not None)
                       for row in out.rows)

    def test_semi_anti_partition_left(self):
        """Semi-join and anti-join output partition the left input."""
        left = relation(("id", "k"), LEFT, "L")
        right = relation(("k", "v"), RIGHT, "R")
        args = ([col("L.k")], [col("R.k")])
        for storage in STORAGES:
            semi = HashSemiJoin(scan(left, "L", storage),
                                scan(right, "R", storage), *args).execute()
            anti = HashAntiJoin(scan(left, "L", storage),
                                scan(right, "R", storage), *args).execute()
            assert sorted(semi.rows + anti.rows) == sorted(LEFT)
            assert sorted(semi.rows) == sorted(
                REFERENCES[HashSemiJoin](left, right).rows)
            # The three NULL/unmatched left rows land on the anti side.
            assert set(anti.rows) == {(4, None), (5, "z"), (6, None)}

    def test_empty_build_side(self):
        left = relation(("id", "k"), LEFT, "L")
        empty = relation(("k", "v"), [], "R")
        args = ([col("L.k")], [col("R.k")])
        for storage in STORAGES:
            joined = HashJoin(scan(left, "L", storage),
                              scan(empty, "R", storage), *args).execute()
            assert joined.rows == \
                left.equi_join(empty, ["L.k"], ["R.k"]).rows == ()
            kept = HashAntiJoin(scan(left, "L", storage),
                                scan(empty, "R", storage), *args).execute()
            assert sorted(kept.rows) == sorted(
                left.anti_join(empty, ["L.k"], ["R.k"]).rows) == sorted(LEFT)

    #: NULL keys and values take the row path everywhere; clean integer
    #: keys with numeric values take the columnar block kernels.
    AGGREGATE_INPUTS = {
        "nulls": [(1, "a", 2.0), (2, "a", None), (3, "b", 5.0),
                  (4, None, 1.0)],
        "clean": [(1, 10, 2.0), (2, 10, 3.5), (3, 20, 5.0), (4, 30, 1.0),
                  (5, 20, -4.0)],
    }

    @pytest.mark.parametrize("function", ["count", "sum", "min", "max", "avg"])
    def test_aggregate_agreement(self, function):
        spec = [AggregateSpec(function, col("T.w"), "out")]
        for data, rows in self.AGGREGATE_INPUTS.items():
            rel = relation(("id", "g", "w"), rows, "T")
            expected = rel.group_by(["T.g"], spec)
            for storage in STORAGES:
                out = HashAggregate(scan(rel, "T", storage), [col("T.g")],
                                    spec).execute()
                assert sorted_rows(out.rows) == \
                    sorted_rows(expected.rows), (data, storage)

    @pytest.mark.parametrize("function,expect", [
        ("count", 0), ("sum", None), ("min", None), ("max", None),
        ("avg", None),
    ])
    def test_aggregate_empty_input_no_keys(self, function, expect):
        rel = relation(("id", "g", "w"), [], "T")
        spec = [AggregateSpec(function, col("T.w"), "out")]
        for storage in STORAGES:
            out = HashAggregate(scan(rel, "T", storage), [], spec).execute()
            assert out.rows == rel.group_by([], spec).rows == ((expect,),)


# -- block-path errors: replay only what the row path reproduces --------------


CLEAN = [(1, 10, 2.0), (2, 10, 3.5), (3, 20, 5.0), (4, 30, 1.0)]


def _failing_vector(error):
    def compile_vector(expr):
        def vector(batch):
            raise error
        return vector
    return compile_vector


def _block_operators(storage):
    """One Filter, Project and HashAggregate over a table of CLEAN rows,
    each with the module attribute its block path goes through."""
    rel = relation(("id", "g", "w"), CLEAN, "T")
    return {
        "filter": (lambda: Filter(scan(rel, "T", storage),
                                  BinaryOp(">", col("T.g"), Literal(10))),
                   "repro.relational.physical.filter.compile_vector"),
        "project": (lambda: Project(scan(rel, "T", storage),
                                    [(BinaryOp("+", col("T.g"), Literal(1)),
                                      "g1")]),
                    "repro.relational.physical.project.compile_vector"),
        "aggregate": (lambda: HashAggregate(
                          scan(rel, "T", storage), [col("T.g")],
                          [AggregateSpec("sum", col("T.w"), "s")]),
                      "repro.relational.physical.aggregate.grouped_sum"),
    }


def _raising(target, error):
    if target.endswith("compile_vector"):
        return _failing_vector(error)

    def kernel(*args):
        raise error
    return kernel


class TestBlockFallback:
    @pytest.mark.parametrize("kind", ["filter", "project", "aggregate"])
    def test_unexpected_kernel_error_propagates(self, kind, monkeypatch):
        """A fast path never hides an error by replaying the row path."""
        make, target = _block_operators("columnar")[kind]
        monkeypatch.setattr(target, _raising(target, RuntimeError("kernel")))
        with pytest.raises(RuntimeError, match="kernel"):
            make().execute()

    @pytest.mark.parametrize("error", [TypeError, ZeroDivisionError])
    @pytest.mark.parametrize("kind", ["filter", "project", "aggregate"])
    def test_evaluation_error_replays_the_row_path(self, kind, error,
                                                   monkeypatch):
        expected = _block_operators("rows")[kind][0]().execute().rows
        make, target = _block_operators("columnar")[kind]
        monkeypatch.setattr(target, _raising(target, error("kernel")))
        assert make().execute().rows == expected

    def test_first_error_in_row_order_on_both_storages(self):
        """Column-at-a-time evaluation meets the zero divisor in row 1
        before the TEXT operand in row 0; the block path replays the row
        path, so both backends raise the row path's first error."""
        outcomes = set()
        for storage in STORAGES:
            engine = Engine("oracle", storage=storage)
            engine.database.register("T", Relation.from_pairs(
                ("a", "b", "c"), [(1, 1, "x"), (1, 0, "y")]))
            with pytest.raises(Exception) as caught:
                engine.execute("select a / b as q, c + 1 as r from T")
            outcomes.add(type(caught.value).__name__)
        assert outcomes == {"TypeError"}


# -- randomized semiring MV-join: SQL == RA operator == *_basic --------------


matrices = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.floats(0.125, 8.0, allow_nan=False), max_size=14)

vectors = st.dictionaries(st.integers(0, 5),
                          st.floats(0.125, 8.0, allow_nan=False), max_size=6)


@pytest.mark.parametrize("semiring,fold_sql", SEMIRING_SQL,
                         ids=[s.name for s, _ in SEMIRING_SQL])
@given(entries=matrices, vec=vectors)
@settings(max_examples=12, deadline=None)
def test_mv_join_semiring_agreement(semiring, fold_sql, entries, vec):
    """SQL MV-join on both storage backends agrees with the RA operator
    and its basic-operations twin, under all four semirings."""
    a = Relation.from_pairs(("F", "T", "ew"),
                            [(f, t, w) for (f, t), w in entries.items()])
    c = Relation.from_pairs(("ID", "vw"), sorted(vec.items()))
    expected = mv_join(a, c, semiring).to_dict()
    assert mv_join_basic(a, c, semiring).to_dict() == pytest.approx(expected)

    sql = (f"SELECT A.F AS ID, {fold_sql} AS vw FROM A, C"
           f" WHERE A.T = C.ID GROUP BY A.F")
    for storage in STORAGES:
        engine = Engine(dialect="postgres", storage=storage)
        engine.database.load_edge_table("A", list(a.rows))
        engine.database.load_node_table("C", list(c.rows))
        got = {row[0]: row[1] for row in engine.execute(sql).rows}
        assert got == pytest.approx(expected), storage


# -- end-to-end through Engine.execute ----------------------------------------


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment(60, 3.0, directed=True, seed=7)


class TestEndToEndAgreement:
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_pagerank(self, dialect, graph):
        reference = pagerank.run_reference(graph).values
        for storage in STORAGES:
            values = pagerank.run_sql(Engine(dialect, storage=storage),
                                      graph).values
            assert values == pytest.approx(reference), storage

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_wcc(self, dialect, graph):
        reference = wcc.run_reference(graph).values
        for storage in STORAGES:
            assert wcc.run_sql(Engine(dialect, storage=storage),
                               graph).values == reference, storage

    def test_sssp(self, graph):
        reference = bellman_ford.run_reference(graph, 0).values
        for storage in STORAGES:
            values = bellman_ford.run_sql(Engine("postgres", storage=storage),
                                          graph, 0).values
            assert values == pytest.approx(reference), storage


# -- plan caching in the recursive loop --------------------------------------


class TestPlanCache:
    def test_branch_plans_compiled_once(self, graph):
        for storage in STORAGES:
            engine = Engine("postgres", storage=storage)
            wcc.load_graph(engine, graph)
            wcc.prepare_symmetric_edges(engine)
            detail = engine.execute_detailed(wcc.sql())
            assert detail.iterations > 1
            assert detail.plans_compiled == 1
            # Every later iteration reuses the single cached branch plan.
            assert detail.plan_cache_hits == detail.iterations - 1

    def test_cached_run_matches_fresh_runs(self, graph):
        """Plan reuse must not leak state between iterations."""
        engine = Engine("postgres")
        labels = wcc.run_sql(engine, graph).values
        reference = wcc.run_reference(graph).values
        assert labels == reference


# -- incremental table/index maintenance -------------------------------------


def keyed_table(rows, with_index=True):
    schema = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.DOUBLE),
                       primary_key=("ID",))
    table = Table("P", schema)
    table.insert_many(rows)
    if with_index:
        table.create_index("p_id", ["ID"], "btree")
    table.index_rebuilds = 0
    table.incremental_index_ops = 0
    return table


class TestIncrementalMaintenance:
    def test_small_delta_avoids_rebuild(self):
        table = keyed_table([(i, float(i)) for i in range(20)])
        delta = Relation.from_pairs(("ID", "vw"), [(3, 30.0), (25, 25.0)])
        replaced, appended = table.apply_delta_by_key(delta, ["ID"])
        assert (replaced, appended) == (1, 1)
        assert table.index_rebuilds == 0
        # one delete+insert for the replaced row, one insert for the append
        assert table.incremental_index_ops == 3
        assert (3, 30.0) in table.rows and (25, 25.0) in table.rows

    def test_large_delta_falls_back_to_rebuild(self):
        table = keyed_table([(i, float(i)) for i in range(4)])
        delta = Relation.from_pairs(
            ("ID", "vw"), [(i, float(10 * i)) for i in range(4)])
        from repro.relational.strategies import apply_union_by_update
        from repro.relational.database import Database
        apply_union_by_update(Database(), table, delta, ["ID"],
                              "full_outer_join")
        assert table.index_rebuilds == 1
        assert sorted(table.rows) == [(i, float(10 * i)) for i in range(4)]

    def test_merge_strategy_is_incremental(self):
        from repro.relational.strategies import apply_union_by_update
        from repro.relational.database import Database
        table = keyed_table([(i, float(i)) for i in range(30)])
        delta = Relation.from_pairs(("ID", "vw"), [(5, 50.0), (99, 9.0)])
        apply_union_by_update(Database(), table, delta, ["ID"], "merge")
        assert table.index_rebuilds == 0
        assert table.incremental_index_ops == 3
        assert (5, 50.0) in table.rows and (99, 9.0) in table.rows

    def test_index_stays_consistent_after_delta(self):
        table = keyed_table([(i, float(i)) for i in range(10)])
        delta = Relation.from_pairs(("ID", "vw"), [(4, 44.0), (11, 11.0)])
        table.apply_delta_by_key(delta, ["ID"])
        index = table.indexes["p_id"]
        assert sorted(index.lookup((4,))) == [(4, 44.0)]
        assert sorted(index.lookup((11,))) == [(11, 11.0)]
        assert index.lookup((5,)) == [(5, 5.0)]

    def test_insert_many_is_atomic_on_key_violation(self):
        table = keyed_table([(1, 1.0)], with_index=False)
        from repro.relational.errors import ConstraintError
        with pytest.raises(ConstraintError):
            table.insert_many([(2, 2.0), (2, 3.0)])  # intra-batch duplicate
        assert table.rows == [(1, 1.0)]
        with pytest.raises(ConstraintError):
            table.insert_many([(3, 3.0), (1, 9.0)])  # clashes with existing
        assert table.rows == [(1, 1.0)]

    @pytest.mark.parametrize("strategy", ["merge", "update_from",
                                          "full_outer_join", "drop_alter"])
    def test_recursive_loop_runs_under_every_strategy(self, strategy, graph):
        engine = Engine("postgres")
        if not engine.dialect.supports_union_by_update(strategy):
            pytest.skip(f"postgres does not model {strategy}")
        engine.union_by_update_strategy = strategy
        labels = wcc.run_sql(engine, graph).values
        assert labels == wcc.run_reference(graph).values


# -- EXPLAIN ANALYZE ---------------------------------------------------------


class TestExplainAnalyze:
    def test_non_recursive_report(self, graph):
        engine = Engine("postgres")
        engine.load_graph(graph)
        report = engine.explain_analyze(
            "SELECT E.F, count(*) AS c FROM E, V"
            " WHERE E.F = V.ID GROUP BY E.F")
        assert "Hash Join" in report
        assert "actual rows=" in report and "loops=1" in report

    @pytest.mark.parametrize("storage", STORAGES)
    def test_recursive_report_accumulates_iterations(self, storage, graph):
        engine = Engine("postgres", storage=storage)
        wcc.load_graph(engine, graph)
        wcc.prepare_symmetric_edges(engine)
        detail = engine.execute_detailed(wcc.sql())
        report = engine.explain_analyze(wcc.sql())
        assert f"iterations={detail.iterations}" in report
        assert "plans_compiled=1" in report
        # The cached branch plan ran once per iteration.
        assert f"loops={detail.iterations}" in report
        assert "recursive branch:" in report and "final body:" in report

    def test_analyze_does_not_change_results(self, graph):
        engine = Engine("postgres")
        wcc.load_graph(engine, graph)
        wcc.prepare_symmetric_edges(engine)
        expected = engine.execute(wcc.sql())
        engine.explain_analyze(wcc.sql())
        assert set(engine.execute(wcc.sql()).rows) == set(expected.rows)
