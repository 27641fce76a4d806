"""Reproducer: ``sum()``/``avg()`` over a TEXT column diverged by
aggregation path.

Found by ``repro fuzz`` (aggregate queries over NULL-heavy generated
schemas), when the engine still had two hash aggregates.  Before the fix:

* the folding path of :func:`~repro.relational.relation._finish_aggregate`
  raised a raw ``TypeError`` from ``sum()`` — a crash, not an engine
  error;
* the streaming hash aggregate folded with ``+`` as it went, which
  silently *string-concatenated* TEXT values.

One path crashed, the other returned data: a three-way divergence.  Every
aggregation path (hash and sort aggregation, row and columnar storage)
now raises the same :class:`~repro.relational.errors.ExecutionError` via
:func:`~repro.relational.relation.require_numeric`.
"""

from repro.check.replay import assert_matrix_agreement

TABLES = (
    ("T0", (("k0", "int"), ("c0", "text")),
     ((1, "a"), (1, "b"), (2, "c"), (2, None), (3, None))),
)


def test_sum_over_text_is_a_consistent_engine_error():
    outcome = assert_matrix_agreement(
        TABLES, "select sum(c0) as s from T0")
    assert outcome[0] == "error"
    assert outcome[1] == "ExecutionError"
    assert "sum() requires numeric values" in outcome[2]


def test_avg_over_text_is_a_consistent_engine_error():
    outcome = assert_matrix_agreement(
        TABLES, "select avg(c0) as s from T0")
    assert outcome[0] == "error"
    assert outcome[1] == "ExecutionError"
    assert "avg() requires numeric values" in outcome[2]


def test_grouped_sum_over_text_is_a_consistent_engine_error():
    outcome = assert_matrix_agreement(
        TABLES, "select k0 as g, sum(c0) as s from T0 group by k0")
    assert outcome[0] == "error"
    assert outcome[1] == "ExecutionError"


def test_numeric_aggregates_still_work_everywhere():
    outcome = assert_matrix_agreement(
        TABLES, "select k0 as g, count(c0) as n from T0 group by k0")
    assert outcome[0] == "rows"
    assert sorted(outcome[2].elements()) == [(1, 2), (2, 1), (3, 0)]
