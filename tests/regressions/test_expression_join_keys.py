"""Reproducer: hash joins keyed on an expression on one side only.

``A.x + 1 = B.u`` pairs a computed key with a plain column.  The hash
operators used a raw single-column getter for the plain side and a
tuple-returning key function for the computed side, so the inner and
left joins crashed (``'NoneType' object is not callable``, or
``argument of type 'int' is not iterable`` over columnar storage) and
the semi-join silently returned no rows.  Both sides now use the same
key shape, and the columnar store's tuple-keyed join indexes return
tuple keys for single columns too.
"""

import pytest

from repro.relational import Engine
from repro.relational.relation import Relation

A = [(1, 2), (2, 3), (None, 4)]
B = [(2, 5), (3, 6), (9, 7)]


@pytest.mark.parametrize("storage", ["rows", "columnar"])
@pytest.mark.parametrize("sql,expected", [
    ("select A.x, B.v from A, B where A.x + 1 = B.u",
     [(1, 5), (2, 6)]),
    ("select A.x, B.v from A, B where B.u = A.x + 1",
     [(1, 5), (2, 6)]),
    ("select A.x, B.v from A left join B on A.x + 1 = B.u",
     [(1, 5), (2, 6), (None, None)]),
    ("select A.x, B.v from A full join B on A.x + 1 = B.u",
     [(1, 5), (2, 6), (None, None), (None, 7)]),
    ("select A.x from A where exists"
     " (select 1 from B where B.u = A.x + 1)", [(1,), (2,)]),
    ("select A.x from A where not exists"
     " (select 1 from B where B.u = A.x + 1)", [(None,)]),
])
def test_expression_keyed_joins(sql, expected, storage):
    engine = Engine("oracle", storage=storage)
    engine.database.register("A", Relation.from_pairs(("x", "y"), A))
    engine.database.register("B", Relation.from_pairs(("u", "v"), B))
    assert sorted(engine.execute(sql).rows, key=repr) == \
        sorted(expected, key=repr)
