"""Reproducer: deeply nested SQL raised a raw ``RecursionError``.

``select`` with 150 nested parentheses overflowed the recursive-descent
parser, and a 600-term ``1 + 1 + ...`` chain parsed into a 600-deep
expression tree that overflowed expression compilation.  The parser now
counts nesting — statements, parentheses, NOT, unary signs and chained
binary operators — and raises :class:`ParseError` past
:data:`~repro.relational.sql.parser.MAX_NESTING_DEPTH`.
"""

import pytest

from repro.relational import Engine
from repro.relational.errors import ParseError, RelationalError
from repro.relational.sql.parser import MAX_NESTING_DEPTH

DEEP = MAX_NESTING_DEPTH + 1


def _engine():
    engine = Engine("oracle")
    engine.database.load_edge_table(
        "E", [(i, (i + 1) % 5, 1.0) for i in range(10)])
    return engine


@pytest.mark.parametrize("sql", [
    "select " + "(" * 150 + "1" + ")" * 150 + " as x",
    "select " + " + ".join(["1"] * 600) + " as x",
    "select " + " * ".join(["F"] * 600) + " as x from E",
    "select F from E where " + "not " * 600 + "F = 1",
    "select " + "- " * 600 + "1 as x",
], ids=["parentheses", "additive-chain", "multiplicative-chain", "not",
        "negation"])
def test_deep_nesting_is_a_parse_error(sql):
    with pytest.raises(ParseError, match="nesting deeper than"):
        _engine().execute(sql)
    assert issubclass(ParseError, RelationalError)


def test_nested_subqueries_are_a_parse_error():
    sql = "select F as x from E"
    for level in range(DEEP):
        sql = f"select x from ({sql}) as t{level}"
    with pytest.raises(ParseError, match="nesting deeper than"):
        _engine().execute(sql)


def test_nesting_just_inside_the_limit_still_runs():
    engine = _engine()
    depth = MAX_NESTING_DEPTH - 2
    assert engine.execute(
        "select " + "(" * depth + "1" + ")" * depth + " as x").rows == ((1,),)
    chain = " + ".join(["1"] * (MAX_NESTING_DEPTH - 1))
    assert engine.execute(f"select {chain} as x").rows == \
        ((MAX_NESTING_DEPTH - 1,),)
