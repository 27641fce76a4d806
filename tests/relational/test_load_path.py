"""Table loads and engine defaults: batch kernels over columnar storage.

A bulk load into an empty table keeps the coerced rows as the columnar
store's row overlay instead of sealing morsel blocks; blocks are encoded
only by an explicit ``compact()``.
"""

import math

from repro.relational import Engine
from repro.relational.columnar import MORSEL
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import SqlType

SPECIALS = (float("nan"), -0.0, None, 0.0, math.inf)


def _rows(n: int) -> list[tuple]:
    return [(i, i % 7, SPECIALS[i % len(SPECIALS)] if i % 3 == 0
             else float(i) / 4) for i in range(n)]


def _table(storage: str = "columnar") -> Table:
    schema = Schema.of(("ID", SqlType.INTEGER), ("G", SqlType.INTEGER),
                       ("W", SqlType.DOUBLE))
    return Table("T", schema, storage=storage)


class TestEmptyTableLoad:
    def test_bulk_load_seals_nothing(self):
        table = _table()
        assert table.insert_many(_rows(2 * MORSEL + 5)) == 2 * MORSEL + 5
        assert table.rows.blocks_sealed == 0
        assert table.rows.row_assigns == 1
        assert len(table) == 2 * MORSEL + 5

    def test_later_inserts_land_after_the_load(self):
        table = _table()
        rows = _rows(MORSEL + 3)
        table.insert_many(rows)
        table.insert((-1, 0, 1.5))
        table.insert_many([(-2, 1, None), (-3, 2, -0.0)])
        expected = rows + [(-1, 0, 1.5), (-2, 1, None), (-3, 2, -0.0)]
        assert repr(list(table.rows)) == repr(expected)
        assert table.rows.row_assigns == 1
        assert table.rows.column(0)[-3:] == [-1, -2, -3]
        assert table.snapshot().rows[-1] == (-3, 2, -0.0)

    def test_compact_seals_and_round_trips_exactly(self):
        table = _table()
        rows = _rows(2 * MORSEL + 11)
        table.insert_many(rows)
        table.rows.compact()
        assert table.rows.blocks_sealed == 2
        assert repr(list(table.rows)) == repr(rows)
        # Decode from the sealed blocks, not the cached row overlay.
        table.rows.drop_caches()
        assert repr(list(table.rows)) == repr(rows)
        assert repr(table.rows.column(2)) == repr([r[2] for r in rows])

    def test_load_into_non_empty_table_extends(self):
        table = _table()
        table.insert((0, 0, 0.0))
        table.insert_many(_rows(MORSEL + 1)[1:])
        assert table.rows.row_assigns == 0
        assert table.rows.blocks_sealed == 1

    def test_rows_backend_loads_identically(self):
        rows = _rows(MORSEL + 9)
        columnar, plain = _table(), _table("rows")
        columnar.insert_many(rows)
        plain.insert_many(rows)
        assert repr(list(columnar.rows)) == repr(list(plain.rows))

    def test_loaded_graph_answers_queries_before_compact(self):
        engine = Engine("oracle", storage="columnar")
        edges = [(i, (i * 5 + 1) % 3000, 1.0) for i in range(3000)]
        table = engine.database.load_edge_table("E", edges)
        assert table.rows.blocks_sealed == 0
        count = engine.execute(
            "select count(*) as n, sum(T) as s from E where F < 100").rows
        assert count == ((100, sum(t for f, t, _ in edges if f < 100)),)


class TestEngineDefaults:
    def test_batch_over_columnar_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        engine = Engine()
        assert engine.storage == "columnar"
        assert engine.database.storage == "columnar"

    def test_rows_storage_still_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "rows")
        engine = Engine()
        assert engine.storage == "rows"
        table = engine.database.load_node_table("V", [(1, 0.5)])
        assert table.rows.storage == "rows"
