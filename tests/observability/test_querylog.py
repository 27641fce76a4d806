"""Query log ring buffer, slow-query flagging, and the JSONL sink."""

import json

import pytest

from repro.observability import QueryLog
from repro.observability.querylog import MAX_SQL_LENGTH


class TestQueryLog:
    def test_ring_buffer_keeps_most_recent(self):
        log = QueryLog(size=3)
        for index in range(5):
            log.record(f"select {index}", "select", total_ms=1.0)
        assert len(log) == 3
        assert [e.sql for e in log.entries()] == [
            "select 2", "select 3", "select 4"]

    def test_slow_threshold(self):
        log = QueryLog(slow_ms=10.0)
        fast = log.record("select 1", "select", total_ms=9.9)
        slow = log.record("select 2", "select", total_ms=10.0)
        assert not fast.slow and slow.slow
        assert log.slow_queries() == [slow]

    def test_sql_truncation(self):
        log = QueryLog()
        entry = log.record("x" * (MAX_SQL_LENGTH + 50), "select", 1.0)
        assert len(entry.sql) == MAX_SQL_LENGTH + 1
        assert entry.sql.endswith("…")

    def test_entry_fields_and_to_dict(self):
        log = QueryLog()
        entry = log.record("select 1", "recursive", 12.345,
                           phases={"parse": 1.0, "execute": 11.0},
                           rows=7, iterations=3)
        assert entry.timestamp > 0
        data = entry.to_dict()
        assert data["kind"] == "recursive"
        assert data["total_ms"] == 12.345
        assert data["phases"] == {"parse": 1.0, "execute": 11.0}
        assert data["rows"] == 7 and data["iterations"] == 3

    def test_clear_and_iter(self):
        log = QueryLog()
        log.record("select 1", "select", 1.0)
        assert len(list(log)) == 1
        log.clear()
        assert len(log) == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            QueryLog(size=0)

    def test_storage_and_error_fields(self):
        log = QueryLog()
        entry = log.record("select boom", "error", 1.0,
                           storage="columnar", error="SchemaError")
        data = entry.to_dict()
        assert data["storage"] == "columnar"
        assert data["error"] == "SchemaError"
        # Defaults: the engine's defaults (batch over columnar, optimizer
        # off), no error.
        plain = log.record("select 1", "select", 1.0).to_dict()
        assert plain["storage"] == "columnar" and plain["error"] is None
        assert plain["executor"] == "batch"
        assert plain["optimizer"] == "off"


class TestJsonlSink:
    def test_entries_stream_to_disk(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        log = QueryLog(size=2, jsonl_path=str(path))
        for index in range(4):
            log.record(f"select {index}", "select", float(index))
        log.close()
        lines = path.read_text().splitlines()
        # The sink outlives the ring: all 4 entries, not just the last 2.
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert [r["sql"] for r in records] == [
            f"select {i}" for i in range(4)]
        assert all("storage" in r and "error" in r for r in records)

    def test_rotation_keeps_one_previous_generation(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        log = QueryLog(jsonl_path=str(path), rotate_bytes=300)
        for index in range(20):
            log.record(f"select {index}", "select", 1.0)
        log.close()
        rotated = tmp_path / "queries.jsonl.1"
        assert rotated.exists(), "rotation should have produced .1"
        assert path.stat().st_size <= 300
        # Both generations hold valid JSONL.
        for generation in (path, rotated):
            for line in generation.read_text().splitlines():
                json.loads(line)

    def test_no_sink_without_path(self, tmp_path):
        log = QueryLog()
        log.record("select 1", "select", 1.0)
        log.close()  # harmless without a sink
        assert list(tmp_path.iterdir()) == []
