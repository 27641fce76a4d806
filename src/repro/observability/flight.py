"""The flight recorder: automatic diagnostic bundles for bad queries.

Production databases keep a "black box": when a query crosses the
slow-query threshold or dies with an execution error, the engine
snapshots everything needed to understand — and *re-execute* — it after
the fact, without the live system.  A bundle is one self-contained JSON
file holding:

* the SQL text and the full engine configuration (dialect, mode,
  optimizer, storage backend, union-by-update strategy);
* the failure, if any (exception type + message);
* phase timings, row/iteration counts, and the fixpoint trajectory;
* the per-operator EXPLAIN ANALYZE reports (``est_rows`` vs actual with
  the ``drift=`` ratio) when the query ran instrumented, else the plain
  EXPLAIN when one can be planned;
* the span forest, when tracing was on;
* per-table statistics versions and storage gauges at capture time;
* snapshots of every persistent table the database held (bounded by
  ``max_rows_per_table``; oversized tables are marked truncated and the
  bundle refuses replay rather than replaying wrong data);
* a digest of the result relation (for replay verification).

Bundles land in a bounded on-disk ring (``flight-<seq>-<reason>.json``);
writing bundle N+`max_bundles` deletes the oldest.  :func:`replay_bundle`
rebuilds the engine and database from a bundle and re-executes the SQL,
reporting whether the original result digest — or the original error —
reproduced.  ``repro flight list/show/replay`` is the CLI surface.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any

BUNDLE_FORMAT = "repro-flight-v1"

#: Default cap on rows snapshotted per table; beyond it the table is
#: truncated in the bundle and replay is refused.
DEFAULT_MAX_ROWS = 100_000


def result_digest(rows: Any) -> str:
    """Order-insensitive digest of a result's row multiset."""
    payload = "\n".join(sorted(repr(tuple(row)) for row in rows))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FlightRecorder:
    """Bounded on-disk ring of diagnostic bundles.

    Wire one through ``Telemetry(flight_dir=...)``; the engine calls
    :meth:`record` when a query log entry trips the slow threshold or a
    ``RelationalError`` escapes execution.
    """

    def __init__(self, directory: str, max_bundles: int = 32,
                 max_rows_per_table: int = DEFAULT_MAX_ROWS):
        if max_bundles < 1:
            raise ValueError("flight ring needs at least one slot")
        self.directory = directory
        self.max_bundles = max_bundles
        self.max_rows_per_table = max_rows_per_table
        os.makedirs(directory, exist_ok=True)
        self._seq = self._next_sequence()
        #: Paths written by this recorder instance, newest last.
        self.recorded: list[str] = []

    def _next_sequence(self) -> int:
        highest = 0
        for name in self._bundle_names():
            try:
                highest = max(highest, int(name.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return highest + 1

    def _bundle_names(self) -> list[str]:
        return sorted(name for name in os.listdir(self.directory)
                      if name.startswith("flight-")
                      and name.endswith(".json"))

    def bundles(self) -> list[str]:
        """Absolute bundle paths, oldest first."""
        return [os.path.join(self.directory, name)
                for name in self._bundle_names()]

    # -- capture -------------------------------------------------------------

    def record(self, engine: Any, *, reason: str, sql: str, kind: str,
               total_ms: float, phases: dict[str, float],
               rows: int = 0, iterations: int = 0,
               error: BaseException | None = None, span: Any = None,
               per_iteration: Any = (), plan_reports: Any = (),
               digest: str | None = None) -> str:
        """Snapshot one bundle; returns the path written."""
        bundle = self._build_bundle(
            engine, reason=reason, sql=sql, kind=kind, total_ms=total_ms,
            phases=phases, rows=rows, iterations=iterations, error=error,
            span=span, per_iteration=per_iteration,
            plan_reports=plan_reports, digest=digest)
        name = f"flight-{self._seq:06d}-{reason}.json"
        self._seq += 1
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=1, default=str)
            handle.write("\n")
        self.recorded.append(path)
        self._prune()
        return path

    def _prune(self) -> None:
        names = self._bundle_names()
        for name in names[:max(len(names) - self.max_bundles, 0)]:
            try:
                os.remove(os.path.join(self.directory, name))
            except OSError:  # pragma: no cover - already gone
                pass

    def _build_bundle(self, engine: Any, *, reason: str, sql: str,
                      kind: str, total_ms: float, phases: dict[str, float],
                      rows: int, iterations: int,
                      error: BaseException | None, span: Any,
                      per_iteration: Any, plan_reports: Any,
                      digest: str | None) -> dict[str, Any]:
        tables: dict[str, Any] = {}
        statistics: dict[str, Any] = {}
        storage: dict[str, Any] = {}
        for table in engine.database.all_tables():
            if table.temporary:
                continue
            statistics[table.name] = {
                "version": table.statistics.version,
                "row_count": table.statistics.row_count,
                "fresh": table.statistics.fresh,
            }
            store = table.rows
            gauges: dict[str, Any] = {
                "storage": table.storage,
                "rows": len(table),
                "index_rebuilds": table.index_rebuilds,
                "incremental_index_ops": table.incremental_index_ops,
            }
            if hasattr(store, "blocks_sealed"):
                gauges.update(
                    blocks_sealed=store.blocks_sealed,
                    block_decays=store.block_decays,
                    row_assigns=store.row_assigns,
                    resident_bytes=store.size_bytes(),
                    encodings=dict(sorted(store.encoding_counts.items())))
            storage[table.name] = gauges
            truncated = len(table) > self.max_rows_per_table
            snapshot = table.snapshot()
            table_rows = [list(row) for row in
                          (snapshot.rows[:self.max_rows_per_table]
                           if truncated else snapshot.rows)]
            tables[table.name] = {
                "columns": [[c.name, c.sql_type.name]
                            for c in table.schema.columns],
                "primary_key": list(table.schema.primary_key),
                "rows": table_rows,
                "truncated": truncated,
            }
        explain = None
        if not plan_reports and kind == "select" and error is None:
            try:  # best-effort plan-only EXPLAIN for uninstrumented runs
                explain = engine.explain(sql)
            except Exception:
                explain = None
        return {
            "format": BUNDLE_FORMAT,
            "reason": reason,
            "created_unix": time.time(),
            "sql": sql,
            "kind": kind,
            "engine": {
                "dialect": engine.dialect.name,
                "mode": engine.mode,
                "optimizer": engine.optimizer,
                "storage": engine.storage,
                "union_by_update_strategy": engine.union_by_update_strategy,
            },
            "error": None if error is None else {
                "type": type(error).__name__,
                "message": str(error),
            },
            "query": {
                "total_ms": round(total_ms, 3),
                "phases": {k: round(v, 3) for k, v in phases.items()},
                "rows": rows,
                "iterations": iterations,
                "slow_ms": engine.telemetry.query_log.slow_ms,
            },
            "plan_reports": [{"title": title, "report": report}
                             for title, report in plan_reports],
            "explain": explain,
            "span_forest": None if span is None else [span.to_dict()],
            # Parallel context: the configured pool size, the worker
            # count the statement actually ran on, and the last worker
            # incident (if any).  Replay below stays serial — results
            # are byte-identical by contract, so a bundle captured from
            # a parallel run still replays deterministically.
            "parallel": {
                "configured": getattr(engine, "parallel", 0),
                "effective": getattr(engine, "_last_parallel", 0),
                "incident": getattr(engine.telemetry,
                                    "last_parallel_incident", None),
            },
            "per_iteration": [{
                "iteration": s.iteration, "delta_rows": s.delta_rows,
                "total_rows": s.total_rows, "ms": round(s.seconds * 1000, 3),
                "inserted": s.inserted, "overwritten": s.overwritten,
                "pruned": s.pruned, "antijoin_pruned": s.antijoin_pruned,
                "worker_ms": [round(sec * 1000, 3)
                              for sec in getattr(s, "worker_seconds", ())],
            } for s in per_iteration],
            "statistics": statistics,
            "storage": storage,
            "tables": tables,
            "result_digest": digest,
            "result_rows": rows,
        }


# -- replay --------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """What re-executing a bundle produced, vs what the bundle recorded."""

    bundle: str
    reason: str
    #: "result" (ran to completion) or "error" (raised).
    outcome: str
    #: True when the replay reproduced the recorded digest/error.
    reproduced: bool
    detail: str
    rows: int = 0
    error_type: str | None = None

    def render(self) -> str:
        status = "REPRODUCED" if self.reproduced else "DIVERGED"
        return (f"{status}: {self.detail}"
                f" (bundle reason={self.reason}, outcome={self.outcome})")


def load_bundle(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    if bundle.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"{path} is not a flight bundle"
                         f" (format={bundle.get('format')!r})")
    return bundle


def replay_bundle(path: str) -> ReplayOutcome:
    """Rebuild the engine from a bundle and re-execute its statement.

    Returns a :class:`ReplayOutcome`; ``reproduced`` is True when the
    replay reached the same result digest (success bundles) or raised
    the same error type (error bundles).
    """
    from ..relational import Engine
    from ..relational.database import Database
    from ..relational.errors import RelationalError
    from ..relational.schema import Column, Schema
    from ..relational.types import SqlType

    bundle = load_bundle(path)
    truncated = [name for name, spec in bundle["tables"].items()
                 if spec.get("truncated")]
    if truncated:
        raise ValueError(
            f"bundle {path} truncated tables {truncated}; replay would"
            " run against partial data")
    # Keys the engine no longer has (``executor``, recorded by bundles
    # from before the hash operators had one implementation) are ignored.
    config = bundle["engine"]
    database = Database(storage=config["storage"])
    for name, spec in bundle["tables"].items():
        schema = Schema(
            tuple(Column(column_name, SqlType[type_name])
                  for column_name, type_name in spec["columns"]),
            tuple(spec.get("primary_key", ())))
        table = database.create_table(name, schema)
        table.insert_many(spec["rows"])
    engine = Engine(config["dialect"], database=database,
                    mode=config["mode"], optimizer=config["optimizer"],
                    storage=config["storage"])
    engine.union_by_update_strategy = config["union_by_update_strategy"]
    recorded_error = bundle.get("error")
    try:
        result = engine.execute(bundle["sql"])
    except RelationalError as error:
        if recorded_error is None:
            return ReplayOutcome(
                bundle=path, reason=bundle["reason"], outcome="error",
                reproduced=False, error_type=type(error).__name__,
                detail=f"replay raised {type(error).__name__} but the"
                       f" bundle recorded a successful result: {error}")
        same = type(error).__name__ == recorded_error["type"]
        return ReplayOutcome(
            bundle=path, reason=bundle["reason"], outcome="error",
            reproduced=same, error_type=type(error).__name__,
            detail=(f"replay raised {type(error).__name__}"
                    f" (recorded {recorded_error['type']}): {error}"))
    if recorded_error is not None:
        return ReplayOutcome(
            bundle=path, reason=bundle["reason"], outcome="result",
            reproduced=False, rows=len(result),
            detail=f"replay returned {len(result)} row(s) but the bundle"
                   f" recorded {recorded_error['type']}")
    digest = result_digest(result.rows)
    recorded_digest = bundle.get("result_digest")
    if recorded_digest is None:
        return ReplayOutcome(
            bundle=path, reason=bundle["reason"], outcome="result",
            reproduced=True, rows=len(result),
            detail=f"replay returned {len(result)} row(s);"
                   " bundle carried no digest to compare")
    same = digest == recorded_digest
    return ReplayOutcome(
        bundle=path, reason=bundle["reason"], outcome="result",
        reproduced=same, rows=len(result),
        detail=(f"result digest {'matches' if same else 'differs from'}"
                f" the recorded one ({len(result)} row(s))"))
