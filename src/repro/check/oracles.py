"""Engine configuration matrix and the single-run oracle.

``run_scenario`` executes one scenario under one :class:`EngineConfig`
and returns a comparable *outcome*:

* ``("rows", column_names, Counter(rows))`` for plain queries —
  multiset semantics, so physical row order never matters;
* ``("rows", column_names, Counter(rows), iterations)`` for recursive
  queries — iteration counts must agree too (they are part of the
  ``maxrecursion`` contract and surface through ``__iterations__``);
* ``("error", ExceptionType, message)`` for :class:`RelationalError`
  subclasses — a *defined* failure that every configuration must agree
  on, message included;
* ``("crash", ExceptionType, message)`` for anything else escaping the
  engine — always a bug, never comparable away.

Outcomes are compared with ``==`` (never via ``repr``: ``Counter`` repr
order depends on insertion order and would fake divergences).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..relational import Engine
from ..relational.errors import RelationalError
from ..relational.schema import Column, Schema, SqlType

from .ir import Scenario, TableIR

_SQL_TYPES = {
    "int": SqlType.INTEGER,
    "double": SqlType.DOUBLE,
    "text": SqlType.TEXT,
}

#: One representative dialect per union-by-update strategy (strategies are
#: dialect-gated: merge/drop_alter need oracle or db2, update_from needs
#: postgres; full_outer_join works everywhere).
STRATEGY_DIALECTS = (
    ("merge", "oracle"),
    ("full_outer_join", "oracle"),
    ("update_from", "postgres"),
    ("drop_alter", "db2"),
)


@dataclass(frozen=True)
class EngineConfig:
    """One cell of the differential matrix."""

    dialect: str = "oracle"
    optimizer: str = "off"
    strategy: str = "full_outer_join"
    telemetry: str = "off"
    storage: str = "rows"
    parallel: int = 0

    def label(self) -> str:
        text = (f"{self.dialect}/opt={self.optimizer}"
                f"/{self.strategy}/telemetry={self.telemetry}"
                f"/{self.storage}")
        if self.parallel:
            text += f"/parallel={self.parallel}"
        return text

    def build_engine(self) -> Engine:
        engine = Engine(dialect=self.dialect, optimizer=self.optimizer,
                        telemetry=self.telemetry,
                        storage=self.storage, parallel=self.parallel)
        engine.union_by_update_strategy = self.strategy
        return engine


def default_matrix() -> tuple[EngineConfig, ...]:
    """The full 48-cell matrix: 4 strategy/dialect pairs x 2 optimizer
    settings x 2 telemetry settings x 2 storage backends, plus 16
    partitioned-execution cells (parallel=2, telemetry off *and* on —
    workers ship their telemetry shards back, so instrumented runs
    exercise the pool like any other)."""
    configs = []
    for strategy, dialect in STRATEGY_DIALECTS:
        for optimizer in ("off", "cost"):
            for telemetry in ("off", "on"):
                for storage in ("rows", "columnar"):
                    configs.append(EngineConfig(
                        dialect=dialect, optimizer=optimizer,
                        strategy=strategy, telemetry=telemetry,
                        storage=storage))
    for strategy, dialect in STRATEGY_DIALECTS:
        for telemetry in ("off", "on"):
            for storage in ("rows", "columnar"):
                configs.append(EngineConfig(
                    dialect=dialect, optimizer="off", strategy=strategy,
                    telemetry=telemetry, storage=storage, parallel=2))
    return tuple(configs)


def relevant_matrix(scenario: Scenario,
                    matrix: tuple[EngineConfig, ...]) -> \
        tuple[EngineConfig, ...]:
    """Drop cells that cannot behave differently for this scenario: the
    union-by-update strategy only matters for recursive programs, so for
    plain SELECTs configs that differ only by strategy collapse."""
    if scenario.recursive:
        return matrix
    seen: set[tuple] = set()
    out = []
    for config in matrix:
        key = (config.dialect, config.optimizer, config.telemetry,
               config.storage, config.parallel)
        if key in seen:
            continue
        seen.add(key)
        out.append(config)
    return tuple(out)


def load_tables(engine: Engine, tables: tuple[TableIR, ...],
                rename: dict[str, dict[str, str]] | None = None) -> None:
    """Materialise the scenario's tables in *engine*'s catalog, applying
    the column-rename mapping when the rename oracle asks for one."""
    mapping = rename or {}
    for table in tables:
        columns = tuple(
            Column(mapping.get(table.name, {}).get(name, name),
                   _SQL_TYPES[sql_type])
            for name, sql_type in table.columns)
        created = engine.database.create_table(
            table.name, Schema(columns), enforce_key=False)
        created.insert_many(table.rows)


Outcome = tuple


def run_scenario(scenario: Scenario, config: EngineConfig,
                 rename: dict[str, dict[str, str]] | None = None,
                 sql: str | None = None) -> Outcome:
    """Execute *scenario* under *config* and return its outcome.

    ``rename`` re-renders the program (and the DDL) under a column
    renaming; ``sql`` overrides the rendered text (for the TLP
    partition queries).  Row-order invariance is exercised by handing
    in a scenario whose tables were reshuffled upstream.
    """
    tables = scenario.tables
    try:
        engine = config.build_engine()
        load_tables(engine, tables, rename)
        text = sql if sql is not None else scenario.sql(rename)
        if scenario.recursive:
            result = engine.execute_detailed(text, mode=scenario.mode)
            relation = result.relation
            return ("rows", tuple(relation.schema.names),
                    Counter(relation.rows), result.iterations)
        relation = engine.execute(text)
        return ("rows", tuple(relation.schema.names),
                Counter(relation.rows))
    except RelationalError as exc:
        return ("error", type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 — crashes are outcomes too
        return ("crash", type(exc).__name__, str(exc))


def describe_outcome(outcome: Outcome) -> str:
    """A short human-readable rendering for divergence reports."""
    kind = outcome[0]
    if kind == "rows":
        names, rows = outcome[1], outcome[2]
        total = sum(rows.values())
        text = f"{total} row(s) of {', '.join(names)}"
        if len(outcome) > 3:
            text += f" after {outcome[3]} iteration(s)"
        sample = sorted(rows.items(), key=repr)[:4]
        if sample:
            text += " — " + "; ".join(
                f"{row!r}x{count}" for row, count in sample)
        return text
    return f"{kind}: {outcome[1]}: {outcome[2]}"
