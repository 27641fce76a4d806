"""The public engine facade.

``Engine`` glues the pieces together: parse SQL text, route plain queries
through :class:`~repro.relational.sql.compiler.QueryRunner`, route
recursive ``with``/``with+`` statements through
:class:`~repro.relational.recursive.RecursiveExecutor`, and expose EXPLAIN
and SQL/PSM translation.

    >>> from repro.relational import Engine
    >>> engine = Engine(dialect="oracle")
    >>> engine.database.load_edge_table("E", [(1, 2), (2, 3)])  # doctest: +ELLIPSIS
    <table E ...>
    >>> engine.execute("SELECT count(*) AS m FROM E").rows
    ((2,),)

Every engine carries a :class:`repro.observability.Telemetry` bundle.
Cheap accounting (phase wall times, the query log, plan/replan counters)
is always on; per-operator tracing is opt-in via ``Engine(telemetry="on")``
and adds parse → plan → optimize → execute spans with nested per-operator
children, exportable as JSON or Chrome trace events.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..observability import (
    QueryTelemetry,
    Telemetry,
    attach_operator_spans,
    record_drift_metrics,
    record_plan_metrics,
    record_storage_metrics,
    resolve_telemetry,
    result_digest,
)
from .database import Database
from .dialects import Dialect, get_dialect
from .errors import FeatureNotSupportedError, RelationalError
from .parallel import WorkerPool, record_parallel_metrics, resolve_parallel
from .physical import (execute_analyzed, explain_plan, instrument,
                       render_analysis)
from .planner import POLICIES, PlannerPolicy
from .psm import PsmProgram, translate_with_to_psm
from .recursive import (
    RecursiveExecutor,
    WithExecutionResult,
    cte_is_recursive,
)
from .relation import Relation
from .schema import Column, Schema, SqlType
from .sql.ast import AnalyzeStatement, Statement, WithStatement
from .sql.compiler import QueryRunner
from .sql.parser import parse_statement

#: Schema of the virtual ``__iterations__`` relation the engine refreshes
#: after every recursive statement (fixpoint introspection — queryable
#: with plain SELECTs).
ITERATIONS_SCHEMA = Schema((
    Column("iteration", SqlType.INTEGER),
    Column("delta_rows", SqlType.INTEGER),
    Column("total_rows", SqlType.INTEGER),
    Column("ms", SqlType.DOUBLE),
    Column("inserted", SqlType.INTEGER),
    Column("overwritten", SqlType.INTEGER),
    Column("pruned", SqlType.INTEGER),
    Column("antijoin_pruned", SqlType.INTEGER),
))


class Engine:
    """A single-session engine bound to a dialect profile.

    Parameters
    ----------
    dialect:
        ``"oracle"``, ``"db2"``, ``"postgres"``, or a :class:`Dialect`.
    database:
        An existing catalog to attach to; a fresh one by default.
    mode:
        ``"with+"`` (default) accepts the paper's enhanced recursion;
        ``"with"`` enforces the dialect's SQL'99 Table-1 restrictions.
    optimizer:
        ``"off"`` (default) keeps the dialect's modelled planner policy;
        ``"cost"`` replaces it with the statistics-driven
        :class:`~repro.relational.planner.CostBasedPolicy` (cardinality
        estimation, join reordering, pushdown, build-side choice, and
        iteration-adaptive replanning).  The default stays off so the
        three dialect profiles keep reproducing the paper's plans.
    replan_factor:
        With the cost-based optimizer, a cached recursive branch plan is
        thrown away and replanned when the loop's observed delta
        cardinality drifts from the planned cardinality by more than
        this factor (in either direction).
    telemetry:
        ``"off"`` (default) keeps the always-on-cheap accounting only:
        phase timings, the query log, and engine counters.  ``"on"``
        additionally enables tracing — nested spans with per-operator
        timings (which *does* add per-row instrumentation cost).  An
        existing :class:`repro.observability.Telemetry` may be passed to
        share one registry across several engines.  ``None`` (default)
        reads the ``REPRO_TELEMETRY`` environment variable, then
        ``"off"``.  Telemetry composes with ``parallel``: worker
        processes record their own spans/counters and ship them back for
        merging, so tracing no longer forces serial execution.
    storage:
        Physical table storage: ``"columnar"`` (column vectors in morsel
        blocks — see ``docs/storage.md``) or ``"rows"`` (list of row
        tuples).  ``None`` (default) keeps the attached database's
        backend (itself defaulting to the ``REPRO_STORAGE`` environment
        variable, then ``"columnar"``).  Table loads keep their rows
        unencoded until ``compact()``.  Results are identical across
        backends; only the physical layout — and the operators' ability
        to run block kernels over it — differs.
    parallel:
        Worker count for partitioned parallel execution (see
        ``docs/parallel.md``).  ``0``/``1`` stays serial; ``N >= 2``
        hash-partitions eligible plans across a persistent
        ``multiprocessing`` worker pool (shared per process and created
        lazily on the first eligible query).  ``None`` (default) reads
        the ``REPRO_PARALLEL`` environment variable, then ``0``.
        Results are byte-identical to serial execution — parallelism
        changes wall time, never answers or iteration counts.
    """

    def __init__(self, dialect: str | Dialect = "oracle",
                 database: Database | None = None, mode: str = "with+",
                 optimizer: str = "off",
                 replan_factor: float = 8.0,
                 telemetry: str | bool | Telemetry | None = None,
                 storage: str | None = None,
                 parallel: int | None = None):
        self.dialect = (dialect if isinstance(dialect, Dialect)
                        else get_dialect(dialect))
        if storage is not None and storage not in ("rows", "columnar"):
            raise ValueError(
                f"unknown storage {storage!r}; expected 'rows' or 'columnar'")
        self.database = (database if database is not None
                         else Database(storage=storage))
        if storage is not None:
            # Tables created from here on (including the recursive loop's
            # temp tables) use the requested backend; existing tables keep
            # whatever they were created with.
            self.database.storage = storage
        self.storage = self.database.storage
        if optimizer not in ("off", "cost"):
            raise ValueError(
                f"unknown optimizer {optimizer!r}; expected 'off' or 'cost'")
        self.optimizer = optimizer
        if optimizer == "cost":
            self.policy: PlannerPolicy = POLICIES["cost-based"](
                replan_factor=replan_factor, storage=self.storage)
        else:
            self.policy = POLICIES[self.dialect.policy_name]()
        self.mode = mode
        self._ubu_strategy: str | None = None
        self.temp_indexes: dict[str, Sequence[str]] = {}
        self.parallel = resolve_parallel(parallel)
        self._parallel_pool: WorkerPool | None = None
        #: worker count the last statement actually fanned out to
        #: (0 = serial, including cost-rule declines and degradations) —
        #: recorded in the query log and the root query span.
        self._last_parallel = 0
        if telemetry is None:
            telemetry = os.environ.get("REPRO_TELEMETRY") or "off"
        self.telemetry = resolve_telemetry(telemetry)
        # Planner policies count operator choices into the shared registry.
        self.policy.metrics = self.telemetry.metrics
        self._refreshes_seen = 0
        #: (title, plan, stats) triples from the current statement's
        #: instrumented plans — the flight recorder renders these into
        #: est-vs-actual reports when it snapshots a bundle.
        self._instrumented: list[tuple[str, object, dict]] = []

    # -- configuration -----------------------------------------------------------

    @property
    def tracer(self):
        """The engine's :class:`repro.observability.Tracer`."""
        return self.telemetry.tracer

    @property
    def metrics(self):
        """The engine's :class:`repro.observability.MetricsRegistry`.

        Access refreshes the storage-layer gauges (index maintenance and
        compression counters live as table/store attributes between
        collections), so readers always see current values next to the
        operator metrics.
        """
        record_storage_metrics(self.telemetry.metrics, self.database)
        pool = self._parallel_pool
        if pool is None and self.parallel >= 2:
            # The engine may not have engaged the (shared) pool itself
            # yet; scrape-time collection still reflects whatever pool
            # of this size already exists, without forking one.
            pool = WorkerPool.peek(self.parallel)
        if pool is not None:
            record_parallel_metrics(self.telemetry.metrics, pool)
        return self.telemetry.metrics

    def parallel_pool(self) -> WorkerPool | None:
        """The shared worker pool for this engine's ``parallel`` setting,
        created lazily on first use (``None`` when running serial).

        This is the *provider* the parallel placement rule and fixpoint
        driver call only after a query proves eligible — engines with
        ``parallel=N`` that never run an eligible query never fork."""
        if self.parallel < 2:
            return None
        if self._parallel_pool is None or not self._parallel_pool.usable():
            self._parallel_pool = WorkerPool.shared(self.parallel)
        return self._parallel_pool

    @property
    def query_log(self):
        """The engine's :class:`repro.observability.QueryLog`."""
        return self.telemetry.query_log

    @property
    def union_by_update_strategy(self) -> str:
        return self._ubu_strategy or self.dialect.default_union_by_update

    @union_by_update_strategy.setter
    def union_by_update_strategy(self, strategy: str | None) -> None:
        if strategy is not None and \
                not self.dialect.supports_union_by_update(strategy):
            raise FeatureNotSupportedError(
                self.dialect.name, f"union-by-update strategy {strategy}")
        self._ubu_strategy = strategy

    def set_temp_indexes(self, indexes: dict[str, Sequence[str]]) -> None:
        """Columns to index (sorted index) on each temp table the recursive
        executor creates — the Fig 10 experiment's knob."""
        self.temp_indexes = dict(indexes)

    # -- execution ----------------------------------------------------------------

    def execute(self, sql: str | Statement, mode: str | None = None) -> Relation:
        """Run a statement and return its result relation."""
        return self.execute_detailed(sql, mode=mode).relation

    def execute_detailed(self, sql: str | Statement,
                         mode: str | None = None,
                         warm_start: dict[str, Relation] | None = None
                         ) -> WithExecutionResult:
        """Run a statement, returning per-iteration statistics for
        recursive queries (used by the Fig 12/13 benchmarks) with a
        ``.telemetry`` summary attached.

        *warm_start* maps recursive-CTE names to seed relations used in
        place of their initial branches — the streaming layer resumes a
        fixpoint from a prior result this way (see docs/streaming.md)."""
        tracer = self.telemetry.tracer
        phases: dict[str, float] = {}
        sql_text = sql if isinstance(sql, str) else type(sql).__name__
        self._instrumented = []
        self._last_parallel = 0
        total_started = time.perf_counter()
        try:
            with tracer.span("query", sql=sql_text,
                             **self._config_labels()) as query_span:
                started = time.perf_counter()
                with tracer.span("parse"):
                    statement = (parse_statement(sql) if isinstance(sql, str)
                                 else sql)
                phases["parse"] = (time.perf_counter() - started) * 1000
                if isinstance(statement, AnalyzeStatement):
                    kind = "analyze"
                    started = time.perf_counter()
                    with tracer.span("execute"):
                        result = WithExecutionResult(
                            relation=self._run_analyze(statement))
                    phases["execute"] = \
                        (time.perf_counter() - started) * 1000
                elif isinstance(statement, WithStatement) and \
                        any(cte_is_recursive(c) for c in statement.ctes):
                    kind = "recursive"
                    result = self._execute_recursive(statement, mode, tracer,
                                                     phases, query_span,
                                                     warm_start=warm_start)
                else:
                    kind = "select"
                    result = self._execute_plain(statement, tracer, phases)
        except RelationalError as error:
            total_ms = (time.perf_counter() - total_started) * 1000
            self._record_failure(sql_text, total_ms, phases, error)
            raise
        total_ms = (time.perf_counter() - total_started) * 1000
        self._record_query(sql_text, kind, total_ms, phases, result,
                           query_span)
        return result

    def _execute_recursive(self, statement: WithStatement, mode, tracer,
                           phases, query_span,
                           warm_start: dict[str, Relation] | None = None
                           ) -> WithExecutionResult:
        """The with+ path: planning happens *inside* the loop (branch plans
        are compiled, cached, and replanned there), so the plan phase is
        the executor's accumulated compile time and the remainder of the
        loop's wall time is the execute phase."""
        executor = RecursiveExecutor(
            self.database, self.dialect, self.policy,
            mode=mode or self.mode,
            ubu_strategy=self._ubu_strategy,
            temp_indexes=self.temp_indexes,
            telemetry=self.telemetry,
            parallel_pool_provider=(self.parallel_pool
                                    if self.parallel >= 2 else None),
            warm_start=warm_start)
        started = time.perf_counter()
        profiler = self.telemetry.profiler
        with tracer.span("execute") as exec_span:
            result = executor.execute(statement)
            self._last_parallel = getattr(executor, "parallel_used", 0)
            for title, plan, plan_stats in executor.instrumented_plans():
                if exec_span is not None:
                    root_stats = plan_stats.get(plan)
                    section = exec_span.child(
                        f"plan:{title}",
                        duration=root_stats.seconds if root_stats else 0.0)
                    attach_operator_spans(section, plan, plan_stats)
                record_plan_metrics(self.telemetry.metrics, plan,
                                    plan_stats)
                record_drift_metrics(self.telemetry.metrics, plan,
                                     plan_stats)
                if profiler.enabled:
                    profiler.record_plan("recursive", title, plan,
                                         plan_stats, storage=self.storage)
                self._instrumented.append((title, plan, plan_stats))
        elapsed_ms = (time.perf_counter() - started) * 1000
        plan_ms = executor.plan_seconds * 1000
        phases["plan"] = plan_ms
        phases["execute"] = max(elapsed_ms - plan_ms, 0.0)
        if query_span is not None:
            # A synthetic sibling so traces show the compile share even
            # though the compiles are interleaved with the loop.
            query_span.child("plan", duration=executor.plan_seconds)
        self._publish_iterations(result)
        return result

    def _execute_plain(self, statement: Statement, tracer,
                       phases) -> WithExecutionResult:
        runner = QueryRunner(self.database, self.policy)
        profiler = self.telemetry.profiler
        observe = tracer.enabled or profiler.enabled
        started = time.perf_counter()
        with tracer.span("plan"):
            plan = runner.plan(statement)
            if self.parallel >= 2:
                # The parallel placement rule.  Workers carry their own
                # telemetry shard and ship spans/counters back with the
                # results, so observing no longer forces serial.
                from .parallel.plain import maybe_parallel_plan

                plan = maybe_parallel_plan(plan, self.parallel_pool,
                                           self.parallel,
                                           telemetry=self.telemetry)
        phases["plan"] = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        with tracer.span("optimize"):
            # Estimate annotation is EXPLAIN/trace decoration; operator
            # selection itself happened inside plan() via the policy.
            # The profiler needs it too — drift accounting compares the
            # annotations against observed cardinalities.
            if observe:
                self._annotate_estimates(plan)
        phases["optimize"] = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        with tracer.span("execute") as exec_span:
            if observe:
                plan_stats = instrument(plan)
                relation = plan.execute()
                if exec_span is not None:
                    attach_operator_spans(exec_span, plan, plan_stats)
                record_plan_metrics(self.telemetry.metrics, plan, plan_stats)
                record_drift_metrics(self.telemetry.metrics, plan,
                                     plan_stats)
                if profiler.enabled:
                    profiler.record_plan("select", "query", plan, plan_stats,
                                         storage=self.storage)
                self._instrumented.append(("query", plan, plan_stats))
            else:
                relation = plan.execute()
        phases["execute"] = (time.perf_counter() - started) * 1000
        self._last_parallel = getattr(plan, "engaged", 0)
        return WithExecutionResult(relation=relation)

    def _config_labels(self) -> dict[str, str]:
        """The engine knobs every root span and query-log entry carries
        (``parallel`` is added per statement: the worker count used)."""
        return {"optimizer": self.optimizer, "storage": self.storage}

    def _publish_iterations(self, result: WithExecutionResult) -> None:
        """Refresh the virtual ``__iterations__`` relation with the just-run
        loop's per-iteration trajectory (queryable via plain SELECT)."""
        rows = [(s.iteration, s.delta_rows, s.total_rows,
                 s.seconds * 1000.0, s.inserted, s.overwritten, s.pruned,
                 s.antijoin_pruned) for s in result.per_iteration]
        self.database.register("__iterations__",
                               Relation(ITERATIONS_SCHEMA, rows),
                               temporary=True)

    def _record_query(self, sql_text: str, kind: str, total_ms: float,
                      phases: dict[str, float], result: WithExecutionResult,
                      query_span) -> None:
        telemetry = self.telemetry
        rows = len(result.relation)
        entry = telemetry.query_log.record(sql_text, kind, total_ms, phases,
                                           rows=rows,
                                           iterations=result.iterations,
                                           parallel=self._last_parallel,
                                           **self._config_labels())
        if query_span is not None:
            query_span.attrs["parallel"] = self._last_parallel
        metrics = telemetry.metrics
        metrics.counter("repro_queries_total", "Statements executed.",
                        kind=kind).inc()
        metrics.histogram("repro_query_ms",
                          "Statement wall time, milliseconds."
                          ).observe(total_ms)
        for phase, ms in phases.items():
            metrics.counter("repro_phase_ms_total",
                            "Wall milliseconds per execution phase.",
                            phase=phase).inc(ms)
        if entry.slow:
            metrics.counter("repro_slow_queries_total",
                            "Statements at/over the slow-query threshold."
                            ).inc()
        metrics.counter("repro_iterations_total",
                        "Recursive with+ loop iterations."
                        ).inc(result.iterations)
        metrics.counter("repro_plans_compiled_total",
                        "Statements compiled to physical plans in the"
                        " recursive loop.").inc(result.plans_compiled)
        metrics.counter("repro_plan_cache_hits_total",
                        "Cached plans re-executed instead of recompiled."
                        ).inc(result.plan_cache_hits)
        metrics.counter("repro_replans_total",
                        "Cached plans dropped for cardinality drift."
                        ).inc(result.replans)
        estimator = getattr(self.policy, "estimator", None)
        if estimator is not None and \
                estimator.refreshes > self._refreshes_seen:
            metrics.counter("repro_stats_refreshes_total",
                            "Statistics refreshes.", source="estimator"
                            ).inc(estimator.refreshes - self._refreshes_seen)
            self._refreshes_seen = estimator.refreshes
        telemetry.profiler.record_query(kind, phases, result.per_iteration)
        if entry.slow and telemetry.flight is not None:
            telemetry.flight.record(
                self, reason="slow", sql=sql_text, kind=kind,
                total_ms=total_ms, phases=phases, rows=rows,
                iterations=result.iterations, span=query_span,
                per_iteration=result.per_iteration,
                plan_reports=self._plan_reports(),
                digest=result_digest(result.relation.rows))
        result.telemetry = QueryTelemetry(
            phases=dict(phases), rows=rows, iterations=result.iterations,
            span=query_span, per_iteration=result.per_iteration)

    def _record_failure(self, sql_text: str, total_ms: float,
                        phases: dict[str, float], error: Exception) -> None:
        """Log a failed statement and — when a flight recorder is wired —
        snapshot a diagnostic bundle before the error propagates."""
        telemetry = self.telemetry
        telemetry.query_log.record(sql_text, "error", total_ms, phases,
                                   error=type(error).__name__,
                                   parallel=self._last_parallel,
                                   **self._config_labels())
        telemetry.metrics.counter(
            "repro_query_errors_total", "Statements that raised.",
            error=type(error).__name__).inc()
        if telemetry.flight is not None:
            telemetry.flight.record(
                self, reason="error", sql=sql_text, kind="error",
                total_ms=total_ms, phases=phases, error=error,
                plan_reports=self._plan_reports())

    def _plan_reports(self) -> list[tuple[str, str]]:
        """Render the statement's instrumented plans (est vs actual) for a
        flight bundle."""
        return [(title, render_analysis(plan, stats))
                for title, plan, stats in self._instrumented]

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Start the live ops endpoint over this engine and return the
        running :class:`~repro.observability.ObservabilityServer` (its
        ``url`` property gives the bound address; call ``stop()`` to shut
        it down)."""
        from ..observability import ObservabilityServer

        server = ObservabilityServer(self, host=host, port=port)
        server.start()
        return server

    def _run_analyze(self, statement: AnalyzeStatement) -> Relation:
        """Eagerly refresh statistics: ``ANALYZE`` (all) / ``ANALYZE t``."""
        names = ([statement.table] if statement.table is not None
                 else self.database.table_names())
        rows = []
        for name in names:
            table = self.database.table(name)
            table.analyze()
            rows.append((name, table.statistics.row_count))
        if names:
            self.telemetry.metrics.counter(
                "repro_stats_refreshes_total", "Statistics refreshes.",
                source="statement").inc(len(names))
        schema = Schema((Column("table_name", SqlType.TEXT),
                         Column("row_count", SqlType.INTEGER)))
        return Relation(schema, rows)

    def _annotate_estimates(self, plan) -> None:
        """Attach ``estimated_rows`` to every node for EXPLAIN output."""
        from .optimizer import CardinalityEstimator

        estimator = getattr(self.policy, "estimator", None)
        if estimator is None:
            # Dialect policies report from whatever statistics exist but
            # never auto-refresh them — their modelled plans depend on
            # staleness (the PostgreSQL profile's merge joins).
            estimator = CardinalityEstimator(refresh=False)
        estimator.annotate(plan)

    def explain(self, sql: str | Statement) -> str:
        """Physical plan of a non-recursive statement, as indented text,
        with per-operator cardinality estimates."""
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        runner = QueryRunner(self.database, self.policy)
        plan = runner.plan(statement)
        self._annotate_estimates(plan)
        return explain_plan(plan)

    def explain_analyze(self, sql: str | Statement,
                        mode: str | None = None) -> str:
        """Execute a statement and return its plan annotated with actual
        per-operator row counts, inclusive timings, and loop counts.

        For recursive ``with``/``with+`` statements the report covers every
        cached branch plan (and COMPUTED BY feeder); since cached plans run
        once per iteration, their totals accumulate over the whole loop.
        Branches that cannot be plan-cached are re-planned each iteration
        and do not appear in the report.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, WithStatement) and \
                any(cte_is_recursive(c) for c in statement.ctes):
            executor = RecursiveExecutor(
                self.database, self.dialect, self.policy,
                mode=mode or self.mode,
                ubu_strategy=self._ubu_strategy,
                temp_indexes=self.temp_indexes,
                analyze=True)
            result = executor.execute(statement)
            return executor.analysis_report(result)
        runner = QueryRunner(self.database, self.policy)
        plan = runner.plan(statement)
        self._annotate_estimates(plan)
        _, report = execute_analyzed(plan)
        return report

    def to_psm(self, sql: str | Statement,
               procedure_name: str = "F_Q") -> PsmProgram:
        """The SQL/PSM procedure Algorithm 1 would emit for *sql*."""
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(statement, WithStatement):
            raise ValueError("to_psm expects a WITH statement")
        return translate_with_to_psm(statement, self.dialect, procedure_name)

    # -- convenience ------------------------------------------------------------------

    def load_graph(self, graph, edge_table: str = "E",
                   node_table: str = "V") -> None:
        """Load a :class:`repro.graphsystems.graph.Graph` as E(F,T,ew) and
        V(ID,vw) relations."""
        self.database.load_edge_table(
            edge_table,
            [(u, v, w) for u, v, w in graph.weighted_edges()])
        self.database.load_node_table(
            node_table,
            [(v, graph.node_weight(v)) for v in graph.nodes()])

    # -- streaming ingest --------------------------------------------------------------

    @property
    def streaming(self):
        """The lazily-created :class:`repro.streaming.StreamingManager`
        owning batched mutations and incrementally-maintained algorithm
        results for this engine (see docs/streaming.md)."""
        manager = getattr(self, "_streaming", None)
        if manager is None:
            from repro.streaming import StreamingManager

            manager = StreamingManager(self)
            self._streaming = manager
        return manager

    def apply_batch(self, inserts=None, deletes=None):
        """Apply one batched mutation: *inserts*/*deletes* map table names
        to row lists (deletes are key prefixes for keyed tables, full rows
        otherwise).  Returns a :class:`repro.streaming.BatchResult`."""
        return self.streaming.apply_batch(inserts=inserts, deletes=deletes)
