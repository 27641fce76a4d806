"""The traced run: per-layer self time and counts, measured from outside.

:class:`LayerTrace` wraps the public functions of each engine layer with
timing probes — from the benchmark's own files, so the engine carries no
benchmark code.  A layer is a module of the engine:

=============  ==========================================================
layer          probed functions
=============  ==========================================================
``sql``        ``parse_statement``, ``QueryRunner.plan``
``recursive``  ``RecursiveExecutor.execute`` (minus the nested layers)
``physical``   ``rows``/``execute`` of every ``PhysicalOperator`` class,
               grouped by operator kind (join, antijoin, aggregate,
               project, filter, scan, other)
``strategies`` ``apply_union_by_update``
``table``      ``Database`` loads (``load_edge_table``,
               ``load_node_table``, ``register``) and the ``Table`` insert,
               merge and delete paths
``columnar``   ``ColumnBlock.seal``, ``ColumnBlock.decode_column``
``streaming``  ``StreamingManager.apply_batch``, each view's ``prepare``
               and ``refresh``
=============  ==========================================================

Probes nest: each keeps a frame on one stack, and a layer's *self* time is
its frames' wall time minus the time of frames opened inside them, so the
layer self times plus ``unattributed_ms`` add up to the traced wall time.
Operator rows are pulled lazily, so every row pull is its own frame.

Coarse calls are also recorded as :mod:`repro.observability.tracing` spans
(operator invocations as synthetic children), kept in memory and written
once at the end with the existing Chrome trace-event export.  A probe
whose target no longer exists is skipped, so removing an engine function
never breaks the benchmark; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

from repro.observability.tracing import Tracer

_now = time.perf_counter

#: Operator kinds reported as ``physical.<kind>_ms``.
OPERATOR_KINDS = ("join", "antijoin", "aggregate", "project", "filter",
                  "scan", "other")

#: Timed layer keys, in report order, with the metric each one feeds.
TIMED_METRICS = {
    "sql.parse": "sql.parse_ms",
    "sql.plan": "sql.plan_ms",
    "recursive": "recursive.self_ms",
    **{f"physical.{kind}": f"physical.{kind}_ms" for kind in OPERATOR_KINDS},
    "strategies.ubu": "strategies.ubu_ms",
    "table.load": "table.load_ms",
    "table.write": "table.write_ms",
    "columnar.seal": "columnar.seal_ms",
    "columnar.decode": "columnar.decode_ms",
    "streaming.apply": "streaming.apply_ms",
    "streaming.prepare": "streaming.prepare_ms",
    "streaming.maintain": "streaming.maintain_ms",
}

#: Table write paths (insert, merge and delete).
TABLE_WRITES = ("insert", "insert_many", "insert_relation", "merge_by_key",
                "update_from", "apply_delta_by_key", "merge_delta_rebuild",
                "delete_by_key", "delete_where", "replace_contents",
                "truncate")


def operator_kind(cls: type) -> str:
    """The ``physical.*`` bucket of an operator class, by its name."""
    name = cls.__name__.lower()
    if "antijoin" in name:
        return "antijoin"
    if "join" in name:
        return "join"
    if "aggregate" in name:
        return "aggregate"
    if "scan" in name:
        return "scan"
    if "filter" in name:
        return "filter"
    if any(part in name for part in ("project", "prune", "reorder",
                                     "requalify")):
        return "project"
    return "other"


def _resolve(path: str) -> Any:
    """``module:attr.attr`` -> object, or ``None`` when it is gone."""
    module_name, _, attr_path = path.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in attr_path.split(".") if attr_path else ():
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class _TimedRows:
    """An operator's row iterator with every pull timed as a frame."""

    __slots__ = ("trace", "key", "op", "iterator", "span", "rows")

    def __init__(self, trace: "LayerTrace", key: str, op: Any, iterator,
                 span):
        self.trace = trace
        self.key = key
        self.op = op
        self.iterator = iterator
        self.span = span
        self.rows = 0

    def __iter__(self):
        return self

    def __next__(self):
        trace = self.trace
        frame = trace.push(self.key, self.op)
        try:
            row = next(self.iterator)
        except StopIteration:
            self._close(trace.pop(frame))
            raise
        except BaseException:
            trace.pop(frame)
            raise
        end = trace.pop(frame)
        self.rows += 1
        trace.rows_out += 1
        if self.span is not None:
            self.span.duration = end - trace.epoch - self.span.start
        return row

    def _close(self, end: float) -> None:
        if self.span is not None:
            self.span.duration = end - self.trace.epoch - self.span.start
            self.span.attrs["rows"] = self.rows


class LayerTrace:
    """Installs the probes, accumulates self time and counts."""

    def __init__(self):
        self.tracer = Tracer()
        self.epoch = _now()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: frames: [key, start, child seconds, owner]
        self.stack: list[list] = []
        self.active = False
        self.rows_out = 0
        self.iterations = 0
        self.iter_ms: list[float] = []
        self.plan_cache_hits = 0
        self.plans_compiled = 0
        self.delta_rows = 0
        self.useful_rows = 0
        self.refreshes = 0
        self.incremental_refreshes = 0
        self.logged_statements = 0
        self.parallel_statements = 0
        self._undo: list[tuple[Any, str, Any]] = []
        self._kinds: dict[type, str] = {}

    # -- frames ------------------------------------------------------------------

    def push(self, key: str, owner: Any = None) -> list:
        frame = [key, _now(), 0.0, owner]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> float:
        """Close *frame*; returns the clock reading at its end."""
        end = _now()
        self.stack.pop()
        elapsed = end - frame[1]
        self.self_s[frame[0]] += elapsed - frame[2]
        self.calls[frame[0]] += 1
        if self.stack:
            self.stack[-1][2] += elapsed
        return end

    def span_now(self) -> float:
        return _now() - self.epoch

    @contextmanager
    def activated(self, name: str):
        """Probes record inside the block, under a root span *name*."""
        with self.tracer.span(name):
            self.active = True
            try:
                yield
            finally:
                self.active = False

    # -- installing probes -------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_function(self, path: str, wrapper_factory) -> None:
        """Replace a module-level function wherever ``repro`` modules
        imported it by name."""
        module_name, _, name = path.partition(":")
        module = _resolve(module_name)
        original = getattr(module, name, None) if module else None
        if original is None:
            return
        wrapped = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    mod is not None and mod.__dict__.get(name) is original:
                self._patch(mod, name, wrapped)

    def _patch_method(self, path: str, wrapper_factory) -> None:
        owner_path, _, name = path.rpartition(".")
        owner = _resolve(owner_path)
        if owner is None or name not in owner.__dict__:
            return
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            self._patch(owner, name, classmethod(wrapper_factory(raw.__func__)))
        else:
            self._patch(owner, name, wrapper_factory(raw))

    def _call_probe(self, key: str, span: bool = True,
                    absorbed_by: tuple[str, ...] = (),
                    on_result: Callable | None = None):
        """Wrapper factory timing a call as a *key* frame.  Calls made
        while a frame of *key* or of *absorbed_by* is on top pass through
        untimed (their time stays with that frame)."""
        absorbing = {key, *absorbed_by}
        trace = self

        def factory(original):
            def probe(*args, **kwargs):
                stack = trace.stack
                if not trace.active or (stack and stack[-1][0] in absorbing):
                    return original(*args, **kwargs)
                frame = trace.push(key)
                try:
                    if span:
                        with trace.tracer.span(key):
                            result = original(*args, **kwargs)
                    else:
                        result = original(*args, **kwargs)
                finally:
                    trace.pop(frame)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            return probe
        return factory

    def install(self) -> None:
        m = "repro.relational"
        self._patch_function(f"{m}.sql.parser:parse_statement",
                             self._call_probe("sql.parse"))
        self._patch_method(f"{m}.sql.compiler:QueryRunner.plan",
                           self._call_probe("sql.plan"))
        self._patch_method(f"{m}.recursive:RecursiveExecutor.execute",
                           self._call_probe("recursive",
                                            on_result=self._on_recursive))
        self._patch_function(f"{m}.strategies:apply_union_by_update",
                             self._ubu_probe)
        for name in ("load_edge_table", "load_node_table", "register"):
            self._patch_method(f"{m}.database:Database.{name}",
                               self._call_probe("table.load"))
        for name in TABLE_WRITES:
            self._patch_method(f"{m}.table:Table.{name}",
                               self._call_probe("table.write", span=False,
                                                absorbed_by=("table.load",)))
        self._patch_method(f"{m}.columnar.store:ColumnBlock.seal",
                           self._call_probe("columnar.seal", span=False))
        self._patch_method(f"{m}.columnar.store:ColumnBlock.decode_column",
                           self._call_probe("columnar.decode", span=False))
        self._patch_method("repro.streaming.manager:StreamingManager"
                           ".apply_batch", self._call_probe("streaming.apply"))
        view_base = _resolve("repro.streaming.views:StreamingView")
        for view in _subclasses(view_base) if view_base else ():
            if "prepare" in view.__dict__:
                self._patch(view, "prepare", self._call_probe(
                    "streaming.prepare")(view.__dict__["prepare"]))
            if "refresh" in view.__dict__:
                self._patch(view, "refresh", self._call_probe(
                    "streaming.maintain", on_result=self._on_refresh)(
                        view.__dict__["refresh"]))
        self._patch_method("repro.observability.querylog:QueryLog.record",
                           self._querylog_probe)
        self._install_operators()

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- probes with their own bookkeeping ---------------------------------------

    def _on_recursive(self, args, kwargs, result) -> None:
        self.iterations += getattr(result, "iterations", 0)
        self.iter_ms.extend(stat.seconds * 1000.0 for stat
                            in getattr(result, "per_iteration", ()))
        self.plan_cache_hits += getattr(result, "plan_cache_hits", 0)
        self.plans_compiled += getattr(result, "plans_compiled", 0)

    def _on_refresh(self, args, kwargs, mode) -> None:
        self.refreshes += 1
        self.incremental_refreshes += mode == "incremental"

    def _ubu_probe(self, original):
        counts_type = _resolve("repro.relational.strategies:UpdateCounts")
        timed = self._call_probe("strategies.ubu")(original)

        def probe(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if counts_type is not None and len(args) < 6 and \
                    kwargs.get("counts") is None:
                kwargs["counts"] = counts_type()
            result = timed(*args, **kwargs)
            delta = args[2] if len(args) > 2 else kwargs.get("delta")
            counts = args[5] if len(args) > 5 else kwargs.get("counts")
            self.delta_rows += len(delta) if delta is not None else 0
            if counts is not None:
                self.useful_rows += counts.inserted + counts.overwritten
            return result
        return probe

    def _querylog_probe(self, original):
        def probe(log, *args, **kwargs):
            if self.active:
                self.logged_statements += 1
                self.parallel_statements += (kwargs.get("parallel") or 0) > 0
            return original(log, *args, **kwargs)
        return probe

    # -- physical operators ------------------------------------------------------

    def _operator_key(self, cls: type) -> str:
        key = self._kinds.get(cls)
        if key is None:
            key = self._kinds[cls] = f"physical.{operator_kind(cls)}"
        return key

    def _install_operators(self) -> None:
        base = _resolve("repro.relational.physical.base:PhysicalOperator")
        if base is None:
            return
        # Operators defined outside the physical package (the parallel
        # exchange) register themselves as subclasses once imported.
        _resolve("repro.relational.parallel.plain")
        for cls in [base, *_subclasses(base)]:
            if "rows" in cls.__dict__:
                self._patch(cls, "rows", self._rows_probe(cls.__dict__["rows"]))
            if "execute" in cls.__dict__:
                self._patch(cls, "execute",
                            self._execute_probe(cls.__dict__["execute"]))

    def _operator_span(self, op: Any):
        parent = self.tracer.current()
        if parent is None:
            return None
        return parent.child(f"op:{getattr(op, 'label', type(op).__name__)}",
                            start=self.span_now(),
                            kind=self._operator_key(type(op)))

    def _rows_probe(self, original):
        trace = self

        def rows(op, *args, **kwargs):
            stack = trace.stack
            if not trace.active or (stack and stack[-1][3] is op):
                return original(op, *args, **kwargs)
            key = trace._operator_key(type(op))
            span = trace._operator_span(op)
            frame = trace.push(key, op)
            try:
                iterator = iter(original(op, *args, **kwargs))
            finally:
                end = trace.pop(frame)
            if span is not None:
                span.duration = end - trace.epoch - span.start
            return _TimedRows(trace, key, op, iterator, span)
        return rows

    def _execute_probe(self, original):
        trace = self

        def execute(op, *args, **kwargs):
            stack = trace.stack
            if not trace.active or (stack and stack[-1][3] is op):
                return original(op, *args, **kwargs)
            span = trace._operator_span(op)
            frame = trace.push(trace._operator_key(type(op)), op)
            try:
                relation = original(op, *args, **kwargs)
            finally:
                end = trace.pop(frame)
            produced = len(relation)
            trace.rows_out += produced
            if span is not None:
                span.duration = end - trace.epoch - span.start
                span.attrs["rows"] = produced
            return relation
        return execute

    # -- results -----------------------------------------------------------------

    def metrics(self, wall_s: float, untraced_wall_s: float,
                resident_bytes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        ms = {metric: self.self_s.get(key, 0.0) * 1000.0
              for key, metric in TIMED_METRICS.items()}
        attributed = sum(ms.values())

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out: dict[str, tuple[float, str]] = {
            name: (value, "ms") for name, value in ms.items()}
        out.update({
            "sql.statements": (self.calls.get("sql.parse", 0), "count"),
            "recursive.iterations": (self.iterations, "count"),
            "recursive.iter_ms_p50": (statistics.median(self.iter_ms)
                                      if self.iter_ms else 0.0, "ms"),
            "recursive.plan_cache_hit_ratio": (ratio(
                self.plan_cache_hits,
                self.plan_cache_hits + self.plans_compiled), "ratio"),
            "physical.rows_out": (self.rows_out, "count"),
            "strategies.delta_rows": (self.delta_rows, "count"),
            "strategies.useful_ratio": (ratio(self.useful_rows,
                                              self.delta_rows), "ratio"),
            "table.resident_bytes": (resident_bytes, "bytes"),
            "parallel.engaged_ratio": (ratio(self.parallel_statements,
                                             self.logged_statements),
                                       "ratio"),
            "streaming.incremental_ratio": (ratio(
                self.incremental_refreshes, self.refreshes), "ratio"),
            "unattributed_ms": (wall_s * 1000.0 - attributed, "ms"),
            "trace.overhead_ratio": (ratio(wall_s, untraced_wall_s),
                                     "ratio"),
        })
        return out

    def layer_table(self, wall_s: float) -> list[tuple[str, float]]:
        """(layer, self ms) rows that, with ``unattributed``, sum to the
        traced wall time."""
        layers: dict[str, float] = {}
        for key in TIMED_METRICS:
            layer = key.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + \
                self.self_s.get(key, 0.0) * 1000.0
        rows = list(layers.items())
        rows.append(("unattributed", wall_s * 1000.0 - sum(layers.values())))
        return rows
