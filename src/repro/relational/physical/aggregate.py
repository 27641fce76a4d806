"""Aggregation operators: hash-based and sort-based.

Hash aggregation (one dict pass) is the plan Oracle's profile uses; sort
aggregation (sort the input on the grouping key, then fold runs) is the
costlier strategy the DB2 profile is configured with, and the one the
PostgreSQL profile falls back to alongside merge joins.  Both produce
identical results; only the constant factors differ — which is the point.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator, Sequence

from ..errors import ExecutionError
from ..expressions import (
    BoundColumn,
    Expression,
    bind,
    compile_expression,
    compile_key_function,
    single_column_getter,
)
from ..relation import AggregateSpec, _finish_aggregate, require_numeric
from ..schema import Column, Schema
from ..types import SqlType
from .base import PhysicalOperator
from .batch import (
    REPLAYED_ERRORS,
    ListOperator,
    batch_source,
    block_eligible,
    materialize,
)
from .blocks import (
    _none_free,
    clean_numeric,
    compile_vector,
    grouped_count,
    grouped_max,
    grouped_min,
    grouped_sum,
    int_keys,
)


class _AggregateBase(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, keys: Sequence[Expression],
                 aggregates: Sequence[AggregateSpec],
                 key_aliases: Sequence[str] | None = None):
        self.child = child
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        self._bound_keys = [bind(k, child.schema) for k in keys]
        self._bound_args = [bind(a.argument, child.schema)
                            if a.argument is not None else None
                            for a in aggregates]
        self._key_fn = compile_key_function(self._bound_keys)
        self._arg_fns = [compile_expression(a) if a is not None else None
                         for a in self._bound_args]
        if key_aliases is None:
            key_aliases = []
            for key in keys:
                name = getattr(key, "name", None) or key.sql()
                key_aliases.append(name)
        columns = [Column(alias, SqlType.DOUBLE)
                   for alias in key_aliases]
        columns += [Column(a.alias, SqlType.DOUBLE) for a in self.aggregates]
        self._schema = Schema(tuple(columns))

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def detail(self) -> str:
        keys = ", ".join(k.sql() for k in self.keys)
        aggs = ", ".join(f"{a.function}(...) AS {a.alias}"
                         for a in self.aggregates)
        return f"group by [{keys}] compute [{aggs}]" if keys else aggs

    def _emit(self, key: tuple, buckets: list[list[Any]]) -> tuple:
        return key + tuple(_finish_aggregate(spec.function, values)
                           for spec, values in zip(self.aggregates, buckets))


#: Sentinel distinguishing "group not seen" from a NULL accumulator.
_MISSING = object()


class HashAggregate(_AggregateBase, ListOperator):
    """Single-pass dict grouping with incremental scalar accumulators.

    One running scalar per (group, aggregate), with the overwhelmingly
    common single-aggregate case (PageRank's ``sum``, WCC/SSSP's ``min``)
    specialised down to a dict-get / compare / dict-set loop, and whole
    key/value column folds over a block pipeline.
    """

    label = "Hash Aggregate"

    def __init__(self, child, keys, aggregates, key_aliases=None):
        super().__init__(child, keys, aggregates, key_aliases)
        self._scalar_key = single_column_getter(self._bound_keys)
        # Single-column key + single-column argument (PageRank, WCC, SSSP
        # all fit): one two-slot itemgetter yields (key, value) pairs in C
        # instead of two Python-level calls per row.
        self._kv_getter = None
        if (self._scalar_key is not None and len(self._bound_args) == 1
                and isinstance(self._bound_args[0], BoundColumn)):
            self._kv_getter = itemgetter(self._bound_keys[0].index,
                                         self._bound_args[0].index)

    # -- single-aggregate fast paths -----------------------------------
    def _block_single(self, function: str) -> list[tuple] | None:
        """Whole-column grouped aggregation over a block pipeline.

        Speculative: an ``ArithmeticError`` or ``TypeError``
        (heterogeneous values) returns None and the caller replays the
        row path, reproducing its exact result or error.
        """
        try:
            src = batch_source(self.child)
            if src is None:
                return None
            keys = src.column(self._bound_keys[0].index)
            if not int_keys(keys):
                return None
            arg_expr = self._bound_args[0] if self._bound_args else None
            if function == "count":
                if arg_expr is not None:
                    vector = compile_vector(arg_expr)
                    if vector is None or not _none_free(vector(src)):
                        return None
                return grouped_count(keys)
            if arg_expr is None:
                return None
            vector = compile_vector(arg_expr)
            if vector is None:
                return None
            values = vector(src)
            if not clean_numeric(values):
                return None
            if function == "sum":
                return grouped_sum(keys, values)
            if function == "min":
                return grouped_min(keys, values)
            if function == "max":
                return grouped_max(keys, values)
            return None
        except REPLAYED_ERRORS:
            return None

    def _compute_single(self, function: str, arg) -> list[tuple]:
        if self._scalar_key is not None and block_eligible(self):
            fast = self._block_single(function)
            if fast is not None:
                return fast
        key_fn = self._scalar_key or self._key_fn
        acc: dict[Any, Any] = {}
        get = acc.get
        child_rows = materialize(self.child)
        if not child_rows and not self.keys:
            return [self._empty_row()]
        if arg is not None:
            if self._kv_getter is not None:
                pairs = map(self._kv_getter, child_rows)
            else:
                # Listcomp, not genexpr: the accumulation loops below then
                # unpack plain tuples with no generator frame switches.
                pairs = [(key_fn(row), arg(row)) for row in child_rows]
        if function == "count":
            if arg is None:
                for key in map(key_fn, child_rows):
                    acc[key] = get(key, 0) + 1
            else:
                for key, value in pairs:
                    if value is not None:
                        acc[key] = get(key, 0) + 1
                    elif key not in acc:
                        acc[key] = 0
        elif function == "sum":
            # The numeric guard runs only when a group's accumulator is
            # first written (cold path); heterogeneous late rows surface
            # as a TypeError from ``+`` and are normalised below so every
            # aggregation path raises the same ExecutionError.
            try:
                for key, value in pairs:
                    current = get(key, _MISSING)
                    if current is _MISSING:
                        require_numeric(function, value)
                        acc[key] = value
                    elif value is not None:
                        if current is None:
                            require_numeric(function, value)
                            acc[key] = value
                        else:
                            acc[key] = current + value
            except TypeError:
                raise ExecutionError(
                    f"{function}() requires numeric values") from None
        elif function == "min":
            for key, value in pairs:
                current = get(key, _MISSING)
                if current is _MISSING:
                    acc[key] = value
                elif value is not None and (current is None
                                            or value < current):
                    acc[key] = value
        elif function == "max":
            for key, value in pairs:
                current = get(key, _MISSING)
                if current is _MISSING:
                    acc[key] = value
                elif value is not None and (current is None
                                            or value > current):
                    acc[key] = value
        else:  # avg
            counts: dict[Any, int] = {}
            try:
                for key, value in pairs:
                    if value is not None:
                        current = get(key)
                        if current is None:
                            require_numeric(function, value)
                            acc[key] = value
                        else:
                            acc[key] = current + value
                        counts[key] = counts.get(key, 0) + 1
                    elif key not in acc:
                        acc[key] = None
            except TypeError:
                raise ExecutionError(
                    f"{function}() requires numeric values") from None
            if self._scalar_key is not None:
                return [(key, None if key not in counts
                         else acc[key] / counts[key])
                        for key in acc]
            return [key + (None if key not in counts
                           else acc[key] / counts[key],)
                    for key in acc]
        if not self.keys and not acc:
            return [self._empty_row()]
        if self._scalar_key is not None:
            return [(key, value) for key, value in acc.items()]
        return [key + (value,) for key, value in acc.items()]

    def _empty_row(self) -> tuple:
        values = []
        for spec in self.aggregates:
            values.append(0 if spec.function == "count" else None)
        return tuple(values)

    # -- generic path --------------------------------------------------
    def _compute(self) -> list[tuple]:
        if len(self.aggregates) == 1:
            spec = self.aggregates[0]
            return self._compute_single(spec.function, self._arg_fns[0])
        key_fn = self._scalar_key or self._key_fn
        arg_fns = self._arg_fns
        functions = [spec.function for spec in self.aggregates]
        n = len(functions)
        # slot layout: running scalar per aggregate; avg uses (sum, count)
        groups: dict[Any, list[Any]] = {}
        counts_needed = any(f == "avg" for f in functions)
        avg_counts: dict[Any, list[int]] = {} if counts_needed else {}
        for row in materialize(self.child):
            key = key_fn(row)
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = [0 if f == "count" else None
                                        for f in functions]
                if counts_needed:
                    avg_counts[key] = [0] * n
            for i in range(n):
                arg = arg_fns[i]
                function = functions[i]
                if function == "count":
                    if arg is None or arg(row) is not None:
                        bucket[i] += 1
                    continue
                value = arg(row)
                if value is None:
                    continue
                current = bucket[i]
                if function == "sum" or function == "avg":
                    if current is None:
                        require_numeric(function, value)
                        bucket[i] = value
                    else:
                        try:
                            bucket[i] = current + value
                        except TypeError:
                            raise ExecutionError(
                                f"{function}() requires numeric values"
                            ) from None
                    if function == "avg":
                        avg_counts[key][i] += 1
                elif function == "min":
                    if current is None or value < current:
                        bucket[i] = value
                else:  # max
                    if current is None or value > current:
                        bucket[i] = value
        if not self.keys and not groups:
            return [self._empty_row()]
        out: list[tuple] = []
        scalar = self._scalar_key is not None
        for key, bucket in groups.items():
            values = []
            for i in range(n):
                if functions[i] == "avg":
                    count = avg_counts[key][i]
                    values.append(None if count == 0 else bucket[i] / count)
                else:
                    values.append(bucket[i])
            prefix = (key,) if scalar else key
            out.append(prefix + tuple(values))
        return out


class SortAggregate(_AggregateBase):
    """Sort the input on the grouping key, then fold consecutive runs."""

    label = "Sort Aggregate"

    def rows(self) -> Iterator[tuple]:
        key_fn = self._key_fn
        arg_fns = self._arg_fns
        annotated = [(key_fn(row), row) for row in self.child.rows()]
        annotated.sort(key=lambda kr: tuple((v is None, v) for v in kr[0]))
        if not annotated:
            if not self.keys:
                yield self._emit((), [[] for _ in self.aggregates])
            return
        current_key = annotated[0][0]
        bucket: list[list[Any]] = [[] for _ in self.aggregates]
        for key, row in annotated:
            if key != current_key:
                yield self._emit(current_key, bucket)
                current_key = key
                bucket = [[] for _ in self.aggregates]
            for slot, arg in zip(bucket, arg_fns):
                if arg is None:
                    slot.append(1)
                else:
                    value = arg(row)
                    if value is not None:
                        slot.append(value)
        yield self._emit(current_key, bucket)
