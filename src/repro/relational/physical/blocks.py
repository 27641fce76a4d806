"""Column batches and vectorized kernels for the block pipeline.

When the batch operators run over :class:`~repro.relational.columnar`
storage, eligible operators stop exchanging row tuples and exchange
*column batches* instead: an object exposing ``length`` and
``column(j) -> list``.  Scans hand out the store's decoded vectors,
filters carry a selection index vector and gather lazily, joins produce
probe/build position vectors and gather matched columns on demand, and
aggregates fold whole key/value vectors with dict-accumulation kernels.  Row
tuples are only materialised where the pipeline ends (the plan root or
an operator without a block implementation).

Everything here is *speculative*: the dispatch in
:mod:`.batch` only takes these paths when the result is provably
identical to the row-at-a-time computation, and an ``ArithmeticError``
or ``TypeError`` raised mid-kernel makes the caller replay the operator
through the row path so error type, message and blame order match the
row engine exactly.  So a zero divisor raises ``ZeroDivisionError`` in
a column kernel, and the replayed row path raises the typed error in
row order.

Semantics mirrored from :mod:`..expressions`:

* binary operators propagate NULL (``None`` in → ``None`` out) and
  otherwise apply the raw C-level operator — :func:`compile_vector`
  checks ``None in column`` once (a C scan) and picks ``map(op, a, b)``
  or a guarded comprehension accordingly;
* aggregate kernels run the scalar loops' dict accumulation over zipped
  column vectors in row order, so float sums associate identically,
  ``min``/``max`` perform the same comparisons in the same order, and
  group output order stays first-seen.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, Sequence

try:  # optional acceleration for the grouped kernels (see below)
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

from ..expressions import (
    _RAW_BINARY_OPS,
    _sql_div,
    BinaryOp,
    BoundColumn,
    Expression,
    IsNull,
    Literal,
    Negate,
)

Vector = list
VectorFn = Callable[["ColumnBatch"], Vector]


def _vector_div(a, b):
    if b == 0:
        raise ZeroDivisionError  # replayed: the row path raises the typed error
    return _sql_div(a, b)


#: The raw operators with division swapped for its replayable form.
_VECTOR_OPS = {**_RAW_BINARY_OPS, "/": _vector_div}


class ColumnBatch:
    """A batch of rows in column-major form."""

    length: int

    def column(self, j: int) -> Vector:
        raise NotImplementedError

    def rows(self) -> list[tuple]:
        """Materialise row tuples (pipeline exit)."""
        raise NotImplementedError


class StoreColumns(ColumnBatch):
    """Columns served straight from a columnar table store."""

    def __init__(self, store):
        self._store = store
        self.length = len(store)

    def column(self, j: int) -> Vector:
        return self._store.column(j)

    def rows(self) -> list[tuple]:
        return self._store.materialized()


class RowsColumns(ColumnBatch):
    """Columns extracted lazily from an existing row list."""

    def __init__(self, rows: list[tuple], arity: int):
        self._rows = rows
        self.arity = arity
        self.length = len(rows)
        self._cache: dict[int, Vector] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            cached = self._cache[j] = list(map(itemgetter(j), self._rows))
        return cached

    def rows(self) -> list[tuple]:
        return self._rows


class DerivedColumns(ColumnBatch):
    """Computed columns (projection output), one thunk per column."""

    def __init__(self, length: int, thunks: Sequence[Callable[[], Vector]]):
        self.length = length
        self._thunks = list(thunks)
        self._cache: dict[int, Vector] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            cached = self._cache[j] = self._thunks[j]()
        return cached

    def rows(self) -> list[tuple]:
        cols = [self.column(j) for j in range(len(self._thunks))]
        if not cols:
            return [()] * self.length
        if len(cols) == 1:
            return list(zip(cols[0]))
        return list(zip(*cols))


class FilteredColumns(ColumnBatch):
    """A selection vector over a child batch; gathers columns lazily."""

    def __init__(self, child: ColumnBatch, selection: list[int]):
        self._child = child
        self.selection = selection
        self.length = len(selection)
        self._cache: dict[int, Vector] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            source = self._child.column(j)
            cached = self._cache[j] = list(
                map(source.__getitem__, self.selection))
        return cached

    def rows(self) -> list[tuple]:
        source = self._child.rows()
        return list(map(source.__getitem__, self.selection))


class ConcatColumns(ColumnBatch):
    """UNION ALL of two batches."""

    def __init__(self, left: ColumnBatch, right: ColumnBatch):
        self._left = left
        self._right = right
        self.length = left.length + right.length
        self._cache: dict[int, Vector] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            cached = self._cache[j] = (self._left.column(j)
                                       + self._right.column(j))
        return cached

    def rows(self) -> list[tuple]:
        return self._left.rows() + self._right.rows()


class JoinColumns(ColumnBatch):
    """Equi-join output as probe/build gather vectors.

    ``probe_idx[i]``/``build_pos[i]`` name the input rows behind output
    row *i*; columns are gathered on first access, so a downstream
    aggregate that touches two of five join columns never pays for the
    other three — and no concatenated row tuples exist at all.

    ``probe_idx=None`` marks the identity gather: every probe row
    matched exactly once, in order (a complete delta probing a unique
    key).  Probe columns then pass through with no copy at all.
    """

    def __init__(self, probe: ColumnBatch, build: ColumnBatch,
                 probe_idx: list[int] | None, build_pos: list[int],
                 probe_arity: int, build_arity: int, probe_is_left: bool):
        self._probe = probe
        self._build = build
        self.probe_idx = probe_idx
        self.build_pos = build_pos
        self._probe_arity = probe_arity
        self._build_arity = build_arity
        self._probe_is_left = probe_is_left
        self.length = len(build_pos)
        self._cache: dict[int, Vector] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is not None:
            return cached
        if self._probe_is_left:
            on_probe = j < self._probe_arity
            local = j if on_probe else j - self._probe_arity
        else:
            on_probe = j >= self._build_arity
            local = j - self._build_arity if on_probe else j
        if on_probe:
            source = self._probe.column(local)
            if self.probe_idx is None:
                cached = source
            else:
                cached = list(map(source.__getitem__, self.probe_idx))
        else:
            source = self._build.column(local)
            cached = list(map(source.__getitem__, self.build_pos))
        self._cache[j] = cached
        return cached

    def rows(self) -> list[tuple]:
        probe_rows = self._probe.rows()
        build_rows = self._build.rows()
        if self.probe_idx is None:
            gathered = zip(probe_rows,
                           map(build_rows.__getitem__, self.build_pos))
            if self._probe_is_left:
                return [p + b for p, b in gathered]
            return [b + p for p, b in gathered]
        if self._probe_is_left:
            return [probe_rows[i] + build_rows[p]
                    for i, p in zip(self.probe_idx, self.build_pos)]
        return [build_rows[p] + probe_rows[i]
                for i, p in zip(self.probe_idx, self.build_pos)]


# -- vectorized expression evaluation ----------------------------------------


def _none_free(column: Vector) -> bool:
    # ``in`` scans at C speed; values are SQL scalars, so ``==`` against
    # None is never user-defined.
    return None not in column


def compile_vector(expr: Expression) -> VectorFn | None:
    """Lower a bound expression to a whole-column evaluator.

    Returns None when *expr* uses a node kind the vectorizer does not
    cover — callers fall back to the row path.  Covered: literals,
    column references, binary arithmetic/comparison, negation, IS NULL.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch: [value] * batch.length
    if isinstance(expr, BoundColumn):
        index = expr.index
        return lambda batch: batch.column(index)
    if isinstance(expr, BinaryOp):
        raw = _VECTOR_OPS.get(expr.op)
        if raw is None:
            return None
        if isinstance(expr.right, Literal) and expr.right.value is not None \
                and not isinstance(expr.left, Literal):
            left = compile_vector(expr.left)
            if left is None:
                return None
            constant = expr.right.value

            def eval_rconst(batch: ColumnBatch) -> Vector:
                a = left(batch)
                if _none_free(a):
                    return list(map(raw, a, repeat(constant)))
                return [None if x is None else raw(x, constant) for x in a]

            return eval_rconst
        if isinstance(expr.left, Literal) and expr.left.value is not None \
                and not isinstance(expr.right, Literal):
            right = compile_vector(expr.right)
            if right is None:
                return None
            constant = expr.left.value

            def eval_lconst(batch: ColumnBatch) -> Vector:
                b = right(batch)
                if _none_free(b):
                    return list(map(raw, repeat(constant), b))
                return [None if x is None else raw(constant, x) for x in b]

            return eval_lconst
        left = compile_vector(expr.left)
        right = compile_vector(expr.right)
        if left is None or right is None:
            return None

        def eval_binary(batch: ColumnBatch) -> Vector:
            a = left(batch)
            b = right(batch)
            if _none_free(a) and _none_free(b):
                return list(map(raw, a, b))
            return [None if x is None or y is None else raw(x, y)
                    for x, y in zip(a, b)]

        return eval_binary
    if isinstance(expr, Negate):
        operand = compile_vector(expr.operand)
        if operand is None:
            return None

        def eval_negate(batch: ColumnBatch) -> Vector:
            values = operand(batch)
            if _none_free(values):
                return [-v for v in values]
            return [None if v is None else -v for v in values]

        return eval_negate
    if isinstance(expr, IsNull):
        operand = compile_vector(expr.operand)
        if operand is None:
            return None
        if expr.negated:
            return lambda batch: [v is not None for v in operand(batch)]
        return lambda batch: [v is None for v in operand(batch)]
    return None


# -- grouped aggregate kernels ------------------------------------------------
#
# The kernels mirror the accumulation loops of the hash aggregate's
# single-aggregate fast path exactly, but read (key, value) pairs from
# whole column vectors instead of itemgetters over join-output row
# tuples.  The caller guarantees *clean* inputs — hashable keys and, for
# sum/min/max, a NULL-free all-numeric value vector (checked with one C
# type scan) — so the per-row NULL branches and numeric guards of the
# scalar loops provably never fire and can be dropped from the loop body.
# Anything unclean falls back to the row path.  Group output order is
# first-seen, identical to the scalar loop's dict accumulation.
#
# When numpy is importable, sum first tries a vectorized path built on
# *dense* per-key accumulators — graph workloads group by node id, so the
# key range is about the row count and a direct-indexed array beats any
# sort- or hash-based grouping (sparse key ranges fall back).  It only
# runs where int64/float64 arithmetic is provably identical to the
# scalar loop's: exact dtype conversions, additions applied in row
# order, no -0.0 whose sign a zero-initialised accumulator could flip,
# no int64 overflow.  Anything outside that envelope returns None and
# the dict loop runs.  min/max stay as dict loops: locating each group's
# first extreme *position* vectorized needs a sort, which measures
# slower than the single-compare scalar loop at these cardinalities.

_ABSENT = object()


def int_keys(keys: Vector) -> bool:
    """True when every key is an int (or bool) — hashable, and bool/int
    aliasing groups exactly as the scalar dict loop does."""
    return set(map(type, keys)) <= {int, bool}


def clean_numeric(values: Vector) -> bool:
    """No NULLs, nothing but int/float/bool — one C type scan."""
    return set(map(type, values)) <= {int, float, bool}


def _np_vectors(keys: Vector, values: Vector):
    """(karr, varr, values_are_int) as *exact* numpy arrays, or None.

    Conversion must not change any comparison or addition the scalar
    loops would make: bool keys/values (dict-equal to ints but distinct
    objects), ints outside int64, mixed int/float vectors (a float64 cast
    of a big int compares differently) and NaN all disqualify.
    """
    if set(map(type, keys)) != {int}:
        return None
    try:
        karr = _np.asarray(keys, dtype=_np.int64)
    except (OverflowError, TypeError):
        return None
    value_types = set(map(type, values))
    if value_types == {int}:
        try:
            return karr, _np.asarray(values, dtype=_np.int64), True
        except (OverflowError, TypeError):
            return None
    if value_types == {float}:
        varr = _np.asarray(values, dtype=_np.float64)
        if _np.isnan(varr).any():
            return None  # the scalar loops' NaN ordering is sticky
        return karr, varr, False
    return None


def _np_grouped_sum(keys: Vector, values: Vector) -> list[tuple] | None:
    converted = _np_vectors(keys, values)
    if converted is None:
        return None
    karr, varr, values_are_int = converted
    n = len(karr)
    kmin = int(karr.min())
    kmax = int(karr.max())
    if kmin < 0:
        karr = karr - kmin
        kmax -= kmin
    size = kmax + 1
    if size > max(4 * n, 1 << 20):
        return None  # keys too sparse for dense accumulators
    if values_are_int:
        peak = max(int(varr.max()), -int(varr.min()))
        if peak * n >= 2 ** 62:
            return None  # partial sums could overflow int64
        sums = _np.zeros(size, dtype=_np.int64)
        _np.add.at(sums, karr, varr)
    else:
        # bincount accumulates weights in row order, so every group's
        # additions associate exactly as the scalar loop's.  The loop
        # seeds each group with its first value while bincount starts
        # from 0.0; those differ only for -0.0 (0.0 + -0.0 flips the
        # sign), so any negative zero falls back.
        zero_mask = varr == 0.0
        if zero_mask.any() and _np.signbit(varr[zero_mask]).any():
            return None
        sums = _np.bincount(karr, weights=varr, minlength=size)
    # Reversed fancy assignment: the *last* write per key wins, so
    # writing row indices back-to-front leaves each key's first
    # occurrence — both the output order and the key object the scalar
    # dict loop would keep.
    first = _np.full(size, -1, dtype=_np.int64)
    first[karr[::-1]] = _np.arange(n - 1, -1, -1, dtype=_np.int64)
    present = _np.nonzero(first >= 0)[0]
    order = present[_np.argsort(first[present], kind="stable")]
    firsts = first[order].tolist()  # python ints: cheap list indexing
    totals = sums[order].tolist()
    return [(keys[i], total) for i, total in zip(firsts, totals)]


def grouped_sum(keys: Vector, values: Vector) -> list[tuple]:
    if _np is not None and keys:
        fast = _np_grouped_sum(keys, values)
        if fast is not None:
            return fast
    acc: dict = {}
    get = acc.get
    for key, value in zip(keys, values):
        current = get(key, _ABSENT)
        acc[key] = value if current is _ABSENT else current + value
    return list(acc.items())


_INF = float("inf")


def _all_finite(values: Vector) -> bool:
    # One C pass: a NaN anywhere makes the sum NaN (comparisons False),
    # an infinity makes it ±inf or NaN.  A finite sum of clean numerics
    # proves every element is finite and non-NaN, which the single-compare
    # loops below need (an inf/NaN value would tie with the identity
    # default and diverge from the scalar loop's first-value semantics).
    # Overflow to inf on huge-but-finite data just takes the safe loop.
    total = sum(values)
    return -_INF < total < _INF


def grouped_min(keys: Vector, values: Vector) -> list[tuple]:
    acc: dict = {}
    get = acc.get
    if _all_finite(values):
        for key, value in zip(keys, values):
            if value < get(key, _INF):
                acc[key] = value
        return list(acc.items())
    for key, value in zip(keys, values):
        current = get(key, _ABSENT)
        if current is _ABSENT or value < current:
            acc[key] = value
    return list(acc.items())


def grouped_max(keys: Vector, values: Vector) -> list[tuple]:
    acc: dict = {}
    get = acc.get
    if _all_finite(values):
        for key, value in zip(keys, values):
            if value > get(key, -_INF):
                acc[key] = value
        return list(acc.items())
    for key, value in zip(keys, values):
        current = get(key, _ABSENT)
        if current is _ABSENT or value > current:
            acc[key] = value
    return list(acc.items())


def grouped_count(keys: Vector) -> list[tuple]:
    """COUNT per group (callers pass NULL-free inputs); Counter is a dict,
    so group order is first-seen exactly like the scalar loop's."""
    from collections import Counter

    return list(Counter(keys).items())
