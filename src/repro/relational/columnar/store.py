"""Row storage backends: the classic row list and the columnar store.

:class:`Table` delegates its physical row storage to one of these.  Both
expose the same (list-like) surface the engine's write paths use —
``append``/``extend``/``clear``/indexing/iteration plus an ``assign``
that swaps in freshly built contents — so every operator and
union-by-update strategy works unchanged against either backend.

``RowStore`` *is* a Python list (the pre-columnar behaviour, bit for
bit).  ``ColumnStore`` keeps data column-major:

* **Sealed blocks** — immutable :class:`ColumnBlock` morsels of
  :data:`MORSEL` rows, one encoded vector per column (see
  :mod:`.encodings`), with per-block zone maps on numeric columns.
  ``extend`` seals and compresses eagerly.  Table loads do not go
  through it: a load into an empty table arrives via ``assign`` (the
  row overlay below) and is encoded only on ``compact()``, since query
  paths read the column, row and index caches, never the blocks.
* **Tail columns** — plain Python lists holding the ragged tail; sealed
  into a block when :data:`MORSEL` rows accumulate.
* **Row overlay** — ``assign`` (the rebuild half of union-by-update)
  takes ownership of the new row list and marks columns stale; columns
  are re-materialised lazily on first columnar access.  This keeps the
  recursive loop's per-iteration rebuilds O(|rows|) list work with no
  mandatory re-encode, the delta-store trade every columnar engine
  makes between write- and read-optimised representations.

In-place updates (``store[pos] = row``) write through to the column
vectors; a write landing in a sealed block first *decays* that block to
uncompressed column lists (counted in ``block_decays``).  Reads are
served from caches — a materialised row list, decoded full columns, and
join hash indexes — that any mutation invalidates; ``size_bytes``
deliberately excludes them so space accounting reflects the encoded
data, and ``drop_caches`` releases them for honest measurement.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Iterator, Sequence

from .encodings import ColumnCodec, PlainColumn, _zone_bounds, encode_column

#: Rows per sealed block (the storage morsel).
MORSEL = 2048


class ColumnBlock:
    """An immutable, sealed morsel: one encoded vector per column."""

    __slots__ = ("columns", "length", "zones")

    def __init__(self, columns: Sequence[ColumnCodec], length: int,
                 zones: tuple):
        self.columns = tuple(columns)
        self.length = length
        #: Per-column (min, max) over non-null values, or None.
        self.zones = zones

    @classmethod
    def seal(cls, column_values: Sequence[list]) -> "ColumnBlock":
        length = len(column_values[0]) if column_values else 0
        codecs = [encode_column(values) for values in column_values]
        zones = tuple(_zone_bounds(values) for values in column_values)
        return cls(codecs, length, zones)

    def decode_column(self, j: int) -> list:
        return self.columns[j].decode()

    def size_bytes(self) -> int:
        return sum(codec.size_bytes() for codec in self.columns) + 64


class PlainBlock:
    """A decayed (or lazily built) block: mutable plain column lists."""

    __slots__ = ("columns", "length", "zones")

    def __init__(self, columns: Sequence[list]):
        self.columns = list(columns)
        self.length = len(self.columns[0]) if self.columns else 0
        self.zones = tuple(None for _ in self.columns)

    def decode_column(self, j: int) -> list:
        return self.columns[j]

    def size_bytes(self) -> int:
        return sum(sys.getsizeof(col) + sum(map(sys.getsizeof, col))
                   for col in self.columns) + 64


class RowStore(list):
    """Row-major storage: a plain Python list of row tuples."""

    storage = "rows"

    def assign(self, rows: list) -> None:
        """Replace the full contents (callers hand over a fresh list)."""
        self[:] = rows

    def delete_positions(self, positions: Sequence[int]) -> None:
        """Remove the rows at *positions* (one filtering pass)."""
        if not positions:
            return
        dead = set(positions)
        self[:] = [row for pos, row in enumerate(self)
                   if pos not in dead]

    def materialized(self) -> list:
        """The live row list (no copy)."""
        return self

    def size_bytes(self) -> int:
        seen_bytes = sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row))
                         for row in self)
        return sys.getsizeof(self) + seen_bytes

    def drop_caches(self) -> None:
        pass


class ColumnStore:
    """Column-major storage with sealed, compressed morsel blocks."""

    storage = "columnar"

    def __init__(self, arity: int, morsel: int = MORSEL):
        self.arity = arity
        self.morsel = morsel
        self._blocks: list = []
        self._tail: list[list] = [[] for _ in range(arity)]
        self._len = 0
        # Row overlay: authoritative when _cols_stale (after assign);
        # otherwise a cache of the blocks+tail contents.
        self._rows: list | None = []
        self._cols_stale = False
        self._col_cache: dict[int, list] = {}
        self._index_cache: dict = {}
        # Tombstones: per sealed-block dead physical offsets.  Deletes
        # mark rows dead instead of re-sealing the table; readers filter,
        # ``compact()`` flushes.  The ragged tail deletes eagerly (plain
        # lists), so it never carries tombstones.
        self._dead: dict[int, set[int]] = {}
        #: Observable storage counters (surfaced through MetricsRegistry).
        self.blocks_sealed = 0
        self.block_decays = 0
        self.row_assigns = 0
        self.tombstones_set = 0
        self.encoding_counts: dict[str, int] = {}

    # -- list-like surface used by the engine's write paths ------------

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.materialized())

    def __getitem__(self, pos):
        return self.materialized()[pos]

    def __setitem__(self, pos: int, row: tuple) -> None:
        if pos < 0:
            pos += self._len
        if not 0 <= pos < self._len:
            raise IndexError("row position out of range")
        self._touch()
        if self._rows is not None:
            self._rows[pos] = row
        if not self._cols_stale:
            block_idx, offset = self._locate(pos)
            if block_idx is not None:
                block = self._blocks[block_idx]
                for j, value in enumerate(row):
                    block.columns[j][offset] = value
            else:
                for j, value in enumerate(row):
                    self._tail[j][offset] = value

    def append(self, row: tuple) -> None:
        self._touch()
        if self._rows is not None:
            self._rows.append(row)
        if not self._cols_stale:
            for j, value in enumerate(row):
                self._tail[j].append(value)
            self._len += 1
            if len(self._tail[0] if self._tail else ()) >= self.morsel:
                self._seal_tail()
            return
        self._len += 1

    def extend(self, rows: Iterable[tuple]) -> int:
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return 0
        self._touch()
        if self._rows is not None:
            self._rows.extend(rows)
        if not self._cols_stale:
            columns = list(map(list, zip(*rows)))
            for j, values in enumerate(columns):
                self._tail[j].extend(values)
            while self._tail and len(self._tail[0]) >= self.morsel:
                self._seal_tail()
        self._len += len(rows)
        return len(rows)

    def clear(self) -> None:
        self._touch()
        self._blocks.clear()
        self._dead.clear()
        self._tail = [[] for _ in range(self.arity)]
        self._rows = []
        self._cols_stale = False
        self._len = 0

    def assign(self, rows: list) -> None:
        """Swap in new contents; columns are rebuilt lazily on demand."""
        self._touch()
        self._rows = rows if isinstance(rows, list) else list(rows)
        self._len = len(self._rows)
        self._blocks.clear()
        self._dead.clear()
        self._tail = [[] for _ in range(self.arity)]
        self._cols_stale = True
        self.row_assigns += 1

    def delete_positions(self, positions: Sequence[int]) -> None:
        """Tombstone the rows at the given (live) *positions*.

        Sealed blocks are not decoded or re-sealed: the dead physical
        offsets are recorded per block and filtered on every read until
        ``compact()`` flushes them.  Tail rows are filtered eagerly (the
        tail is mutable plain lists anyway)."""
        if not positions:
            return
        dead_logical = sorted(set(positions))
        if dead_logical[0] < 0 or dead_logical[-1] >= self._len:
            raise IndexError("delete position out of range")
        self._touch()
        if self._rows is not None:
            dead_set = set(dead_logical)
            self._rows = [row for pos, row in enumerate(self._rows)
                          if pos not in dead_set]
        if self._cols_stale:
            self._len = len(self._rows)
            self.tombstones_set += len(dead_logical)
            return
        cursor = 0
        live_start = 0
        total = len(dead_logical)
        for block_idx, block in enumerate(self._blocks):
            if cursor >= total:
                break
            dead = self._dead.get(block_idx)
            live_len = block.length - (len(dead) if dead else 0)
            live_end = live_start + live_len
            offsets = []
            while cursor < total and dead_logical[cursor] < live_end:
                offsets.append(dead_logical[cursor] - live_start)
                cursor += 1
            if offsets:
                if dead:
                    # Translate live offsets through the existing holes.
                    live = [o for o in range(block.length) if o not in dead]
                    dead.update(live[o] for o in offsets)
                else:
                    self._dead[block_idx] = set(offsets)
            live_start = live_end
        if cursor < total:
            tail_dead = {p - live_start for p in dead_logical[cursor:]}
            self._tail = [[v for o, v in enumerate(col)
                           if o not in tail_dead] for col in self._tail]
        self._len -= total
        self.tombstones_set += total

    # -- reads ----------------------------------------------------------

    def materialized(self) -> list:
        """The full contents as a live row-tuple list (cached)."""
        if self._rows is None:
            rows: list = []
            for block_idx, block in enumerate(self._blocks):
                cols = [block.decode_column(j) for j in range(self.arity)]
                dead = self._dead.get(block_idx)
                if dead:
                    rows.extend(row for offset, row in enumerate(zip(*cols))
                                if offset not in dead)
                else:
                    rows.extend(zip(*cols))
            if self._tail and self._tail[0]:
                rows.extend(zip(*self._tail))
            self._rows = rows
        return self._rows

    def to_list(self) -> list:
        return list(self.materialized())

    def column(self, j: int) -> list:
        """Column *j* as one decoded, concatenated vector (cached)."""
        cached = self._col_cache.get(j)
        if cached is None:
            if self._cols_stale:
                # Row overlay is authoritative (post-``assign``): extract
                # just this column with one C pass instead of transposing
                # the whole table — a fixpoint loop that only reads the
                # key column between assigns never pays for the rest.
                from operator import itemgetter

                cached = list(map(itemgetter(j), self.materialized()))
                self._col_cache[j] = cached
                return cached
            parts = []
            for block_idx, block in enumerate(self._blocks):
                values = block.decode_column(j)
                dead = self._dead.get(block_idx)
                if dead:
                    values = [v for offset, v in enumerate(values)
                              if offset not in dead]
                parts.append(values)
            parts.append(self._tail[j])
            if len(parts) == 1:
                cached = list(parts[0])
            else:
                cached = []
                for part in parts:
                    cached.extend(part)
            self._col_cache[j] = cached
        return cached

    def blocks(self) -> list:
        """The sealed blocks followed by the ragged tail (as a block).

        Blocks carrying tombstones surface as filtered
        :class:`PlainBlock` views, so consumers only ever see live rows.
        """
        self._ensure_columns()
        out = []
        for block_idx, block in enumerate(self._blocks):
            dead = self._dead.get(block_idx)
            if dead:
                cols = [[v for offset, v in enumerate(block.decode_column(j))
                         if offset not in dead]
                        for j in range(self.arity)]
                block = PlainBlock(cols)
            out.append(block)
        if self._tail and self._tail[0]:
            out.append(PlainBlock([list(col) for col in self._tail]))
        return out

    def join_index(self, key_positions: tuple[int, ...], kind: str) -> tuple:
        """Cached hash index over the current contents.

        ``kind`` picks the bucket payload: ``"scalar-rows"`` /
        ``"tuple-rows"`` map keys to row-tuple buckets (the batch join's
        build index), ``"scalar-positions"`` / ``"tuple-positions"`` map
        keys to row positions (for columnar gathers).  NULL keys are
        excluded, matching the hash joins' build loops.  Returns
        ``(index, build_rows_observed)``; the cache survives until any
        mutation, so a fixpoint loop probing a static build table pays
        the build cost once instead of once per iteration.
        """
        cache_key = (kind, key_positions)
        hit = self._index_cache.get(cache_key)
        if hit is not None:
            return hit
        rows = self.materialized()
        index: dict = {}
        if kind == "scalar-rows" or kind == "scalar-positions":
            keys = self.column(key_positions[0])
            payload = rows if kind == "scalar-rows" else range(len(rows))
            for key, item in zip(keys, payload):
                if key is None:
                    continue
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [item]
                else:
                    bucket.append(item)
        elif kind == "tuple-rows" or kind == "tuple-positions":
            # Zipped columns: a tuple key even for a single position.
            keys = zip(*(self.column(p) for p in key_positions))
            payload = rows if kind == "tuple-rows" else range(len(rows))
            for key, item in zip(keys, payload):
                if None in key:
                    continue
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [item]
                else:
                    bucket.append(item)
        else:
            raise ValueError(f"unknown join index kind {kind!r}")
        observed = sum(map(len, index.values()))
        result = (index, observed)
        self._index_cache[cache_key] = result
        return result

    # -- maintenance ----------------------------------------------------

    def compact(self) -> None:
        """Re-encode decayed/lazy data into sealed, compressed blocks,
        flushing any tombstones (dead rows are dropped for good)."""
        if self._dead and not self._cols_stale:
            # Rebuild through the (filtered) row view: simplest way to
            # restore morsel-aligned blocks after deletions.
            rows = self.materialized()
            self.assign(rows)
        self._ensure_columns()
        while self._tail and len(self._tail[0]) >= self.morsel:
            self._seal_tail()
        for idx, block in enumerate(self._blocks):
            if isinstance(block, PlainBlock):
                self._blocks[idx] = ColumnBlock.seal(block.columns)
                self._count_encodings(self._blocks[idx])
                self.blocks_sealed += 1

    def drop_caches(self) -> None:
        """Release decode/row/index caches (space measurement honesty)."""
        self._col_cache.clear()
        self._index_cache.clear()
        if not self._cols_stale:
            self._rows = None

    def size_bytes(self) -> int:
        """Resident bytes of the stored data, caches excluded."""
        self._ensure_columns()
        total = sum(block.size_bytes() for block in self._blocks)
        total += sum(sys.getsizeof(col) + sum(map(sys.getsizeof, col))
                     for col in self._tail)
        return total + 256

    def encoding_summary(self) -> dict[str, int]:
        """Sealed-column counts per codec name (live blocks only)."""
        summary: dict[str, int] = {}
        for block in self._blocks:
            if isinstance(block, ColumnBlock):
                for codec in block.columns:
                    summary[codec.name] = summary.get(codec.name, 0) + 1
            else:
                summary["decayed"] = summary.get("decayed", 0) \
                    + len(block.columns)
        return summary

    # -- internals ------------------------------------------------------

    def _touch(self) -> None:
        self._col_cache.clear()
        self._index_cache.clear()

    def _locate(self, pos: int) -> tuple[int | None, int]:
        """Map a live position onto ``(block_idx, offset)`` — or
        ``(None, tail_offset)`` — decaying the target block to a mutable
        :class:`PlainBlock` (tombstones flushed) so the caller can write
        straight into its column lists."""
        live_start = 0
        for block_idx, block in enumerate(self._blocks):
            dead = self._dead.get(block_idx)
            live_len = block.length - (len(dead) if dead else 0)
            if pos < live_start + live_len:
                if dead:
                    cols = [[v for offset, v
                             in enumerate(block.decode_column(j))
                             if offset not in dead]
                            for j in range(self.arity)]
                    if isinstance(block, ColumnBlock):
                        self.block_decays += 1
                    block = PlainBlock(cols)
                    self._blocks[block_idx] = block
                    del self._dead[block_idx]
                elif isinstance(block, ColumnBlock):
                    block = PlainBlock([block.decode_column(j)
                                        for j in range(self.arity)])
                    self._blocks[block_idx] = block
                    self.block_decays += 1
                return block_idx, pos - live_start
            live_start += live_len
        return None, pos - live_start

    def _seal_tail(self) -> None:
        morsel = self.morsel
        head = [col[:morsel] for col in self._tail]
        self._tail = [col[morsel:] for col in self._tail]
        block = ColumnBlock.seal(head)
        self._blocks.append(block)
        self.blocks_sealed += 1
        self._count_encodings(block)

    def _count_encodings(self, block: ColumnBlock) -> None:
        counts = self.encoding_counts
        for codec in block.columns:
            counts[codec.name] = counts.get(codec.name, 0) + 1

    def _ensure_columns(self) -> None:
        # Rebuild columns after ``assign`` as *plain* tail lists — one C
        # transpose, no re-encode.  Compression of assigned contents only
        # happens through an explicit ``compact()``; the write paths seal
        # any oversized tail the next time they touch the store.
        if self._cols_stale:
            rows = self.materialized()
            self._tail = ([list(col) for col in zip(*rows)] if rows
                          else [[] for _ in range(self.arity)])
            self._blocks.clear()
            self._dead.clear()
            self._cols_stale = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ColumnStore rows={self._len}"
                f" blocks={len(self._blocks)}"
                f" tail={len(self._tail[0]) if self._tail else 0}>")


def make_storage(storage: str, arity: int):
    """Build a storage backend by name (``"rows"`` or ``"columnar"``)."""
    if storage == "rows":
        return RowStore()
    if storage == "columnar":
        return ColumnStore(arity)
    raise ValueError(
        f"unknown storage {storage!r}; expected 'rows' or 'columnar'")
