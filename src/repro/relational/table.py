"""Multiset tuple storage: column vectors in ascending handle order.

"In a given state of the database, each table contains zero or more
tuples ... Duplicate tuples may appear in a table" (Section 2).
Duplicates are fine because handles, not values, are the identity.

Storage layout — one *slot* per stored tuple, and nothing per tuple
beside its values but one handle and one validity byte:

- ``_cols``: one Python list per schema column (the column batches that
  vectorized kernels scan; see :mod:`repro.relational.batch`),
- ``_handles``: every slot's handle, an ``array('q')`` in strictly
  ascending order,
- ``_valid``: a ``bytearray``, 1 for a live slot and 0 for a tombstone —
  ``delete`` tombstones a slot instead of shifting storage.

There is no row view and no handle→slot map. Rows are gathered from
the columns when asked for, and a handle's slot is a bisection of
``_handles``. Both rest on one invariant: **a table's scan order is
ascending handle order.** Fresh handles are the largest ever issued, so
inserting them appends. Undoing a delete and re-attaching a suspended
transaction's inserts revive the tombstoned slots in place; only when
compaction has already removed those slots does a *merge insert*
rebuild the arrays (rare; :attr:`Table.merge_inserts` counts it). A
table that was rolled back, switched out and back in, or rebuilt by
crash recovery therefore reads in the same order as one that never saw
any of it — the order its handles were issued in.

Tombstoned slots are reclaimed by :meth:`Table.compact` — triggered at
checkpoint by the durability manager, and automatically when tombstones
dominate the storage arrays. Compaction renumbers slots, so selection
vectors are only valid until the next mutation; indexes are keyed by
handle and are unaffected.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import compress, islice
from operator import lt
from typing import Any, NoReturn

from ..errors import ExecutionError
from .batch import Batch, gather_rows
from .index import SortedIndex
from .schema import TableSchema
from .stats import TableStats

#: auto-compaction: reclaim once at least this many tombstones exist
#: *and* they make up at least half of the storage arrays
_COMPACT_MIN_DEAD = 64

#: a live slot's validity byte
_LIVE = b"\x01"

Row = tuple[Any, ...]


class Table:
    """One table's tuples: columnar slots addressed by handle.

    All mutation goes through the three set mutators
    (:meth:`insert_columns` / :meth:`delete_many` /
    :meth:`assign_columns`); sorted indexes attached via
    :meth:`attach_index` are maintained by them — including during
    transaction undo, context-switch replay and crash recovery, which
    replay through the same mutators.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._cols: tuple[list[Any], ...] = tuple(
            [] for _ in range(schema.arity)
        )
        self._handles = array("q")
        self._valid = bytearray()
        self._dead = 0
        self.indexes: list[SortedIndex] = []
        #: monotone mutation counter, bumped by every set mutator call
        #: — including transaction undo and context-switch replay,
        #: which go through the same mutators. MaintainedView
        #: uses it as a concurrent-writer tripwire: a fold by one
        #: session cannot leave another session's counters silently
        #: claiming to be in sync.
        self.mutations = 0
        #: how many times :meth:`compact` reclaimed tombstones
        self.compactions = 0
        #: how many inserts had to merge rows in below the largest
        #: stored handle (their slots were compacted away)
        self.merge_inserts = 0
        #: zone maps (see repro.relational.stats), folded by the three
        #: set mutators — exactly like the indexes, so undo and replay
        #: keep them sound. The widen-only bounds are recomputed by
        #: :meth:`rebuild_stats` at compaction and at a merge insert.
        self.stats = TableStats(schema.arity)

    def __len__(self) -> int:
        return len(self._handles) - self._dead

    def __contains__(self, handle: int) -> bool:
        return self._slot(handle) >= 0

    def _slot(self, handle: int) -> int:
        """The slot of a live ``handle``, or -1.

        Stored handles are distinct and ascending, so ``handle`` lies no
        further from either end, in slots, than in handle values: where
        handles were issued without gaps the bisection has one slot to
        look at."""
        stored = self._handles
        size = len(stored)
        if not size:
            return -1
        low = size - 1 - (stored[-1] - handle)
        if low < 0:
            low = 0
        high = handle - stored[0] + 1
        if high > size:
            high = size
        if high <= low:
            return -1
        slot = bisect_left(stored, handle, low, high)
        if stored[slot] == handle and self._valid[slot]:
            return slot
        return -1

    def _live_slots(self) -> list[int]:
        if self._dead:
            return list(compress(range(len(self._valid)), self._valid))
        return list(range(len(self._valid)))

    # -- scans (ascending handle order) -------------------------------------

    def handles(self) -> list[int]:
        """All live handles, ascending (a fresh list)."""
        if self._dead:
            return list(compress(self._handles, self._valid))
        return self._handles.tolist()

    def iter_handles(self) -> Iterator[int]:
        """Iterator over live handles, ascending, without materializing
        the list. Only safe while the table is not mutated;
        identification loops materialize before mutating."""
        return compress(self._handles, self._valid)

    def rows(self) -> list[Row]:
        """All live rows (value tuples), in handle order."""
        if self._dead:
            valid = self._valid
            return list(zip(*[compress(column, valid)
                              for column in self._cols]))
        return list(zip(*self._cols))

    def items(self) -> list[tuple[int, Row]]:
        """(handle, row) pairs, in handle order."""
        return list(zip(self.iter_handles(), self.rows()))

    def iter_items(self) -> Iterator[tuple[int, Row]]:
        """Iterator over (handle, row) pairs; same caveat as
        :meth:`iter_handles`."""
        return zip(self.iter_handles(), self.rows())

    def get(self, handle: int) -> Row:
        """The row for a live handle.

        Raises:
            ExecutionError: if the handle is not live in this table.
        """
        slot = self._slot(handle)
        if slot < 0:
            raise self._not_live(handle)
        return tuple([column[slot] for column in self._cols])

    # -- batches -----------------------------------------------------------

    def batch(self) -> Batch:
        """A :class:`Batch` over every live row, in handle order.

        Shares the live column lists (zero copy); the selection vector
        is invalidated by any subsequent mutation of this table.
        """
        return Batch(
            self._cols, self._live_slots(), self._handles, self.schema.name,
            zones=self.stats.zones, ordered=True,
        )

    def locate(self, handles: Sequence[int]) -> list[int]:
        """The slots of ``handles``, aligned; each must be live and named
        once.

        Raises:
            ExecutionError: for the first handle, in the given order,
                that is not live or is named a second time.
        """
        if len(handles) == 1:  # the commonest set of all
            slot = self._slot(handles[0])
            if slot < 0:
                self._refuse(handles)
            return [slot]
        if not handles:
            return []
        given = list(handles)
        ordered = sorted(given)
        slots = self._sorted_slots(ordered)
        if slots is not None and ordered != given:
            where = dict(zip(ordered, slots))
            slots = list(map(where.__getitem__, given))
        if slots is None:
            self._refuse(handles)
        return slots

    def _sorted_slots(self, ordered: list[int]) -> list[int] | None:
        """The slots of the ascending handles ``ordered`` in one merge
        walk over storage, which is ascending too; None when one of them
        is not live or is there twice.

        A set stored in one run of slots (every set of fresh handles is)
        costs one bisection and one comparison. Otherwise the walk goes
        run by run of consecutive handles, one bisection and one
        comparison each, wherever the run lies; a set that turns out to
        be scattered takes one bisection per handle instead.
        """
        stored = self._handles
        valid = self._valid
        count = len(ordered)
        first_slot = bisect_left(stored, ordered[0])
        stop = first_slot + count
        if (stop <= len(stored) and stored[stop - 1] == ordered[-1]
                and stored[first_slot:stop].tolist() == ordered):
            if valid.find(0, first_slot, stop) >= 0:
                return None
            return list(range(first_slot, stop))
        slots: list[int] = []
        start = low = 0
        budget = count // 16 + 1  # runs, before the set counts as scattered
        while start < count:
            if not budget:
                return self._scattered_slots(ordered)
            budget -= 1
            first = ordered[start]
            # along a run of consecutive handles, handle - position holds
            end = bisect_right(range(count), first - start, start,
                               key=lambda at: ordered[at] - at)
            slot = bisect_left(stored, first, low)
            low = slot + end - start
            if (stored[slot:low].tolist() != ordered[start:end]
                    or valid.find(0, slot, low) >= 0):
                return None
            slots.extend(range(slot, low))
            start = end
        return slots

    def _scattered_slots(self, ordered: list[int]) -> list[int] | None:
        """:meth:`_sorted_slots` by one bisection per handle, each over
        the slots between the previous handle's and as many further as
        the handles are apart."""
        stored = self._handles
        valid = self._valid
        size = len(stored)
        slots = []
        slot = bisect_left(stored, ordered[0]) - 1
        previous = ordered[0] - 1
        for handle in ordered:
            low = slot + 1
            high = slot + 1 + handle - previous
            slot = bisect_left(stored, handle, low, size if high > size else high)
            if slot == size or stored[slot] != handle or not valid[slot]:
                return None
            slots.append(slot)
            previous = handle
        return slots

    def _refuse(self, handles: Sequence[int]) -> NoReturn:
        """Raise :meth:`locate`'s error for a set it could not resolve."""
        seen: set[int] = set()
        for handle in handles:
            if handle in seen:
                raise ExecutionError(
                    f"handle {handle} named twice in one set on table "
                    f"{self.schema.name!r}"
                )
            if self._slot(handle) < 0:
                raise self._not_live(handle)
            seen.add(handle)
        raise AssertionError(f"locate() refused live handles {handles!r}")

    def batch_for_handles(self, handles: Sequence[int]) -> Batch:
        """A :class:`Batch` selecting exactly ``handles`` (which must be
        live), in the given order."""
        return Batch(
            self._cols, self.locate(handles), self._handles,
            self.schema.name, zones=self.stats.zones,
        )

    def column_vectors(self, handles: Sequence[int],
                       names: Sequence[str] | None = None) -> list[list[Any]]:
        """The values under ``handles`` (which must be live) column-wise:
        one list per schema column — or per column named in ``names`` —
        aligned with ``handles``. The inverse of :meth:`insert_columns` /
        :meth:`assign_columns`; the WAL logs these vectors."""
        sel = self.locate(handles)
        cols: Sequence[list[Any]] = self._cols
        if names is not None:
            position_of = self.schema.column_position
            cols = [cols[position_of(name)] for name in names]
        return [list(map(column.__getitem__, sel)) for column in cols]

    # -- set mutators ------------------------------------------------------
    #
    # Every physical change is one of three set operations over distinct
    # handles. Each validates first — it applies completely or raises
    # before touching storage — then writes storage and folds the zone
    # maps and every attached index once per value vector. The per-tuple
    # test that bounds dead slots is applied where a tuple-at-a-time
    # loop would have applied it, so a set leaves exactly the storage,
    # zone maps and indexes that its tuples, written one after another,
    # would leave.

    def insert_columns(self, handles: Sequence[int],
                       columns: Sequence[Sequence[Any]]) -> None:
        """Store ``len(handles)`` rows given as one schema-coerced value
        vector per column, aligned with ``handles`` (none may be live),
        each at its handle's place in the scan order."""
        stored = self._handles
        if ((not stored or handles[0] > stored[-1])
                and all(map(lt, handles, islice(handles, 1, None)))):
            # ascending handles past every stored one (fresh handles
            # always are): an append
            first = len(stored)
            self.mutations += 1
            stored.extend(handles)
            self._valid.extend(_LIVE * len(handles))
            for column, values in zip(self._cols, columns):
                column.extend(values)
            self.stats.on_insert(first, columns)
        else:
            self._place(handles, columns)
        for index in self.indexes:
            index.insert_many(handles, columns[index.position])

    def _place(self, handles: Sequence[int],
               columns: Sequence[Sequence[Any]]) -> None:
        """:meth:`insert_columns` of handles that are not all past the
        end (undo of a delete, a re-attached insert, an out-of-order
        commit in recovery): a handle whose tombstoned slot is still
        there is revived in place, the rest are appended when they all
        lie past the end and merged in otherwise."""
        stored = self._handles
        valid = self._valid
        size = len(stored)
        slots = [bisect_left(stored, handle) for handle in handles]
        revived: list[int] = []  # positions in ``handles``
        fresh: list[int] = []
        seen: set[int] = set()
        for position, (handle, slot) in enumerate(zip(handles, slots)):
            if handle in seen:
                raise self._already_live(handle)
            seen.add(handle)
            if slot < size and stored[slot] == handle:
                if valid[slot]:
                    raise self._already_live(handle)
                revived.append(position)
            else:
                fresh.append(position)
        self.mutations += 1
        cols = self._cols
        for position in revived:
            slot = slots[position]
            valid[slot] = 1
            for column, values in zip(cols, columns):
                column[slot] = values[position]
        self._dead -= len(revived)
        if fresh:
            fresh.sort(key=handles.__getitem__)
            new = [handles[position] for position in fresh]
            added = [[values[position] for position in fresh]
                     for values in columns]
            if size and new[0] < stored[-1]:
                self._merge(new, added)
                return
            stored.extend(new)
            valid.extend(_LIVE * len(new))
            for column, values in zip(cols, added):
                column.extend(values)
            for rank, position in enumerate(fresh):
                slots[position] = size + rank
        self.stats.on_revive(slots, columns)

    def _merge(self, new: list[int], added: list[list[Any]]) -> None:
        """Merge rows under the ascending handles ``new`` (none of them
        stored) into place, renumbering slots; the zone maps are
        then rebuilt exactly from storage."""
        self.merge_inserts += 1
        merged = self._handles.tolist() + new
        order = sorted(range(len(merged)), key=merged.__getitem__)
        self._handles = array("q", map(merged.__getitem__, order))
        valid = self._valid + _LIVE * len(new)
        self._valid = bytearray(map(valid.__getitem__, order))
        self._cols = tuple([
            list(map((column + values).__getitem__, order))
            for column, values in zip(self._cols, added)
        ])
        self.rebuild_stats()

    def _not_live(self, handle: int) -> ExecutionError:
        return ExecutionError(
            f"handle {handle} is not live in table {self.schema.name!r}"
        )

    def _already_live(self, handle: int) -> ExecutionError:
        return ExecutionError(
            f"handle {handle} already live in table {self.schema.name!r}"
        )

    def delete_many(self, handles: Sequence[int],
                    slots: list[int] | None = None) -> list[Row]:
        """Tombstone every handle of ``handles`` (all live, each named
        once; ``slots`` is their :meth:`locate` when the caller already
        has it); returns their final rows. Slots are not shifted;
        storage is reclaimed by :meth:`compact`."""
        if slots is None:
            slots = self.locate(handles)
        rows = gather_rows(self._cols, slots)
        self.mutations += 1
        total = len(handles)
        done = 0
        while done < total:
            # as many tuples as leave the compaction test, applied after
            # each tuple, false until the last of them
            until_compact = max(
                _COMPACT_MIN_DEAD, (len(self._handles) + 1) // 2
            ) - self._dead
            stop = done + max(1, until_compact)
            part, part_rows = handles[done:stop], rows[done:stop]
            valid = self._valid
            for slot in slots[done:stop]:
                valid[slot] = 0
            self._dead += len(part)
            for index in self.indexes:
                position = index.position
                index.delete_many(part, [row[position] for row in part_rows])
            done = stop
            if (
                self._dead >= _COMPACT_MIN_DEAD
                and self._dead * 2 >= len(self._handles)
            ):
                self.compact()
                slots = slots[:done] + self.locate(handles[done:])
        return rows

    def assign_columns(self, handles: Sequence[int], positions: Sequence[int],
                       vectors: Sequence[Sequence[Any]],
                       slots: list[int] | None = None) -> list[Row]:
        """Overwrite the columns at ``positions`` of the live rows under
        ``handles`` (each named once; ``slots`` is their :meth:`locate`
        when the caller already has it) with the aligned,
        schema-coerced ``vectors``; returns the rows as they were."""
        if slots is None:
            slots = self.locate(handles)
        cols = self._cols
        old_rows = gather_rows(cols, slots)
        self.mutations += 1
        for position, values in zip(positions, vectors):
            column = cols[position]
            for index in self.indexes:
                if index.position == position:
                    index.assign_many(
                        handles, list(map(column.__getitem__, slots)), values)
            for slot, value in zip(slots, values):
                column[slot] = value
        self.stats.on_assign(slots, zip(positions, vectors))
        return old_rows

    def insert_rows(self, handles: Sequence[int],
                    rows: Sequence[Row]) -> None:
        """:meth:`insert_columns` of whole rows (non-empty, aligned)."""
        self.insert_columns(handles, list(zip(*rows)))

    def replace_rows(self, handles: Sequence[int],
                     rows: Sequence[Row]) -> list[Row]:
        """:meth:`assign_columns` of every column from whole rows
        (non-empty, aligned); returns the rows as they were."""
        return self.assign_columns(
            handles, range(self.schema.arity), list(zip(*rows))
        )

    def insert(self, handle: int, row: Row) -> None:
        """:meth:`insert_rows` for one row."""
        self.insert_rows((handle,), (row,))

    def delete(self, handle: int) -> Row:
        """:meth:`delete_many` for one handle; returns its row."""
        return self.delete_many((handle,))[0]

    def replace(self, handle: int, row: Row) -> Row:
        """:meth:`replace_rows` for one row; returns the old row."""
        return self.replace_rows((handle,), (row,))[0]

    # -- compaction --------------------------------------------------------

    @property
    def tombstones(self) -> int:
        """Number of tombstoned (dead) slots awaiting compaction."""
        return self._dead

    def compact(self) -> int:
        """Drop tombstoned slots, renumbering the survivors in scan
        order; returns the number of slots reclaimed.

        Handles are untouched (indexes and the WAL are keyed by handle),
        but slot positions — and therefore any outstanding selection
        vector — are invalidated.
        """
        if not self._dead:
            return 0
        valid = self._valid
        self._cols = tuple([list(compress(column, valid))
                            for column in self._cols])
        self._handles = array("q", compress(self._handles, valid))
        self._valid = bytearray(_LIVE * len(self._handles))
        reclaimed = self._dead
        self._dead = 0
        self.compactions += 1
        # slots were renumbered: the (slot-aligned) zone maps are rebuilt
        self.rebuild_stats()
        return reclaimed

    def rebuild_stats(self) -> None:
        """Recompute the zone maps exactly from storage."""
        self.stats.rebuild(self._cols, self._live_slots())

    # -- snapshots / indexes ----------------------------------------------

    def snapshot(self) -> dict[int, Row]:
        """A handle→row mapping copy (rows are immutable tuples)."""
        return dict(zip(self.iter_handles(), self.rows()))

    def attach_index(self, index: SortedIndex) -> None:
        """Attach a sorted index; builds it from the live column vector
        and the handle array."""
        index.build(self._handles, self._cols[index.position],
                    compress(range(len(self._valid)), self._valid))
        self.indexes.append(index)

    def detach_index(self, index: SortedIndex) -> None:
        """Detach a previously attached index."""
        self.indexes = [i for i in self.indexes if i is not index]

    def index_on(self, column: str) -> SortedIndex | None:
        """The attached index covering ``column``, or None."""
        for index in self.indexes:
            if index.column == column:
                return index
        return None
