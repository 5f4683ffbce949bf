"""Multiset tuple storage over append-friendly column batches.

"In a given state of the database, each table contains zero or more
tuples ... Duplicate tuples may appear in a table" (Section 2).
Duplicates are fine because handles, not values, are the identity.

Storage layout — one append-only *slot* per inserted tuple:

- ``_cols``: one Python list per schema column (the column batches that
  vectorized kernels scan; see :mod:`repro.relational.batch`),
- ``_handles``: the handle column, aligned by slot,
- ``_tuples``: a materialized row view (the immutable value tuples the
  effects/undo/WAL machinery traffics in), aligned by slot,
- ``_valid``: the validity/tombstone vector — ``delete`` tombstones a
  slot instead of shifting storage,
- ``_live``: handle → slot, insertion-ordered; it defines scan order.

Insertion order is preserved (``_live`` is an ordered dict), which makes
unordered query results deterministic for tests without implying any
semantic ordering. Tombstoned slots are reclaimed by :meth:`compact` —
triggered at checkpoint by the durability manager, and automatically
when tombstones dominate the storage arrays. Compaction renumbers
slots, so selection vectors are only valid until the next mutation;
indexes are keyed by handle and are unaffected.
"""

from __future__ import annotations

from ..errors import ExecutionError
from .batch import Batch
from .stats import TableStats

#: auto-compaction: reclaim once at least this many tombstones exist
#: *and* they make up at least half of the storage arrays
_COMPACT_MIN_DEAD = 64


class Table:
    """One table's tuples: columnar slots addressed by handle.

    The mutator API (:meth:`insert` / :meth:`delete` / :meth:`replace`)
    is unchanged from the dict-backed storage it replaced; hash indexes
    attached via :meth:`attach_index` are maintained by the three
    mutators — including during transaction undo, which replays through
    the same mutators.
    """

    def __init__(self, schema):
        self.schema = schema
        self._cols = tuple([] for _ in range(schema.arity))
        self._handles = []
        self._tuples = []
        self._valid = []
        self._live = {}
        self._dead = 0
        self.indexes = []
        #: monotone mutation counter, bumped by every insert/delete/
        #: replace — including transaction undo and context-switch
        #: replay, which go through the same mutators. MaintainedView
        #: uses it as a concurrent-writer tripwire (PR 8): a fold by one
        #: session cannot leave another session's counters silently
        #: claiming to be in sync.
        self.mutations = 0
        #: live statistics + zone maps (see repro.relational.stats),
        #: folded by the three mutators — exactly like the indexes, so
        #: undo and replay keep them consistent. Widen-only fields are
        #: recomputed by :meth:`rebuild_stats` at compaction or once
        #: delete/replace drift passes the table's size.
        self.stats = TableStats(schema.arity)
        #: called after every stats rebuild; the owning Database points
        #: this at its stats-epoch bump so cached plans re-cost
        self.on_stats_rebuild = None

    def __len__(self):
        return len(self._live)

    def __contains__(self, handle):
        return handle in self._live

    # -- scans -------------------------------------------------------------

    def handles(self):
        """All live handles, in insertion order (a fresh list)."""
        return list(self._live)

    def iter_handles(self):
        """Iterator over live handles, in insertion order, without
        materializing the key list. Only safe while the table is not
        mutated; identification loops materialize before mutating."""
        return iter(self._live)

    def rows(self):
        """All live rows (value tuples), in insertion order."""
        tuples = self._tuples
        return [tuples[slot] for slot in self._live.values()]

    def items(self):
        """(handle, row) pairs, in insertion order."""
        tuples = self._tuples
        return [(handle, tuples[slot]) for handle, slot in self._live.items()]

    def iter_items(self):
        """Iterator over (handle, row) pairs; same caveat as
        :meth:`iter_handles`."""
        tuples = self._tuples
        for handle, slot in self._live.items():
            yield handle, tuples[slot]

    def get(self, handle):
        """The row for a live handle.

        Raises:
            ExecutionError: if the handle is not live in this table.
        """
        slot = self._live.get(handle)
        if slot is None:
            raise ExecutionError(
                f"handle {handle} is not live in table {self.schema.name!r}"
            )
        return self._tuples[slot]

    # -- batches -----------------------------------------------------------

    def batch(self):
        """A :class:`Batch` over every live row, in insertion order.

        Shares the live column lists (zero copy); the selection vector
        is invalidated by any subsequent mutation of this table.
        """
        return Batch(
            self._cols,
            list(self._live.values()),
            self._handles,
            self._tuples,
            self.schema.name,
            zones=self.stats.zones,
            # slots are allocated in insertion order and _live preserves
            # it, so a full-scan selection is always ascending
            ordered=True,
        )

    def _slots(self, handles):
        live = self._live
        try:
            return [live[handle] for handle in handles]
        except KeyError as error:
            raise ExecutionError(
                f"handle {error.args[0]} is not live in table "
                f"{self.schema.name!r}"
            ) from None

    def batch_for_handles(self, handles):
        """A :class:`Batch` selecting exactly ``handles`` (which must be
        live), in the given order."""
        return Batch(
            self._cols, self._slots(handles), self._handles, self._tuples,
            self.schema.name, zones=self.stats.zones,
        )

    def column_vectors(self, handles, names=None):
        """The values under ``handles`` (which must be live) column-wise:
        one list per schema column — or per column named in ``names`` —
        aligned with ``handles``. The inverse of :meth:`insert_columns` /
        :meth:`assign_columns`; the WAL logs these vectors."""
        sel = self._slots(handles)
        cols = self._cols
        if names is not None:
            position_of = self.schema.column_position
            cols = [cols[position_of(name)] for name in names]
        return [list(map(column.__getitem__, sel)) for column in cols]

    # -- mutators ----------------------------------------------------------

    def insert(self, handle, row):
        """Store ``row`` under ``handle``.

        ``row`` must already be schema-coerced; callers go through
        :meth:`repro.relational.database.Database` for validation.
        """
        if handle in self._live:
            raise ExecutionError(
                f"handle {handle} already live in table {self.schema.name!r}"
            )
        self.mutations += 1
        slot = len(self._handles)
        self._handles.append(handle)
        self._tuples.append(row)
        self._valid.append(True)
        for column, value in zip(self._cols, row):
            column.append(value)
        self._live[handle] = slot
        self.stats.on_insert(slot, row)
        for index in self.indexes:
            index.on_insert(handle, row)

    def delete(self, handle):
        """Remove and return the row stored under ``handle``.

        The slot is tombstoned, not shifted; storage is reclaimed by
        :meth:`compact`.
        """
        slot = self._live.pop(handle, None)
        if slot is None:
            raise ExecutionError(
                f"cannot delete handle {handle}: not live in table "
                f"{self.schema.name!r}"
            )
        self.mutations += 1
        row = self._tuples[slot]
        self._valid[slot] = False
        self._dead += 1
        self.stats.on_delete(row)
        for index in self.indexes:
            index.on_delete(handle, row)
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead * 2 >= len(self._handles)
        ):
            self.compact()
        elif self.stats.should_rebuild():
            self.rebuild_stats()
        return row

    def replace(self, handle, row):
        """Overwrite the row under a live ``handle``; returns the old row."""
        slot = self._live.get(handle)
        if slot is None:
            raise ExecutionError(
                f"cannot update handle {handle}: not live in table "
                f"{self.schema.name!r}"
            )
        self.mutations += 1
        old = self._tuples[slot]
        self._tuples[slot] = row
        for column, value in zip(self._cols, row):
            column[slot] = value
        self.stats.on_replace(slot, old, row)
        for index in self.indexes:
            index.on_replace(handle, old, row)
        if self.stats.should_rebuild():
            self.rebuild_stats()
        return old

    # -- bulk mutators (crash recovery) -------------------------------------
    #
    # Recovery replays whole column vectors (see repro.durability.wal).
    # The three mutators below write storage directly and fold neither
    # statistics nor indexes per row: recover() rebuilds both from
    # storage once replay is over, and nothing reads them in between.
    # They take distinct handles and either apply completely or raise
    # before touching storage.

    def delete_many(self, handles):
        """Tombstone every handle of ``handles`` (all must be live)."""
        valid = self._valid
        for slot in self._slots(handles):
            valid[slot] = False
        live = self._live
        for handle in handles:
            del live[handle]
        self.mutations += 1
        self._dead += len(handles)
        if (
            self._dead >= _COMPACT_MIN_DEAD
            and self._dead * 2 >= len(self._handles)
        ):
            self.compact()

    def insert_columns(self, handles, columns):
        """Append ``len(handles)`` rows given as one schema-coerced value
        list per column, in handle order (none may be live)."""
        first = len(self._handles)
        fresh = dict(zip(handles, range(first, first + len(handles))))
        live = self._live
        if len(fresh) != len(handles) or not live.keys().isdisjoint(fresh):
            seen = set(live)
            for handle in handles:
                if handle in seen:
                    raise ExecutionError(
                        f"handle {handle} already live in table "
                        f"{self.schema.name!r}"
                    )
                seen.add(handle)
        self.mutations += 1
        self._handles.extend(handles)
        self._tuples.extend(zip(*columns))
        self._valid.extend([True] * len(handles))
        for column, values in zip(self._cols, columns):
            column.extend(values)
        live.update(fresh)

    def assign_columns(self, handles, positions, vectors):
        """Overwrite the columns at ``positions`` of the live rows under
        ``handles`` with the aligned, schema-coerced ``vectors``."""
        slots = self._slots(handles)
        self.mutations += 1
        cols = self._cols
        for position, values in zip(positions, vectors):
            column = cols[position]
            for slot, value in zip(slots, values):
                column[slot] = value
        tuples = self._tuples
        rows = zip(*[[column[slot] for slot in slots] for column in cols])
        for slot, row in zip(slots, rows):
            tuples[slot] = row

    # -- compaction --------------------------------------------------------

    @property
    def tombstones(self):
        """Number of tombstoned (dead) slots awaiting compaction."""
        return self._dead

    def compact(self):
        """Drop tombstoned slots, renumbering the survivors in scan
        order; returns the number of slots reclaimed.

        Handles are untouched (indexes and the WAL are keyed by handle),
        but slot positions — and therefore any outstanding selection
        vector — are invalidated.
        """
        if not self._dead:
            return 0
        old_cols = self._cols
        old_tuples = self._tuples
        old_handles_col = self._handles
        cols = tuple([] for _ in old_cols)
        handles_col = []
        tuples = []
        live = {}
        for handle, slot in self._live.items():
            live[handle] = len(handles_col)
            handles_col.append(old_handles_col[slot])
            tuples.append(old_tuples[slot])
            for column, old_column in zip(cols, old_cols):
                column.append(old_column[slot])
        self._cols = cols
        self._handles = handles_col
        self._tuples = tuples
        self._valid = [True] * len(handles_col)
        self._live = live
        reclaimed = self._dead
        self._dead = 0
        # slots were renumbered: the zone maps (slot-aligned) and the
        # widen-only column stats are both rebuilt exactly
        self.rebuild_stats()
        return reclaimed

    def rebuild_stats(self):
        """Recompute statistics and zone maps exactly from storage and
        notify the owning database (which bumps its stats epoch)."""
        self.stats.rebuild(self._cols, list(self._live.values()))
        if self.on_stats_rebuild is not None:
            self.on_stats_rebuild()

    # -- snapshots / indexes ----------------------------------------------

    def snapshot(self):
        """A handle→row mapping copy (rows are immutable tuples)."""
        tuples = self._tuples
        return {
            handle: tuples[slot] for handle, slot in self._live.items()
        }

    def attach_index(self, index):
        """Attach a hash index; builds it from the current contents."""
        index.build(self.items())
        self.indexes.append(index)

    def detach_index(self, index):
        """Detach a previously attached index."""
        self.indexes = [i for i in self.indexes if i is not index]

    def index_on(self, column):
        """The attached index covering ``column``, or None."""
        for index in self.indexes:
            if index.column == column:
                return index
        return None
