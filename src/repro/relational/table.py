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

    All mutation goes through the three set mutators
    (:meth:`insert_columns` / :meth:`delete_many` /
    :meth:`assign_columns`); hash indexes attached via
    :meth:`attach_index` are maintained by them — including during
    transaction undo, context-switch replay and crash recovery, which
    replay through the same mutators.
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
        #: monotone mutation counter, bumped by every set mutator call
        #: — including transaction undo and context-switch replay,
        #: which go through the same mutators. MaintainedView
        #: uses it as a concurrent-writer tripwire (PR 8): a fold by one
        #: session cannot leave another session's counters silently
        #: claiming to be in sync.
        self.mutations = 0
        #: live statistics + zone maps (see repro.relational.stats),
        #: folded by the three set mutators — exactly like the indexes, so
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

    # -- set mutators ------------------------------------------------------
    #
    # Every physical change is one of three set operations over distinct
    # handles. Each validates first — it applies completely or raises
    # before touching storage — then writes storage and folds the
    # statistics and every attached index once per value vector. The
    # per-tuple tests that bound dead slots and statistics drift are
    # applied where a tuple-at-a-time loop would have applied them, so a
    # set leaves exactly the storage, statistics and indexes that its
    # tuples, written one after another, would leave.

    def insert_columns(self, handles, columns):
        """Append ``len(handles)`` rows given as one schema-coerced value
        vector per column, in handle order (none may be live)."""
        first = len(self._handles)
        live = self._live
        if not live.keys().isdisjoint(handles):
            raise self._already_live(
                next(handle for handle in handles if handle in live))
        # straight into the handle map (no scratch copy of a large set);
        # a handle named twice shows as a shortfall, and is taken back
        size = len(live) + len(handles)
        live.update(zip(handles, range(first, first + len(handles))))
        if len(live) != size:
            seen = set()
            twice = [handle for handle in handles
                     if handle in seen or seen.add(handle)][0]
            for handle in seen:  # every distinct handle went in
                del live[handle]
            raise self._already_live(twice)
        self.mutations += 1
        self._handles.extend(handles)
        self._tuples.extend(zip(*columns))
        self._valid.extend([True] * len(handles))
        for column, values in zip(self._cols, columns):
            column.extend(values)
        self.stats.on_insert(first, columns)
        for index in self.indexes:
            index.insert_many(handles, columns[index.position])

    def _already_live(self, handle):
        return ExecutionError(
            f"handle {handle} already live in table {self.schema.name!r}"
        )

    def delete_many(self, handles):
        """Tombstone every handle of ``handles`` (all must be live);
        returns their final rows. Slots are not shifted; storage is
        reclaimed by :meth:`compact`."""
        tuples = self._tuples
        rows = [tuples[slot] for slot in self._slots(handles)]
        self.mutations += 1
        stats = self.stats
        total = len(handles)
        done = 0
        while done < total:
            # as many tuples as leave the compaction and drift tests,
            # applied after each tuple, false until the last of them
            until_compact = max(
                _COMPACT_MIN_DEAD, (len(self._handles) + 1) // 2
            ) - self._dead
            stop = done + max(1, min(until_compact, stats.until_rebuild()))
            part, part_rows = handles[done:stop], rows[done:stop]
            live = self._live
            valid = self._valid
            for handle in part:
                valid[live.pop(handle)] = False
            self._dead += len(part)
            stats.on_delete(part_rows)
            for index in self.indexes:
                position = index.position
                index.delete_many(part, [row[position] for row in part_rows])
            done = stop
            if (
                self._dead >= _COMPACT_MIN_DEAD
                and self._dead * 2 >= len(self._handles)
            ):
                self.compact()
            elif stats.should_rebuild():
                self.rebuild_stats()
        return rows

    def assign_columns(self, handles, positions, vectors):
        """Overwrite the columns at ``positions`` of the live rows under
        ``handles`` with the aligned, schema-coerced ``vectors``; returns
        the rows as they were."""
        slots = self._slots(handles)
        tuples = self._tuples
        old_rows = [tuples[slot] for slot in slots]
        self.mutations += 1
        cols = self._cols
        stats = self.stats
        total = len(slots)
        done = 0
        while done < total:
            # as many tuples as leave the drift test false until the last
            stop = done + max(1, stats.until_rebuild())
            part = slots[done:stop]
            assigned = []
            for position, values in zip(positions, vectors):
                column = cols[position]
                new = values[done:stop]
                old = [column[slot] for slot in part]
                assigned.append((position, old, new))
                for slot, value in zip(part, new):
                    column[slot] = value
                for index in self.indexes:
                    if index.position == position:
                        index.assign_many(handles[done:stop], old, new)
            for slot, row in zip(part, zip(*[
                [column[slot] for slot in part] for column in cols
            ])):
                tuples[slot] = row
            stats.on_assign(part, assigned)
            done = stop
            if stats.should_rebuild():
                self.rebuild_stats()
        return old_rows

    def insert_rows(self, handles, rows):
        """:meth:`insert_columns` of whole rows (non-empty, aligned)."""
        self.insert_columns(handles, list(zip(*rows)))

    def replace_rows(self, handles, rows):
        """:meth:`assign_columns` of every column from whole rows
        (non-empty, aligned); returns the rows as they were."""
        return self.assign_columns(
            handles, range(self.schema.arity), list(zip(*rows))
        )

    def insert(self, handle, row):
        """:meth:`insert_rows` for one row."""
        self.insert_rows((handle,), (row,))

    def delete(self, handle):
        """:meth:`delete_many` for one handle; returns its row."""
        return self.delete_many((handle,))[0]

    def replace(self, handle, row):
        """:meth:`replace_rows` for one row; returns the old row."""
        return self.replace_rows((handle,), (row,))[0]

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
        index.build(
            list(self._live),
            list(map(self._cols[index.position].__getitem__,
                     self._live.values())),
        )
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
