"""Reference storage: a self-contained model of one database's tables,
kept in the layout the repo started from — a handle→slot dict plus one
row tuple per slot — and written one tuple at a time.

Test-only. ``tests/property/test_storage_differential.py`` holds the
production set mutators (:mod:`repro.relational.database` /
:mod:`repro.relational.table`) to this model: the same handles, scan
order, slots and tombstones, rows and column vectors, zone maps, index
buckets and compaction points, however a workload is cut into sets.
Nothing here calls the storage under test — the model keeps its own
tables, zone maps, indexes, handle counter and undo log, and borrows
only the schema layer's value coercion and the storage constants (zone
size, compaction threshold).

The write paths are the seed's ``Table.insert`` / ``delete`` /
``replace`` / ``compact`` and the zone folds of ``TableStats``, tuple
by tuple. Undo follows the
storage contract of :mod:`repro.relational.table` — a table's scan
order is ascending handle order: undoing a delete puts each tuple back
at its handle's ordered position, reviving its tombstoned slot when
there is one. When a slot is gone (compacted away) and the handle lies
below the largest stored one, the undo of that set is a *merge insert*,
which rebuilds the zones exactly from storage once the set is back;
otherwise the restored tuples widen the zones of their slots.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf

from repro.errors import ExecutionError, TransactionError
from repro.relational.schema import Column, TableSchema
from repro.relational.stats import ZONE_SHIFT
from repro.relational.types import SqlType

_COMPACT_MIN_DEAD = 64


def span(value):
    """The bounds a non-NULL value widens to: itself, or the whole line
    for a NaN (which orders against nothing)."""
    return (value, value) if value == value else (-inf, inf)


# ---------------------------------------------------------------------------
# zone maps


class StatsModel:
    """Per-column, per-zone ``(mins, maxs)``."""

    def __init__(self, arity):
        self.zones = tuple(([], []) for _ in range(arity))

    def widen(self, slot, row):
        """Make the zone of ``slot`` cover ``row``'s values."""
        zone = slot >> ZONE_SHIFT
        for (mins, maxs), value in zip(self.zones, row):
            if zone >= len(mins):
                # pad: rebuilds truncate to the last *live* zone, but new
                # slots append past any trailing tombstoned region
                pad = zone + 1 - len(mins)
                mins.extend([None] * pad)
                maxs.extend([None] * pad)
            if value is not None:
                low = mins[zone]
                lowest, highest = span(value)
                if low is None or lowest < low:
                    mins[zone] = lowest
                if low is None or highest > maxs[zone]:
                    maxs[zone] = highest

    def rebuild(self, arity, live):
        """Recompute every zone from ``live``, ``(slot, row)`` pairs in
        slot order."""
        self.zones = tuple(([], []) for _ in range(arity))
        if live:
            top = (live[-1][0] >> ZONE_SHIFT) + 1
            for mins, maxs in self.zones:
                mins.extend([None] * top)
                maxs.extend([None] * top)
        for slot, row in live:
            self.widen(slot, row)


# ---------------------------------------------------------------------------
# indexes and tables


class IndexModel:
    """``{value: handles}`` over one column; NULLs are not indexed."""

    def __init__(self, name, position):
        self.name = name
        self.position = position
        self.buckets = {}

    def insert(self, handle, row):
        value = row[self.position]
        if value is not None:
            self.buckets.setdefault(value, set()).add(handle)

    def delete(self, handle, row):
        value = row[self.position]
        bucket = self.buckets.get(value)
        if bucket is not None:
            bucket.discard(handle)
            if not bucket:
                del self.buckets[value]

    def replace(self, handle, old_row, new_row):
        if old_row[self.position] != new_row[self.position]:
            self.delete(handle, old_row)
            self.insert(handle, new_row)


class TableModel:
    """One table: ``live`` maps handle → slot; per slot its handle, its
    row tuple and whether it is live."""

    def __init__(self, schema):
        self.schema = schema
        self.live = {}
        self.slot_handles = []
        self.tuples = []
        self.valid = []
        self.dead = 0
        self.indexes = []
        self.stats = StatsModel(schema.arity)
        self.compactions = 0
        self.merge_inserts = 0

    def insert(self, handle, row):
        """Store a fresh tuple (its handle is the largest yet): append."""
        if handle in self.live:
            raise ExecutionError(
                f"handle {handle} already live in table {self.schema.name!r}")
        slot = len(self.slot_handles)
        self.slot_handles.append(handle)
        self.tuples.append(row)
        self.valid.append(True)
        self.live[handle] = slot
        self.stats.widen(slot, row)
        for index in self.indexes:
            index.insert(handle, row)

    def delete(self, handle):
        slot = self.live.pop(handle, None)
        if slot is None:
            raise ExecutionError(
                f"handle {handle} is not live in table {self.schema.name!r}")
        row = self.tuples[slot]
        self.valid[slot] = False
        self.dead += 1
        for index in self.indexes:
            index.delete(handle, row)
        if (self.dead >= _COMPACT_MIN_DEAD
                and self.dead * 2 >= len(self.slot_handles)):
            self.compact()
        return row

    def replace(self, handle, row):
        slot = self.live.get(handle)
        if slot is None:
            raise ExecutionError(
                f"handle {handle} is not live in table {self.schema.name!r}")
        old = self.tuples[slot]
        self.tuples[slot] = row
        self.stats.widen(slot, row)
        for index in self.indexes:
            index.replace(handle, old, row)
        return old

    def restore(self, entries):
        """Undo of one deleted set: ``(handle, row)`` pairs, in the order
        the undo puts them back. Each goes to its handle's ordered
        position; see the module docstring for revival and merging."""
        top = self.slot_handles[-1] if self.slot_handles else None
        merged = False
        for handle, row in entries:
            position = bisect_left(self.slot_handles, handle)
            if (position < len(self.slot_handles)
                    and self.slot_handles[position] == handle):
                self.valid[position] = True  # a tombstone revived
                self.tuples[position] = row
                self.dead -= 1
            else:
                merged = merged or (top is not None and handle < top)
                self.slot_handles.insert(position, handle)
                self.tuples.insert(position, row)
                self.valid.insert(position, True)
            for index in self.indexes:
                index.insert(handle, row)
        self.live = {
            handle: slot for slot, (handle, valid)
            in enumerate(zip(self.slot_handles, self.valid)) if valid
        }
        if merged:
            self.merge_inserts += 1
            self.rebuild_stats()
        else:
            for handle, row in entries:
                self.stats.widen(self.live[handle], row)

    def compact(self):
        keep = [slot for slot, valid in enumerate(self.valid) if valid]
        self.slot_handles = [self.slot_handles[slot] for slot in keep]
        self.tuples = [self.tuples[slot] for slot in keep]
        self.valid = [True] * len(keep)
        self.live = {handle: slot
                     for slot, handle in enumerate(self.slot_handles)}
        self.dead = 0
        self.compactions += 1
        self.rebuild_stats()

    def rebuild_stats(self):
        self.stats.rebuild(self.schema.arity, [
            (slot, self.tuples[slot]) for slot in sorted(self.live.values())
        ])

    # -- what the production side is compared on ------------------------------

    def handles(self):
        """Live handles in scan (slot) order."""
        return [handle for handle, valid in zip(self.slot_handles, self.valid)
                if valid]

    def rows(self):
        return [row for row, valid in zip(self.tuples, self.valid) if valid]

    def observed(self):
        rows = self.rows()
        return {
            "handles": self.handles(),
            "rows": rows,
            "exact": [[repr(value) for value in row] for row in rows],
            "vectors": [list(column) for column in zip(*rows)]
            if rows else [[] for _ in range(self.schema.arity)],
            "slots": [slot for slot, valid in enumerate(self.valid) if valid],
            "storage": len(self.slot_handles),
            "tombstones": self.dead,
            "compactions": self.compactions,
            "merge_inserts": self.merge_inserts,
            "indexes": {index.name: {value: set(bucket) for value, bucket
                                     in index.buckets.items()}
                        for index in self.indexes},
        }


# ---------------------------------------------------------------------------
# database + undo log


class ModelDatabase:
    """The model's catalog, handle counter and undo log. Every set
    operation is written tuple by tuple and logged as one record, which
    rollback undoes newest tuple first."""

    def __init__(self):
        self.tables = {}
        self.issued_count = 0
        self._log = None  # None = no active transaction

    def create_table(self, name, columns):
        schema = TableSchema(name, [
            Column(column, SqlType.from_name(type_name))
            for column, type_name in columns
        ])
        self.tables[name] = TableModel(schema)

    def create_index(self, name, table_name, column):
        table = self.tables[table_name]
        index = IndexModel(name, table.schema.column_position(column))
        for handle, slot in table.live.items():
            index.insert(handle, table.tuples[slot])
        table.indexes.append(index)

    def table(self, name):
        return self.tables[name]

    def _logged(self, record):
        if self._log is not None:
            self._log.append(record)

    # -- set operations, tuple by tuple ----------------------------------------

    def insert_rows(self, table_name, rows):
        table = self.tables[table_name]
        handles = []
        for values in rows:
            row = table.schema.coerce_row(values)
            self.issued_count += 1
            table.insert(self.issued_count, row)
            handles.append(self.issued_count)
        if handles:
            self._logged(("insert", table_name, handles))
        return handles

    def delete_rows(self, table_name, handles):
        table = self.tables[table_name]
        entries = [(handle, table.delete(handle)) for handle in handles]
        if entries:
            self._logged(("delete", table_name, entries))
        return [row for _, row in entries]

    def update_rows(self, table_name, handles, column_names, vectors):
        table = self.tables[table_name]
        schema = table.schema
        positions = [schema.column_position(name) for name in column_names]
        entries = []
        for handle, values in zip(handles, zip(*vectors)):
            new_row = list(table.tuples[table.live[handle]])
            for position, value in zip(positions, values):
                new_row[position] = schema.columns[position].coerce(
                    value, schema.name)
            entries.append((handle, table.replace(handle, tuple(new_row))))
        if entries:
            self._logged(("update", table_name, entries))
        return [row for _, row in entries]

    # -- transactions ----------------------------------------------------------

    def begin(self):
        if self._log is not None:
            raise TransactionError("a transaction is already active")
        self._log = []

    def commit(self):
        self._log = None

    def rollback(self):
        self.rollback_to_savepoint(0)
        self._log = None

    def savepoint(self):
        return len(self._log)

    def rollback_to_savepoint(self, savepoint):
        while len(self._log) > savepoint:
            kind, table_name, entries = self._log.pop()
            table = self.tables[table_name]
            if kind == "insert":
                for handle in reversed(entries):
                    table.delete(handle)
            elif kind == "delete":
                table.restore(entries[::-1])
            else:
                for handle, row in reversed(entries):
                    table.replace(handle, row)
