"""Reference write path: the tuple-at-a-time mutators the repo shipped
until the set mutators of :mod:`repro.relational.database` /
:mod:`repro.relational.table` replaced them.

Test-only. ``tests/property/test_storage_differential.py`` holds the set
mutators to this module: the same handles, storage, statistics, zone
maps, index buckets, compaction points and errors, whatever way a
workload is cut into sets. Everything here is the seed's code verbatim —
``Database.insert_row`` / ``delete_row`` / ``update_row``,
``TransactionManager``'s undo log, ``Table.insert`` / ``delete`` /
``replace`` / ``compact``, ``TableStats.on_insert`` / ``on_delete`` /
``on_replace`` / ``rebuild``, ``ColumnStats.observe`` / ``forget`` and
``HashIndex.on_insert`` / ``on_delete`` / ``on_replace`` — turned into
functions over the production objects' fields, so nothing on this side
runs a line of the code under test. (``restore_row`` is the seed's
``Database.restore_row``, which ``tests/reference/wal_v1.py`` replays
through.)
"""

from __future__ import annotations

from repro.errors import ExecutionError, TransactionError
from repro.relational.stats import (
    DISTINCT_CAP,
    REBUILD_MIN_DRIFT,
    ZONE_SHIFT,
    ColumnStats,
)

_COMPACT_MIN_DEAD = 64


# ---------------------------------------------------------------------------
# ColumnStats / TableStats


def observe(stats, value):
    if value is None:
        stats.nulls += 1
        return
    if stats.minimum is None:
        stats.minimum = value
        stats.maximum = value
    else:
        if value < stats.minimum:
            stats.minimum = value
        elif value > stats.maximum:
            stats.maximum = value
    if not stats.saturated:
        stats.distinct.add(value)
        if len(stats.distinct) >= DISTINCT_CAP:
            stats.saturated = True


def forget(stats, value):
    """A deletion: only the exact counters can shrink."""
    if value is None:
        stats.nulls -= 1


def stats_on_insert(stats, slot, row):
    stats.row_count += 1
    zone = slot >> ZONE_SHIFT
    for column, (mins, maxs), value in zip(stats.columns, stats.zones, row):
        if zone >= len(mins):
            # pad: rebuilds truncate to the last *live* zone, but new
            # slots append past any trailing tombstoned region
            pad = zone + 1 - len(mins)
            mins.extend([None] * pad)
            maxs.extend([None] * pad)
        if value is not None:
            low = mins[zone]
            if low is None or value < low:
                mins[zone] = value
            if low is None or value > maxs[zone]:
                maxs[zone] = value
        observe(column, value)


def stats_on_delete(stats, row):
    stats.row_count -= 1
    stats.drift += 1
    for column, value in zip(stats.columns, row):
        forget(column, value)


def stats_on_replace(stats, slot, old_row, new_row):
    stats.drift += 1
    zone = slot >> ZONE_SHIFT
    for column, (mins, maxs), old, new in zip(
        stats.columns, stats.zones, old_row, new_row
    ):
        forget(column, old)
        if new is not None:
            if zone >= len(mins):
                pad = zone + 1 - len(mins)
                mins.extend([None] * pad)
                maxs.extend([None] * pad)
            low = mins[zone]
            if low is None or new < low:
                mins[zone] = new
            if low is None or new > maxs[zone]:
                maxs[zone] = new
        observe(column, new)


def should_rebuild(stats):
    return stats.drift >= max(REBUILD_MIN_DRIFT, stats.rows_at_rebuild)


def stats_rebuild(stats, cols, live_slots):
    """Recompute everything exactly from columnar storage."""
    stats.row_count = len(live_slots)
    stats.columns = tuple(ColumnStats() for _ in cols)
    stats.zones = tuple(([], []) for _ in cols)
    n_zones = (
        ((max(live_slots) >> ZONE_SHIFT) + 1) if live_slots else 0
    )
    for column_stats, (mins, maxs), column in zip(
        stats.columns, stats.zones, cols
    ):
        mins.extend([None] * n_zones)
        maxs.extend([None] * n_zones)
        for slot in live_slots:
            value = column[slot]
            observe(column_stats, value)
            if value is None:
                continue
            zone = slot >> ZONE_SHIFT
            low = mins[zone]
            if low is None or value < low:
                mins[zone] = value
            if low is None or value > maxs[zone]:
                maxs[zone] = value
    stats.drift = 0
    stats.rows_at_rebuild = stats.row_count


# ---------------------------------------------------------------------------
# HashIndex


def index_on_insert(index, handle, row):
    value = row[index.position]
    if value is None:
        return
    index._entries.setdefault(value, set()).add(handle)


def index_on_delete(index, handle, row):
    value = row[index.position]
    if value is None:
        return
    bucket = index._entries.get(value)
    if bucket is not None:
        bucket.discard(handle)
        if not bucket:
            del index._entries[value]


def index_on_replace(index, handle, old_row, new_row):
    old_value = old_row[index.position]
    new_value = new_row[index.position]
    if old_value == new_value:
        return
    index_on_delete(index, handle, old_row)
    index_on_insert(index, handle, new_row)


# ---------------------------------------------------------------------------
# Table


def table_insert(table, handle, row):
    """Store ``row`` (already schema-coerced) under ``handle``."""
    if handle in table._live:
        raise ExecutionError(
            f"handle {handle} already live in table {table.schema.name!r}"
        )
    table.mutations += 1
    slot = len(table._handles)
    table._handles.append(handle)
    table._tuples.append(row)
    table._valid.append(True)
    for column, value in zip(table._cols, row):
        column.append(value)
    table._live[handle] = slot
    stats_on_insert(table.stats, slot, row)
    for index in table.indexes:
        index_on_insert(index, handle, row)


def table_delete(table, handle):
    """Remove and return the row stored under ``handle``."""
    slot = table._live.pop(handle, None)
    if slot is None:
        raise ExecutionError(
            f"cannot delete handle {handle}: not live in table "
            f"{table.schema.name!r}"
        )
    table.mutations += 1
    row = table._tuples[slot]
    table._valid[slot] = False
    table._dead += 1
    stats_on_delete(table.stats, row)
    for index in table.indexes:
        index_on_delete(index, handle, row)
    if (
        table._dead >= _COMPACT_MIN_DEAD
        and table._dead * 2 >= len(table._handles)
    ):
        table_compact(table)
    elif should_rebuild(table.stats):
        table_rebuild_stats(table)
    return row


def table_replace(table, handle, row):
    """Overwrite the row under a live ``handle``; returns the old row."""
    slot = table._live.get(handle)
    if slot is None:
        raise ExecutionError(
            f"cannot update handle {handle}: not live in table "
            f"{table.schema.name!r}"
        )
    table.mutations += 1
    old = table._tuples[slot]
    table._tuples[slot] = row
    for column, value in zip(table._cols, row):
        column[slot] = value
    stats_on_replace(table.stats, slot, old, row)
    for index in table.indexes:
        index_on_replace(index, handle, old, row)
    if should_rebuild(table.stats):
        table_rebuild_stats(table)
    return old


def table_compact(table):
    """Drop tombstoned slots, renumbering the survivors in scan order."""
    if not table._dead:
        return 0
    old_cols = table._cols
    old_tuples = table._tuples
    old_handles_col = table._handles
    cols = tuple([] for _ in old_cols)
    handles_col = []
    tuples = []
    live = {}
    for handle, slot in table._live.items():
        live[handle] = len(handles_col)
        handles_col.append(old_handles_col[slot])
        tuples.append(old_tuples[slot])
        for column, old_column in zip(cols, old_cols):
            column.append(old_column[slot])
    table._cols = cols
    table._handles = handles_col
    table._tuples = tuples
    table._valid = [True] * len(handles_col)
    table._live = live
    reclaimed = table._dead
    table._dead = 0
    table_rebuild_stats(table)
    return reclaimed


def table_rebuild_stats(table):
    stats_rebuild(table.stats, table._cols, list(table._live.values()))
    if table.on_stats_rebuild is not None:
        table.on_stats_rebuild()


# ---------------------------------------------------------------------------
# Database + TransactionManager


class RowMutators:
    """The seed's ``Database`` mutation primitives and undo log over one
    production :class:`~repro.relational.database.Database`, which this
    object alone must write to."""

    def __init__(self, database):
        self.database = database
        self._log = None  # None = no active transaction

    # -- physical mutation primitives (undo-logged) -------------------------

    def insert_row(self, table_name, values):
        """Insert one coerced row; returns the new tuple handle."""
        database = self.database
        if database.on_table_write is not None:
            database.on_table_write(table_name)
        table = database.table(table_name)
        row = table.schema.coerce_row(values)
        handle = database.handles.allocate(table_name)
        table_insert(table, handle, row)
        if self._log is not None:
            self._log.append(("insert", table_name, handle, None))
        database.version += 1
        return handle

    def restore_row(self, table_name, handle, values):
        """Re-insert a row under its original handle (crash recovery).

        Identical to :meth:`insert_row` except the handle comes from
        durable state instead of the allocator.
        """
        database = self.database
        if database.on_table_write is not None:
            database.on_table_write(table_name)
        table = database.table(table_name)
        row = table.schema.coerce_row(values)
        database.handles.restore([handle], table_name)
        table_insert(table, handle, row)
        if self._log is not None:
            self._log.append(("insert", table_name, handle, None))
        database.version += 1
        return handle

    def delete_row(self, table_name, handle):
        """Delete the tuple under ``handle``; returns its final row value."""
        database = self.database
        if database.on_table_write is not None:
            database.on_table_write(table_name)
        table = database.table(table_name)
        row = table_delete(table, handle)
        if self._log is not None:
            self._log.append(("delete", table_name, handle, row))
        database.version += 1
        return row

    def update_row(self, table_name, handle, new_values_by_column):
        """Assign new values to some columns of a live tuple; returns
        ``(old_row, new_row)``."""
        database = self.database
        if database.on_table_write is not None:
            database.on_table_write(table_name)
        table = database.table(table_name)
        schema = table.schema
        old_row = table.get(handle)
        new_row = list(old_row)
        for column_name, value in new_values_by_column.items():
            position = schema.column_position(column_name)
            new_row[position] = schema.columns[position].coerce(
                value, schema.name
            )
        new_row = tuple(new_row)
        table_replace(table, handle, new_row)
        if self._log is not None:
            self._log.append(("update", table_name, handle, old_row))
        database.version += 1
        return old_row, new_row

    # -- transactions --------------------------------------------------------

    def begin(self):
        if self._log is not None:
            raise TransactionError("a transaction is already active")
        self._log = []

    def commit(self):
        self._log = None

    def rollback(self):
        """Undo every logged mutation and end the transaction."""
        self._undo_to(0)
        self._log = None

    def savepoint(self):
        return len(self._log)

    def rollback_to_savepoint(self, savepoint):
        """Undo mutations performed after ``savepoint``; txn stays active."""
        self._undo_to(savepoint)

    def _undo_to(self, position):
        while len(self._log) > position:
            kind, table_name, handle, row = self._log.pop()
            table = self.database.table(table_name)
            if kind == "insert":
                table_delete(table, handle)
            elif kind == "delete":
                table_insert(table, handle, row)
            else:
                table_replace(table, handle, row)
