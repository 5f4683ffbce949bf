"""Reference commit-record codec: the row-at-a-time version-1 WAL record
the repo shipped until the columnar version-2 record of
:mod:`repro.durability.wal` replaced it.

Test-only. ``tests/property/test_wal_codec_differential.py`` holds the
production build → encode → decode → bulk replay to this module's
build → row-at-a-time replay: same rows, same storage order, same
handles, indexes and rebuilt statistics. :func:`build_commit_record` and
:func:`replay_commit_record` are the seed's functions verbatim, except
that replay writes one tuple per call through the database's n = 1
spellings (``insert_rows`` of one row under its logged handle — the
seed's ``Database.restore_row`` — ``delete_row`` and ``update_row``).
"""

from __future__ import annotations

from repro.durability.wal import WalError


def build_commit_record(txn_id, effect, database):
    """Render a transaction's composed net effect as a commit record.

    ``effect`` is the whole-transaction
    :class:`~repro.core.effects.TransitionEffect` (external block and all
    rule-generated transitions composed per Definition 2.1); redo values
    are read from the database at the commit point, which by definition
    holds every net-inserted row live and every net-updated column at
    its final value. The §5.1 ``S`` component is read-only and is not
    logged.

    The record also carries the handle high-water mark (handles are
    non-reusable across crashes too) and per-table row counts for the
    touched tables, which recovery verifies after replay.
    """
    inserts = []
    for handle in sorted(effect.inserted):
        table = database.table_of_handle(handle)
        inserts.append([table, handle, list(database.row(table, handle))])
    deletes = []
    for handle in sorted(effect.deleted):
        deletes.append([database.table_of_handle(handle), handle])
    updates = {}
    for handle, column in sorted(effect.updated):
        table = database.table_of_handle(handle)
        updates.setdefault(handle, [table, handle, {}])
        row = database.row(table, handle)
        position = database.schema(table).column_position(column)
        updates[handle][2][column] = row[position]
    touched = {entry[0] for entry in inserts}
    touched.update(entry[0] for entry in deletes)
    touched.update(entry[0] for entry in updates.values())
    return {
        "kind": "commit",
        "txn": txn_id,
        "insert": inserts,
        "delete": deletes,
        "update": [updates[handle] for handle in sorted(updates)],
        "handle_hwm": database.handles.issued_count,
        "counts": {table: database.row_count(table) for table in sorted(touched)},
    }


def replay_commit_record(record, database):
    """Apply one commit record's net effect to a recovering database.

    Deletes first, then inserts (ascending handle order — allocation
    order), then updates; storage keeps every table in ascending handle
    order, so this reproduces the original storage order.

    Raises:
        WalError: when the post-replay row counts disagree with the
            counts recorded at commit time.
    """
    for table, handle in record["delete"]:
        database.delete_row(table, handle)
    for table, handle, values in record["insert"]:
        database.insert_rows(table, [[value] for value in values], [handle])
    for table, handle, values in record["update"]:
        database.update_row(table, handle, values)
    database.handles.advance_past(record["handle_hwm"])
    for table, expected in record["counts"].items():
        actual = database.row_count(table)
        if actual != expected:
            raise WalError(
                f"recovery verification failed: table {table!r} has "
                f"{actual} rows after replaying txn {record['txn']} "
                f"(lsn {record['lsn']}), commit recorded {expected}"
            )
