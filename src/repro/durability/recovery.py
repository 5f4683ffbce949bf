"""Crash recovery: checkpoint load + WAL replay.

:func:`recover` rebuilds an :class:`~repro.ActiveDatabase` from a
durability directory:

1. load the last checkpoint (if any) — create its tables, replay its
   data (one insert section per table, rows *with their original tuple
   handles*) through the same section reader as step 3, then define
   its indexes, rules and priorities, and resume the allocator past its
   high-water mark;
2. scan the WAL in order, one inflater for the file's deflate stream,
   truncating a torn tail (a partially-written final frame, detected by
   its length, inflate or checksum) — everything before the tear is the
   committed history, everything after it never happened (frames behind
   the tear that read back whole are counted, a lower bound, then cut
   with it: recovery is point-in-time, see
   :func:`~repro.durability.wal.scan_wal`, which numbers the records
   on from the LSN the first one states); refuse, before anything is
   cut, a log or checkpoint of an earlier version and a log spliced
   from two;
3. replay the WAL suffix (records past the checkpoint's LSN): DDL
   records re-execute catalog changes, commit records re-apply net
   effects as whole column vectors — no rule ever re-fires, because
   each commit record already *is* the composed net effect of its
   transaction's rule processing — verifying the per-table row counts
   each commit record captured;
4. recompute the zone maps exactly from storage (replay goes through
   the same set mutators as any other write, so indexes and zone maps
   were maintained all along; this only tightens the widen-only
   bounds).

The recovered database starts a fresh system lifetime in the paper's
sense — no open transaction, empty per-rule transition information —
except that tuple handles keep their identities and the allocator
resumes past every handle ever durably issued (handles are non-reusable
across crashes too). A resumed :class:`DurabilityManager` is attached so
the database continues appending to the same WAL.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import TYPE_CHECKING, Any

from ..errors import ReproError
from ..persistence import restore_catalog
from .checkpoint import CheckpointError, read_checkpoint
from .manager import DurabilityManager
from .wal import (
    WalError,
    WalWriter,
    replay_commit_record,
    replay_sections,
    scan_wal,
)

if TYPE_CHECKING:
    from ..relational.database import Database
    from ..system import ActiveDatabase
    from .faults import FaultInjector


def recover(directory: str | os.PathLike[str], fsync: bool = True,
            checkpoint_interval: int = 0,
            injector: FaultInjector | None = None,
            **db_kwargs: Any) -> ActiveDatabase:
    """Rebuild the database persisted in ``directory``.

    ``db_kwargs`` are forwarded to the :class:`~repro.ActiveDatabase`
    constructor (strategy, max_rule_transitions, sink, ...). An empty or
    missing directory recovers to a fresh empty database.

    Returns:
        The recovered :class:`~repro.ActiveDatabase`, with a resumed
        durability manager attached (its ``recovery`` stats describe
        what was replayed).
    """
    from ..system import ActiveDatabase

    start = perf_counter()
    manager = DurabilityManager(
        directory, fsync=fsync, checkpoint_interval=checkpoint_interval,
        injector=injector, _resume=True,
    )
    document = read_checkpoint(manager.directory)
    scan = scan_wal(manager.wal_path)
    if scan.torn_bytes:
        WalWriter(manager.wal_path, fsync=fsync).truncate_to(scan.valid_bytes)

    db = ActiveDatabase(**db_kwargs)
    checkpoint_lsn = 0
    if document is not None:
        _restore_checkpoint(db, document)
        checkpoint_lsn = document["wal_lsn"]

    commits = ddl = 0
    for record in scan.records:
        if record["lsn"] <= checkpoint_lsn:
            continue  # already folded into the checkpoint
        if "commit" in record:
            replay_commit_record(record, db.database)
            db.engine._txn_id = record["txn"]
            commits += 1
        elif record.get("kind") == "ddl":
            _apply_ddl(db, record)
            ddl += 1
        else:
            raise WalError(
                f"unknown WAL record kind {record.get('kind')!r} "
                f"(lsn {record['lsn']})"
            )

    _rebuild_statistics(db.database)

    if scan.records and scan.last_lsn < checkpoint_lsn:
        # the checkpoint holds every record, and the next append's LSN
        # would not follow the last: empty the log, as the checkpoint
        # would have, so that append opens it stating its LSN
        manager.wal.truncate_to(0)
    manager.wal.next_lsn = max(scan.last_lsn, checkpoint_lsn) + 1
    manager.last_txn = db.engine._txn_id
    manager.last_hwm = db.database.handles.issued_count
    manager.recovery = {
        "checkpoint": document is not None,
        "checkpoint_lsn": checkpoint_lsn,
        "records_scanned": len(scan.records),
        "commits_replayed": commits,
        "ddl_replayed": ddl,
        "torn_bytes_truncated": scan.torn_bytes,
        "records_discarded_after_tear": scan.discarded_records,
        "last_txn": manager.last_txn,
        "duration": perf_counter() - start,
    }
    db.engine.durability = manager
    db.engine._emit_recovery(manager.recovery)
    return db


def _restore_checkpoint(db: ActiveDatabase, document: dict[str, Any]) -> None:
    """Rebuild catalog and data from a checkpoint, keeping handles: the
    data is replayed as commit sections, between the tables and the
    indexes, rules and priorities. Any failure to replay it — a
    malformed section, a value of the wrong type — is a
    :class:`CheckpointError`."""

    def load_data() -> None:
        try:
            replay_sections(document["data"], db.database)
        except ReproError as error:
            raise CheckpointError(str(error)) from None

    restore_catalog(db, document["catalog"], load_data)
    db.database.handles.advance_past(document["hwm"])
    db.engine._txn_id = document["last_txn"]


def _apply_ddl(db: ActiveDatabase, record: dict[str, Any]) -> None:
    """Re-execute one logged catalog change."""
    op = record["op"]
    if op == "create_table":
        db.database.create_table(
            record["name"],
            [(column, type_name) for column, type_name in record["columns"]],
        )
    elif op == "drop_table":
        db.database.drop_table(record["name"])
    elif op == "create_index":
        db.database.create_index(
            record["name"], record["table"], record["column"]
        )
    elif op == "drop_index":
        db.database.drop_index(record["name"])
    elif op == "create_rule":
        db.engine.define_rule(
            record["sql"],
            reset_policy=record.get("reset_policy", "execution"),
        )
    elif op == "drop_rule":
        db.engine.drop_rule(record["name"])
    elif op == "priority":
        db.engine.add_priority(record["higher"], record["lower"])
    elif op == "set_reset_policy":
        db.catalog.rule(record["rule"]).reset_policy = record["policy"]
    elif op == "set_rule_active":
        db.catalog.rule(record["rule"]).active = record["active"]
    else:
        raise WalError(
            f"unknown DDL op {op!r} in WAL record lsn {record['lsn']}"
        )


def _rebuild_statistics(database: Database) -> None:
    """Recompute every table's zone maps exactly from storage. Replay
    folded them as it went, widen-only like any other writer; a
    recovered database starts with exact bounds instead, as after a
    checkpoint's compaction. (Indexes need nothing: the set mutators
    replay went through maintained them.)"""
    for name in database.table_names():
        database.table(name).rebuild_stats()
