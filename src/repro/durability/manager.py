"""The durability manager: one directory, one WAL, one checkpoint.

A :class:`DurabilityManager` owns a durability directory holding
``wal.jsonl`` (see :mod:`~repro.durability.wal`) and ``checkpoint.json``
(see :mod:`~repro.durability.checkpoint`) — binary files that kept the
names of the text formats before them. Both are written as the same
deflated frames of the same per-table sections: a commit record's net
effect and a checkpoint's data. The WAL's frames are one deflate stream,
started afresh whenever the writer opens the file (after a checkpoint
cut it, for one) or appends a body of 16 KiB or more; the checkpoint is a stream of one frame. It is attached to an
:class:`~repro.ActiveDatabase` at construction and sits on the commit
path: the engine calls :meth:`log_commit` after rule quiescence and
*before* acknowledging the commit, so the fsync'd WAL record is the
durable commit point. A transaction that touched no table and issued no
handle since the last record (a ``select`` through ``execute``) appends
nothing.

A manager refuses to attach a *fresh* database to a directory that
already holds durable state — that would fork history; existing state
must be loaded through :func:`repro.durability.recovery.recover`, which
re-attaches a manager in resume mode.
"""

from __future__ import annotations

import os
from time import perf_counter

from ..errors import ReproError
from .checkpoint import (
    CHECKPOINT_FILENAME,
    build_checkpoint_document,
    write_checkpoint,
)
from .wal import WAL_FILENAME, WalWriter, build_commit_record


class DurabilityError(ReproError):
    """Raised for durability misconfiguration or failed recovery."""


class DurabilityManager:
    """Write-ahead logging and checkpointing for one database.

    Args:
        directory: the durability directory (created if missing).
        fsync: fsync every WAL append and checkpoint (the actual
            durability guarantee; disable only to measure its cost).
        checkpoint_interval: take a checkpoint automatically every N
            committed transactions (0 disables automatic checkpoints;
            :meth:`repro.ActiveDatabase.checkpoint` is always available).
        injector: optional
            :class:`~repro.durability.faults.FaultInjector` driving the
            crash-consistency test harness.
    """

    def __init__(self, directory, fsync=True, checkpoint_interval=0,
                 injector=None, _resume=False):
        self.directory = os.fspath(directory)
        self.fsync = fsync
        self.checkpoint_interval = checkpoint_interval
        self.injector = injector
        os.makedirs(self.directory, exist_ok=True)
        if not _resume and self._has_existing_state():
            raise DurabilityError(
                f"durability directory {self.directory!r} already holds "
                "WAL/checkpoint state; load it with "
                "repro.durability.recover() instead of attaching a fresh "
                "database"
            )
        self.wal = WalWriter(
            self.wal_path, fsync=fsync, injector=injector
        )
        #: last committed transaction id logged (resumed by recovery)
        self.last_txn = 0
        #: the handle high-water mark of the last commit record (resumed
        #: by recovery): an empty effect below it has nothing to log
        self.last_hwm = 0
        #: recovery summary dict, set by recover() on resumed managers
        self.recovery = None
        #: group commit: when True, :meth:`log_commit` defers the fsync
        #: so one :meth:`flush` can cover a whole batch of commits. The
        #: caller (the server's commit loop) owns the contract that no
        #: commit is acknowledged before the covering flush returns.
        self.group_commit = False

        self.commits_logged = 0
        self.ddl_logged = 0
        self.append_time = 0.0
        self.checkpoints = 0
        self.checkpoint_time = 0.0
        self.checkpoint_bytes = 0
        self.commits_since_checkpoint = 0

    @property
    def wal_path(self):
        return os.path.join(self.directory, WAL_FILENAME)

    @property
    def checkpoint_path(self):
        return os.path.join(self.directory, CHECKPOINT_FILENAME)

    def _has_existing_state(self):
        if os.path.exists(os.path.join(self.directory, CHECKPOINT_FILENAME)):
            return True
        wal = os.path.join(self.directory, WAL_FILENAME)
        return os.path.exists(wal) and os.path.getsize(wal) > 0

    # ------------------------------------------------------------------
    # crash points (no-ops without an injector)

    def crash_point(self, name):
        if self.injector is not None:
            self.injector.fire(name)

    # ------------------------------------------------------------------
    # logging

    def log_commit(self, txn_id, effect, database):
        """Durably log a transaction's net effect; returns append info,
        or None when there is nothing to log: the transaction touched no
        table and issued no handle since the last commit record.

        This is the commit point: once this returns, the transaction is
        committed regardless of what happens to the process.
        """
        if not effect.tables \
                and database.handles.issued_count == self.last_hwm:
            return None
        start = perf_counter()
        record = build_commit_record(txn_id, effect, database)
        bytes_before = self.wal.bytes_written
        lsn = self.wal.append(
            record, sync=None if not self.group_commit else False
        )
        elapsed = perf_counter() - start
        self.commits_logged += 1
        self.commits_since_checkpoint += 1
        self.append_time += elapsed
        self.last_txn = txn_id
        self.last_hwm = database.handles.issued_count
        return {
            "lsn": lsn,
            "bytes": self.wal.bytes_written - bytes_before,
            "duration": elapsed,
        }

    def log_ddl(self, op, **fields):
        """Durably log a schema/rule-catalog change; returns append info."""
        start = perf_counter()
        body = {"kind": "ddl", "op": op}
        body.update(fields)
        lsn = self.wal.append(body)
        elapsed = perf_counter() - start
        self.ddl_logged += 1
        self.append_time += elapsed
        return {"lsn": lsn, "duration": elapsed}

    def flush(self):
        """fsync any group-commit batch deferred by :meth:`log_commit`;
        returns True when an fsync was issued."""
        start = perf_counter()
        synced = self.wal.sync()
        if synced:
            self.append_time += perf_counter() - start
        return synced

    def should_checkpoint(self):
        return (
            self.checkpoint_interval > 0
            and self.commits_since_checkpoint >= self.checkpoint_interval
        )

    def checkpoint(self, db):
        """Write a checkpoint for ``db`` and truncate the folded WAL.

        The WAL truncation is safe against a crash between the two
        steps: a checkpoint records the LSN it covers, so leftover WAL
        records at or below it are skipped by recovery.
        """
        start = perf_counter()
        # A checkpoint is the natural storage-maintenance point: no
        # transaction is open, so no selection vector or undo record can
        # refer to the slot positions compaction renumbers.
        storage = db.database
        for name in storage.table_names():
            storage.table(name).compact()
        wal_lsn = self.wal.next_lsn - 1
        document = build_checkpoint_document(db, wal_lsn, self.last_txn)
        nbytes = write_checkpoint(
            self.directory, document, injector=self.injector, fsync=self.fsync
        )
        self._truncate_wal()
        elapsed = perf_counter() - start
        self.checkpoints += 1
        self.checkpoint_time += elapsed
        self.checkpoint_bytes += nbytes
        self.commits_since_checkpoint = 0
        return {"wal_lsn": wal_lsn, "bytes": nbytes, "duration": elapsed}

    def _truncate_wal(self):
        """Drop WAL records now covered by the checkpoint (LSNs keep
        counting; the checkpoint's ``wal_lsn`` marks the cut)."""
        self.wal.close()
        if os.path.exists(self.wal.path):
            with open(self.wal.path, "wb") as handle:
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())

    # ------------------------------------------------------------------

    def stats_snapshot(self):
        """The ``stats()["durability"]`` section (plain JSON-ready dict)."""
        return {
            "directory": self.directory,
            "fsync": self.fsync,
            "wal_records": self.wal.records_written,
            "wal_bytes": self.wal.bytes_written,
            "wal_syncs": self.wal.syncs,
            "group_commit": self.group_commit,
            "commits_logged": self.commits_logged,
            "ddl_logged": self.ddl_logged,
            "append_time": self.append_time,
            "last_lsn": self.wal.next_lsn - 1,
            "wal_failure": self.wal.failure,
            "checkpoints": self.checkpoints,
            "checkpoint_time": self.checkpoint_time,
            "checkpoint_bytes": self.checkpoint_bytes,
            "commits_since_checkpoint": self.commits_since_checkpoint,
            "recovery": self.recovery,
        }

    def close(self):
        self.wal.close()
