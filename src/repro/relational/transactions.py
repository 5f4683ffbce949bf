"""Undo-log based transactions with savepoints.

The paper's model treats operation blocks as indivisible and lets a rule
action request ``rollback`` of the whole transaction (back to state S0,
the state preceding the initial externally-generated transition). We
implement this with a classic undo log: every physical mutation appends
an undo record; rollback replays the log in reverse. Savepoints are just
log positions, used for statement-level atomicity (a failing operation
block undoes only its own work).

The unit of the log is the unit of change: one record per set mutation
— ``(kind, table, handles, rows)`` with ``kind`` one of ``"insert"``
(``rows`` is None), ``"delete"`` (the deleted rows) or ``"update"`` (the
rows as they were), ``handles`` and ``rows`` aligned. A record is
reverted newest tuple first through the table's own set mutators, so
zone maps and indexes follow. Reverting a delete revives the deleted
tuples' tombstoned slots in place (see :mod:`repro.relational.table`),
so a rolled-back table reads in the order it had in S0 — the ascending
handle order crash recovery rebuilds too.

Tuple handles are *not* reclaimed on rollback — the paper requires
handles to be non-reusable, and a rolled-back insert's handle must never
reappear.
"""

from __future__ import annotations

from ..errors import TransactionError


class _DetachedTransaction:
    """A suspended transaction's undo log + the redo list that remounts
    its writes (see :meth:`TransactionManager.detach`)."""

    __slots__ = ("log", "redo")

    def __init__(self, log, redo):
        self.log = log
        self.redo = redo


class TransactionManager:
    """Tracks one (non-nested) active transaction over a database.

    The database routes every physical mutation through :meth:`log`.
    Outside a transaction, mutations auto-commit (nothing is logged).
    """

    def __init__(self, database):
        self._database = database
        self._log = None  # None = no active transaction

    @property
    def active(self):
        return self._log is not None

    def begin(self):
        if self._log is not None:
            raise TransactionError("a transaction is already active")
        self._log = []

    def commit(self):
        if self._log is None:
            raise TransactionError("commit with no active transaction")
        self._log = None

    def rollback(self):
        """Undo every logged mutation and end the transaction."""
        if self._log is None:
            raise TransactionError("rollback with no active transaction")
        self._undo_to(0)
        self._log = None

    def savepoint(self):
        """Return an opaque savepoint token (current log position)."""
        if self._log is None:
            raise TransactionError("savepoint with no active transaction")
        return len(self._log)

    def rollback_to_savepoint(self, savepoint):
        """Undo mutations performed after ``savepoint``; txn stays active."""
        if self._log is None:
            raise TransactionError(
                "rollback to savepoint with no active transaction"
            )
        if savepoint > len(self._log):
            raise TransactionError("savepoint is ahead of the current log")
        self._undo_to(savepoint)

    # ------------------------------------------------------------------
    # logging (called by the Database set mutators)

    def log(self, kind, table, handles, rows=None):
        """Record one applied set mutation (see the module docstring);
        ``handles`` and ``rows`` must not be mutated afterwards."""
        if self._log is not None:
            self._log.append((kind, table, handles, rows))

    # ------------------------------------------------------------------
    # context switching (concurrency layer, PR 8)
    #
    # The physical database always holds the committed state plus the
    # writes of at most one *mounted* transaction. The coordinator
    # multiplexes sessions by detaching the mounted transaction's
    # writes (reverse undo replay, capturing a redo list) and
    # re-attaching them later (forward redo replay). Replay goes
    # through the table-level set mutators, NOT the Database ones — it
    # must not re-log undo records, bump database.version, or fire
    # read/write observers: switching restores state, it does not
    # perform new work on behalf of the transaction.

    def detach(self):
        """Physically remove this transaction's writes, returning an
        opaque state object for :meth:`attach`.

        The undo log is kept intact (undo records carry their own
        values, so later rollback/savepoint replay stays coherent after
        any number of detach/attach cycles). Savepoints are log
        positions and are preserved.
        """
        if self._log is None:
            raise TransactionError("detach with no active transaction")
        redo = [self._revert(record) for record in reversed(self._log)]
        log = self._log
        self._log = None
        return _DetachedTransaction(log, redo)

    def attach(self, detached):
        """Re-apply a detached transaction's writes and resume it.

        The caller (the concurrency coordinator) must have validated
        that no concurrent committer invalidated the replay — with
        backward validation, a passing check guarantees every handle
        this replay touches is in the state the redo list expects.
        Re-inserted tuples go back to their handles' places in the scan
        order: their slots are revived where :meth:`detach` tombstoned
        them, or merged in if a compaction has removed them since.
        """
        if self._log is not None:
            raise TransactionError("attach while a transaction is mounted")
        for kind, table_name, handles, rows in reversed(detached.redo):
            table = self._database.table(table_name)
            if kind == "insert":
                table.insert_rows(handles, rows)
            elif kind == "delete":
                table.delete_many(handles)
            else:
                table.replace_rows(handles, rows)
        self._log = detached.log

    # ------------------------------------------------------------------

    def _undo_to(self, position):
        while len(self._log) > position:
            self._revert(self._log.pop())

    def _revert(self, record):
        """Physically undo one logged set mutation, newest tuple first;
        returns the record of the mutation that re-applies it."""
        kind, table_name, handles, rows = record
        table = self._database.table(table_name)
        backwards = handles[::-1]
        if kind == "insert":
            return kind, table_name, handles, table.delete_many(backwards)[::-1]
        if kind == "delete":
            table.insert_rows(backwards, rows[::-1])
            return kind, table_name, handles, None
        current = table.replace_rows(backwards, rows[::-1])
        return kind, table_name, handles, current[::-1]
