"""The transaction coordinator: sessions, switching, validation.

One :class:`TransactionCoordinator` wraps one
:class:`~repro.system.ActiveDatabase` and multiplexes any number of
:class:`Session`\\ s over its single engine:

* **Context switching.** The physical database always holds the
  committed state plus at most one *mounted* transaction's writes.
  Mounting another session detaches the incumbent (reverse undo replay
  capturing a redo list) and attaches the newcomer (forward redo
  replay) — both through table-level mutators, so indexes stay
  maintained and nothing is re-logged. Unmounting is lazy: a session's
  transaction stays mounted until another session needs the engine, so
  a single-client workload pays nothing.

* **Optimistic validation.** Reads are collected at table granularity
  through the database's read observers (scan resolvers, DML
  identification, index lookups, and the incremental layer's semantic
  answers all funnel through them); fired
  rules' reads and writes land in the same sets because rule processing
  runs inside the transaction. At every mount and at every commit —
  the *serialization point*, right before the WAL append — the session
  is validated backward against every transaction committed since its
  last anchor: any overlap between a committed write set and this
  session's read set aborts this session (first committer wins). A
  passing validation re-anchors the session at the current commit
  sequence, which is why commit order is the serial order the property
  harness replays. Table granularity makes the check sound against
  phantoms; blind inserts stay out of the read set, so append-only
  workloads never conflict.

* **Retry contract.** An auto-commit statement (no explicit ``begin``)
  that conflicts is retried wholesale — the user statement *and* the
  whole rule cascade re-run against fresh state, up to ``max_retries``
  times. A conflict inside an explicit transaction aborts the whole
  transaction and surfaces to the client, which owns the retry
  (docs/semantics.md §14).

The coordinator is synchronous and reentrancy-free (an internal lock
serializes session operations); the server drives it from the one
thread of its ``selectors`` loop, and the deterministic interleaving driver
(tests/concurrency) drives it from worker threads that yield at the
engine's named pause points.
"""

from __future__ import annotations

import threading

from ..errors import ConflictError, TransactionError
from ..obs.events import EventKind
from ..sql import ast

#: commit-log entries kept beyond what open transactions can still
#: conflict with (a small grace so introspection can see recent history)
_LOG_SLACK = 64


class SwitchAbort(BaseException):
    """A suspended transaction failed remount validation at a pause
    point *inside* engine frames.

    Deliberately a ``BaseException``: the engine's ``except Exception``
    handlers (savepoint rollback, abort attribution) must not run — the
    transaction's writes are already detached, so those handlers would
    act against another transaction's (or no) mounted state. The
    coordinator's operation frame catches this and re-raises the
    wrapped :class:`~repro.errors.ConflictError`.
    """

    def __init__(self, conflict):
        super().__init__(str(conflict))
        self.conflict = conflict


class ConcurrencyStats:
    """Coordinator counters; ``snapshot()`` is ``stats()["server"]``."""

    __slots__ = (
        "sessions_open",
        "sessions_total",
        "statements",
        "commits",
        "conflicts",
        "retries",
        "aborts",
        "switches",
        "validations",
        "conflicts_predicted",
        "conflicts_unpredicted",
    )

    def __init__(self):
        self.sessions_open = 0
        self.sessions_total = 0
        self.statements = 0
        self.commits = 0
        self.conflicts = 0
        self.retries = 0
        self.aborts = 0
        self.switches = 0
        self.validations = 0
        #: observed conflicts whose tables the static effect analysis
        #: forecast as contended vs. not (see RuleEngine.conflict_advisory)
        self.conflicts_predicted = 0
        self.conflicts_unpredicted = 0

    def snapshot(self):
        return {
            "sessions_open": self.sessions_open,
            "sessions_total": self.sessions_total,
            "statements": self.statements,
            "commits": self.commits,
            "conflicts": self.conflicts,
            "retries": self.retries,
            "aborts": self.aborts,
            "switches": self.switches,
            "validations": self.validations,
            "conflicts_predicted": self.conflicts_predicted,
            "conflicts_unpredicted": self.conflicts_unpredicted,
        }


class Session:
    """One client's coordinator-side state."""

    __slots__ = (
        "id",
        "name",
        "reads",
        "write_tables",
        "valid_from_seq",
        "context",
        "in_txn",
        "closed",
        "statements",
        "commits",
        "conflicts",
        "retries",
    )

    def __init__(self, sid, name):
        self.id = sid
        self.name = name
        self.reads = set()
        self.write_tables = set()
        self.valid_from_seq = 0
        self.context = None  # engine context while suspended
        self.in_txn = False
        self.closed = False
        self.statements = 0
        self.commits = 0
        self.conflicts = 0
        self.retries = 0

    @property
    def mounted(self):
        return self.in_txn and self.context is None

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "idle"
        if self.in_txn:
            state = "mounted" if self.context is None else "suspended"
        return f"<Session {self.name} {state}>"


class TransactionCoordinator:
    """Multiplexes sessions' rule-firing transactions over one engine.

    Args:
        system: the :class:`~repro.system.ActiveDatabase` to serve.
        max_retries: automatic wholesale retries for a conflicting
            auto-commit statement before the conflict surfaces.
    """

    def __init__(self, system, max_retries=5):
        self.system = system
        self.engine = system.engine
        self.database = system.database
        self.max_retries = max_retries
        self.stats = ConcurrencyStats()
        self._sessions = {}
        self._next_sid = 0
        #: session whose transaction is physically mounted (lazy unmount)
        self._active = None
        #: session executing the current operation (read/write attribution)
        self._current = None
        self._commit_seq = 0
        self._commit_log = []  # (seq, frozenset(write tables))
        #: test-driver hook: ``callable(point, session)`` invoked at the
        #: named interleaving points with the op lock released — it may
        #: block while other sessions run; the engine state is remounted
        #: (or the transaction conflict-aborted) when it returns
        self.pause_hook = None
        self._op_lock = threading.RLock()
        # wire into the engine and database
        self.database.on_table_read = self._note_read
        self.database.on_table_write = self._note_write
        self.engine.pre_commit_hook = self._validate_current
        self.engine.pause_hook = self._pause
        self.engine.concurrency = self.stats

    # ------------------------------------------------------------------
    # sessions

    def open_session(self, name=None):
        with self._op_lock:
            self._next_sid += 1
            session = Session(self._next_sid, name or f"s{self._next_sid}")
            self._sessions[session.id] = session
            self.stats.sessions_open += 1
            self.stats.sessions_total += 1
            self._emit(EventKind.SESSION_OPEN, session=session.name)
            return session

    def close_session(self, session):
        with self._op_lock:
            if session.closed:
                return
            if session.in_txn:
                self._abort_session_txn(session, reason="session_close")
            session.closed = True
            self._sessions.pop(session.id, None)
            self.stats.sessions_open -= 1
            self._emit(EventKind.SESSION_CLOSE, session=session.name)

    def sessions(self):
        return list(self._sessions.values())

    # ------------------------------------------------------------------
    # the statement surface

    def execute(self, session, statement):
        """Run one statement for ``session`` under concurrency control.

        Auto-commit operation blocks are retried wholesale on conflict
        (statement + rule cascade, up to ``max_retries``); conflicts
        inside an explicit transaction abort it and propagate.
        """
        bound = None
        if isinstance(statement, str):
            # outside the operation lock, so an embedding application's
            # threads may parse concurrently: the statement cache has its
            # own lock
            statement, bound = self.database.statements.parse(statement)
        self._check_session(session)
        if isinstance(statement, ast.OperationBlock):
            if session.in_txn:
                return self._run_op(
                    session, lambda: self.system.execute(statement, bound)
                )
            return self._autocommit(session, statement, bound)
        if isinstance(statement, ast.AssertRules):
            if not session.in_txn:
                raise TransactionError(
                    "assert rules requires an open transaction"
                )
            return self._run_op(
                session, lambda: self.system.execute(statement)
            )
        if isinstance(statement, ast.Explain):
            return self.system.execute(statement, bound)
        # Everything else mutates shared structure (schema, indexes, the
        # rule catalog): a global barrier — no transaction may be open
        # anywhere — keeps DDL trivially serializable.
        return self._ddl(statement)

    def query(self, session, select):
        """Evaluate a read-only select for ``session``.

        Inside an explicit transaction the reads join the session's
        read set (they are validated like any other); outside one the
        query sees the committed state (any mounted foreign transaction
        is suspended first).
        """
        self._check_session(session)
        return self._run_op(session, lambda: self.system.query(select))

    def begin(self, session):
        """Open an explicit transaction for ``session``."""
        self._check_session(session)
        if session.in_txn:
            raise TransactionError(
                f"session {session.name!r} already has an open transaction"
            )

        def op():
            self._begin_session_txn(session)
            try:
                self.system.begin()
            except BaseException:
                self._abandon(session)
                raise

        return self._run_op(session, op)

    def commit(self, session):
        """Process rules, validate at the serialization point, commit."""
        self._check_session(session)
        if not session.in_txn:
            raise TransactionError(
                f"session {session.name!r} has no open transaction"
            )

        def op():
            result = self.system.commit()
            self._committed(session)
            return result

        return self._run_op(session, op)

    def rollback(self, session):
        """Explicitly abort ``session``'s open transaction."""
        self._check_session(session)
        if not session.in_txn:
            raise TransactionError(
                f"session {session.name!r} has no open transaction"
            )

        def op():
            result = self.system.rollback()
            self._abandon(session)
            return result

        return self._run_op(session, op)

    # ------------------------------------------------------------------
    # observers (installed on the database at construction)

    def _note_read(self, table):
        session = self._current
        if session is None:
            return
        session.reads.add(table)

    def _note_write(self, table):
        session = self._current
        if session is None:
            return
        session.write_tables.add(table)

    # ------------------------------------------------------------------
    # the operation frame

    def _run_op(self, session, fn):
        with self._op_lock:
            self._boundary(session)
            self.stats.statements += 1
            session.statements += 1
            try:
                self._mount(session)
                self._current = session
                return fn()
            except SwitchAbort as abort:
                self._current = None
                self._conflict_cleanup(session)
                raise abort.conflict from None
            except ConflictError:
                self._current = None
                self._conflict_cleanup(session)
                raise
            finally:
                self._current = None
                if not session.in_txn:
                    # non-transactional reads (plain queries) must not
                    # accumulate footprint
                    session.reads = set()
                    session.write_tables = set()

    def _autocommit(self, session, block, bound):
        attempt = 0
        while True:
            try:
                return self._run_op(
                    session,
                    lambda: self._autocommit_once(session, block, bound),
                )
            except ConflictError:
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                session.retries += 1
                self.stats.retries += 1
                self._emit(
                    EventKind.TXN_RETRY,
                    session=session.name,
                    attempt=attempt,
                )

    def _autocommit_once(self, session, block, bound):
        self._begin_session_txn(session)
        try:
            result = self.system.execute(block, bound)
        except ConflictError:
            raise  # _run_op owns the cleanup
        except BaseException:
            # run_block already aborted the engine transaction
            self._abandon(session)
            raise
        self._committed(session)
        return result

    def _ddl(self, statement):
        with self._op_lock:
            open_txns = [
                s.name for s in self._sessions.values() if s.in_txn
            ]
            if open_txns or self.engine.in_transaction:
                raise TransactionError(
                    "DDL requires no open transactions (open: "
                    f"{', '.join(open_txns) or 'unmanaged'})"
                )
            self.stats.statements += 1
            return self.system.execute(statement)

    # ------------------------------------------------------------------
    # mounting and validation

    def _mount(self, session):
        if session.in_txn:
            if self._active is session:
                return
            self._suspend_active()
            self._resume(session)
            return
        # fresh statement: just make sure no foreign transaction's
        # writes are visible
        if self._active is not None and self._active is not session:
            self._suspend_active()

    def _suspend_active(self):
        active = self._active
        if active is None:
            return
        active.context = self.engine.suspend_transaction()
        self._active = None
        self.stats.switches += 1

    def _resume(self, session):
        self._validate(session)
        self.engine.resume_transaction(session.context)
        session.context = None
        self._active = session
        self.stats.switches += 1

    def _validate(self, session):
        """Backward validation: abort if any transaction committed since
        this session's anchor wrote a table this session read. A pass
        re-anchors the session at the current commit sequence."""
        self.stats.validations += 1
        footprint = session.reads
        if footprint:
            overlap = set()
            for seq, tables in self._commit_log:
                if seq > session.valid_from_seq:
                    overlap |= tables & footprint
            if overlap:
                raise ConflictError(
                    f"session {session.name!r} read "
                    f"{sorted(overlap)} which concurrent transactions "
                    "have since committed writes to",
                    tables=overlap,
                )
        session.valid_from_seq = self._commit_seq

    def _validate_current(self):
        """``engine.pre_commit_hook``: the serialization-point check,
        after quiescence (fired rules' reads/writes are in the sets)
        and before the WAL append."""
        session = self._current
        if session is None:
            return
        self._validate(session)

    # ------------------------------------------------------------------
    # transaction bookkeeping

    def _begin_session_txn(self, session):
        session.reads = set()
        session.write_tables = set()
        session.valid_from_seq = self._commit_seq
        session.in_txn = True
        self._active = session

    def _committed(self, session):
        if session.write_tables:
            self._commit_seq += 1
            self._commit_log.append(
                (self._commit_seq, frozenset(session.write_tables))
            )
        session.commits += 1
        self.stats.commits += 1
        self._end_session_txn(session)
        self._trim_log()

    def _abandon(self, session):
        """The engine transaction is already gone (error abort, explicit
        rollback); drop the session-side state."""
        self.stats.aborts += 1
        self._end_session_txn(session)

    def _conflict_cleanup(self, session):
        """A ConflictError (or SwitchAbort) reached the op frame: a
        failed commit validation has already aborted the mounted
        transaction; a failed remount leaves it suspended, so discard
        it here. Then account the conflict."""
        if session.context is not None:
            # failed remount validation: writes already detached
            self.engine.discard_suspended(session.context, reason="conflict")
            session.context = None
        if session.in_txn:
            self.stats.aborts += 1
        footprint = session.reads | session.write_tables
        self._end_session_txn(session)
        session.conflicts += 1
        self.stats.conflicts += 1
        self._classify_conflict(footprint)
        self._emit(EventKind.TXN_CONFLICT, session=session.name)

    def _classify_conflict(self, footprint):
        """Score one observed conflict against the static effect
        analysis: *predicted* when any of the transaction's tables was
        in the forecast contended set, *unpredicted* otherwise. A high
        unpredicted share means the advisory misses workload structure
        (conflicts between external statements, not rules); a high
        predicted share confirms the RPL5xx warnings point at real
        contention."""
        contended = self.engine.conflict_advisory().get(
            "contended_tables", ()
        )
        if not footprint.isdisjoint(contended):
            self.stats.conflicts_predicted += 1
        else:
            self.stats.conflicts_unpredicted += 1

    def _abort_session_txn(self, session, reason):
        """Abort on session close, wherever the transaction lives."""
        if self._active is session and self.engine.in_transaction:
            self.engine.rollback()
        elif session.context is not None:
            self.engine.discard_suspended(session.context, reason=reason)
            session.context = None
        self.stats.aborts += 1
        self._end_session_txn(session)

    def _end_session_txn(self, session):
        session.in_txn = False
        session.reads = set()
        session.write_tables = set()
        if self._active is session:
            self._active = None

    def _trim_log(self):
        """Drop commit-log entries no open transaction can still
        conflict with."""
        open_anchors = [
            s.valid_from_seq
            for s in self._sessions.values()
            if s.in_txn
        ]
        horizon = min(open_anchors) if open_anchors else self._commit_seq
        if len(self._commit_log) <= _LOG_SLACK:
            return
        self._commit_log = [
            entry for entry in self._commit_log if entry[0] > horizon
        ]

    # ------------------------------------------------------------------
    # pause points (deterministic interleaving; see tests/concurrency)

    def _boundary(self, session):
        """The ``statement_boundary`` pause point (op lock held once)."""
        hook = self.pause_hook
        if hook is None:
            return
        self._op_lock.release()
        try:
            hook("statement_boundary", session)
        finally:
            self._op_lock.acquire()

    def _pause(self, point):
        """``engine.pause_hook``: yield at a named mid-engine point.

        The driver may run other sessions' operations while this one is
        parked (the op lock is released); on return the session's
        transaction is remounted — raising :class:`SwitchAbort` if a
        concurrent commit invalidated it, with the physical state
        already clean (the transaction stays detached).
        """
        hook = self.pause_hook
        if hook is None:
            return
        session = self._current
        if session is None:
            return
        self._current = None
        self._op_lock.release()
        try:
            hook(point, session)
        finally:
            self._op_lock.acquire()
            self._current = session
        if self._active is not session:
            try:
                self._suspend_active()
                self._resume(session)
            except ConflictError as conflict:
                raise SwitchAbort(conflict) from None

    # ------------------------------------------------------------------

    def _check_session(self, session):
        if session.closed:
            raise TransactionError(
                f"session {session.name!r} is closed"
            )

    def _emit(self, kind, **data):
        # The coordinator shares the engine's bus so conflict/retry/
        # session events interleave with the transaction stream every
        # other sink sees.
        self.engine._bus.emit(kind, self.engine._txn_id, data)

    def stats_snapshot(self):
        return self.stats.snapshot()
