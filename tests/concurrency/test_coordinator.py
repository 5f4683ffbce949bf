"""Unit coverage for the coordinator and the machinery under
them (detach/attach, suspend/resume, the maintained-view tripwire)."""

from __future__ import annotations

import pytest

from repro import ActiveDatabase
from repro.concurrency import TransactionCoordinator
from repro.errors import ConflictError, TransactionError


@pytest.fixture
def db():
    db = ActiveDatabase()
    db.execute("create table t (name varchar, v float)")
    db.execute("insert into t values ('a', 1)")
    return db


@pytest.fixture
def coord(db):
    return TransactionCoordinator(db)


class TestSessions:
    def test_open_and_close_are_counted_and_emitted(self, db, coord):
        session = coord.open_session("alice")
        assert session.name == "alice"
        assert coord.stats.sessions_open == 1
        coord.close_session(session)
        assert coord.stats.sessions_open == 0
        assert coord.stats.sessions_total == 1
        engine = db.stats()["engine"]
        assert engine["sessions_opened"] == 1
        assert engine["sessions_closed"] == 1

    def test_closed_session_refuses_work(self, coord):
        session = coord.open_session()
        coord.close_session(session)
        with pytest.raises(TransactionError):
            coord.execute(session, "insert into t values ('b', 2)")

    def test_close_aborts_an_open_transaction(self, db, coord):
        session = coord.open_session()
        coord.begin(session)
        coord.execute(session, "insert into t values ('b', 2)")
        coord.close_session(session)
        assert db.rows("select name from t") == [("a",)]
        assert not db.engine.in_transaction

    def test_close_discards_a_suspended_transaction(self, db, coord):
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.execute(s1, "insert into t values ('b', 2)")
        # mounting s2 suspends s1's writes
        coord.execute(s2, "insert into t values ('c', 3)")
        assert s1.context is not None
        coord.close_session(s1)
        assert sorted(db.rows("select name from t")) == [("a",), ("c",)]


class TestTransactionSurface:
    def test_commit_without_begin_is_an_error(self, coord):
        session = coord.open_session()
        with pytest.raises(TransactionError):
            coord.commit(session)

    def test_double_begin_is_an_error(self, coord):
        session = coord.open_session()
        coord.begin(session)
        with pytest.raises(TransactionError):
            coord.begin(session)

    def test_rollback_discards_only_that_session(self, db, coord):
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.execute(s1, "insert into t values ('b', 2)")
        coord.begin(s2)
        coord.execute(s2, "insert into t values ('c', 3)")
        coord.rollback(s1)
        coord.commit(s2)
        assert sorted(db.rows("select name from t")) == [("a",), ("c",)]

    def test_interleaved_explicit_transactions_both_commit(self, db, coord):
        """Context switching: two open transactions alternate statements
        with disjoint footprints; both commit."""
        db.execute("create table u (name varchar)")
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.begin(s2)
        coord.execute(s1, "insert into t values ('b', 2)")
        coord.execute(s2, "insert into u values ('x')")
        coord.execute(s1, "insert into t values ('c', 3)")
        coord.execute(s2, "insert into u values ('y')")
        coord.commit(s1)
        coord.commit(s2)
        assert sorted(db.rows("select name from t")) == [
            ("a",), ("b",), ("c",),
        ]
        assert sorted(db.rows("select name from u")) == [("x",), ("y",)]
        assert coord.stats.switches > 0

    def test_uncommitted_writes_are_invisible_to_other_sessions(
        self, db, coord
    ):
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.execute(s1, "insert into t values ('b', 2)")
        assert coord.query(s1, "select count(*) from t").scalar() == 2
        assert coord.query(s2, "select count(*) from t").scalar() == 1
        coord.commit(s1)
        assert coord.query(s2, "select count(*) from t").scalar() == 2

    def test_error_inside_autocommit_propagates_and_aborts(self, db, coord):
        session = coord.open_session()
        with pytest.raises(Exception):
            coord.execute(session, "insert into missing values (1)")
        assert not session.in_txn
        assert not db.engine.in_transaction

    def test_read_only_transactions_leave_no_commit_log(self, coord):
        session = coord.open_session()
        coord.begin(session)
        coord.query(session, "select count(*) from t")
        coord.commit(session)
        assert coord._commit_log == []

    def test_plain_queries_hold_no_footprint(self, coord):
        session = coord.open_session()
        coord.query(session, "select count(*) from t")
        assert session.reads == set()


class TestDdlBarrier:
    def test_ddl_requires_all_sessions_idle(self, db, coord):
        s1 = coord.open_session()
        coord.begin(s1)
        coord.execute(s1, "insert into t values ('b', 2)")
        with pytest.raises(TransactionError):
            coord.execute(s1, "create table u (v float)")
        coord.rollback(s1)
        coord.execute(s1, "create table u (v float)")
        assert "u" in db.database.table_names()


class TestValidation:
    def test_first_committer_wins(self, db, coord):
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.execute(s1, "update t set v = v + 1 where name = 'a'")
        coord.begin(s2)
        coord.execute(s2, "update t set v = v + 2 where name = 'a'")
        coord.commit(s2)  # s2 reaches the serialization point first
        with pytest.raises(ConflictError):
            coord.commit(s1)
        assert db.rows("select v from t") == [(3.0,)]

    def test_conflict_error_names_the_tables(self, coord):
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.execute(s1, "update t set v = v + 1 where name = 'a'")
        coord.begin(s2)
        coord.execute(s2, "update t set v = v + 2 where name = 'a'")
        coord.commit(s1)
        with pytest.raises(ConflictError) as excinfo:
            coord.commit(s2)
        assert excinfo.value.tables == ("t",)

    def test_anchor_fast_forwards_after_validation(self, db, coord):
        """A long transaction that keeps validating cleanly must not
        re-scan (or spuriously conflict with) commits it already
        validated against."""
        db.execute("create table u (v float)")
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.query(s1, "select count(*) from t")
        for i in range(5):
            coord.execute(s2, f"insert into u values ({i})")
            # s1 keeps running statements against other tables; every
            # mount re-validates and re-anchors
            coord.query(s1, "select count(*) from t")
        coord.commit(s1)
        assert coord.stats.conflicts == 0

    def test_commit_log_trims_to_open_horizon(self, coord):
        session = coord.open_session()
        for i in range(200):
            coord.execute(session, f"insert into t values ('x{i}', {i})")
        assert len(coord._commit_log) <= 200


class TestDetachAttach:
    """The storage-level context switch, in isolation."""

    def test_round_trip_restores_writes_and_undo(self, db):
        engine = db.engine
        db.begin()
        db.execute("insert into t values ('b', 2)")
        db.execute("update t set v = 9 where name = 'a'")
        context = engine.suspend_transaction()
        # detached: physical state is the committed state
        assert db.rows("select v from t where name = 'a'") == [(1.0,)]
        assert db.database.row_count("t") == 1
        engine.resume_transaction(context)
        assert sorted(db.rows("select name from t")) == [("a",), ("b",)]
        assert db.rows("select v from t where name = 'a'") == [(9.0,)]
        # the undo log survived the round trip: rollback still works
        db.rollback()
        assert db.rows("select name, v from t") == [("a", 1.0)]

    def test_discard_suspended_aborts_without_remount(self, db):
        engine = db.engine
        db.begin()
        db.execute("delete from t where name = 'a'")
        context = engine.suspend_transaction()
        engine.discard_suspended(context, reason="conflict")
        assert db.rows("select name from t") == [("a",)]
        assert not engine.in_transaction
        # the engine accepts new transactions afterwards
        db.execute("insert into t values ('b', 2)")
        assert db.database.row_count("t") == 2


class TestMaintainedViewTripwire:
    """PR 8 regression (satellite 4): MaintainedView assumed a single
    writer — any mutation that moved ``database.version`` was its own.
    Context-switch replay mutates tables *without* touching the version,
    so views now also stamp the per-table mutation counter."""

    def test_raw_table_mutation_breaks_sync(self, db):
        from repro.core.incremental.views import MaintainedView

        storage = db.database
        view = MaintainedView("t", "t", None)
        view.refresh(storage)
        assert view.in_sync(storage)
        assert view.count == 1
        # what attach() replay does: table-level mutators, no
        # database.version bump, no observers
        table = storage.table("t")
        handle = storage.handles.allocate("t")
        table.insert(handle, ("ghost", 0.0))
        assert not view.in_sync(storage), (
            "a foreign write hid behind an unchanged database.version"
        )

    def test_mutation_counter_is_monotonic_across_all_mutators(self, db):
        table = db.database.table("t")
        before = table.mutations
        handle = db.database.handles.allocate("t")
        table.insert(handle, ("x", 1.0))
        table.replace(handle, ("x", 2.0))
        table.delete(handle)
        assert table.mutations == before + 3

    def test_counter_rules_stay_correct_across_context_switches(self, db):
        """End to end: a counter-maintained condition evaluated by one
        session must not reuse a view synchronized against another
        session's (since-detached) writes."""
        db.execute("create table audit (name varchar)")
        db.execute(
            "create rule watch when inserted into t "
            "if exists (select * from t where v < 0) "
            "then insert into audit values ('neg')"
        )
        coord = TransactionCoordinator(db)
        s1 = coord.open_session()
        s2 = coord.open_session()
        # s1 inserts a negative row but stays open (uncommitted)
        coord.begin(s1)
        coord.execute(s1, "insert into t values ('n', -5)")
        # s2's rule evaluation must see the committed state (no
        # negative rows) even though s1's write just vacated storage
        coord.execute(s2, "insert into t values ('p', 7)")
        assert db.rows("select name from audit") == []
        coord.rollback(s1)
        # and a committed negative row must be seen afterwards
        coord.execute(s2, "insert into t values ('m', -1)")
        assert db.rows("select name from audit") == [("neg",)]


class TestStats:
    def test_server_section_in_stats(self, db, coord):
        session = coord.open_session()
        coord.execute(session, "insert into t values ('b', 2)")
        server = db.stats()["server"]
        assert "mode" not in server
        assert server["commits"] == 1
        assert server["sessions_open"] == 1
        for key in ("conflicts", "retries", "aborts", "switches"):
            assert key in server

    def test_no_coordinator_no_server_section(self, db):
        assert "server" not in db.stats()
