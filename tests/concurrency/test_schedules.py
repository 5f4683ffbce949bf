"""Deterministic interleavings: every classic anomaly must end in an
abort or a serializable outcome.

The :class:`~tests.concurrency.driver.InterleaveDriver` scripts each
session on a worker thread and the test chooses exactly which session
runs between any two pause points of another — statement boundaries,
rule considerations, and the instant before the WAL append.
"""

from __future__ import annotations

import pytest

from repro import ActiveDatabase
from repro.concurrency import TransactionCoordinator
from repro.errors import ConflictError
from repro.obs import RingBufferSink

from .driver import InterleaveDriver


def coordinated():
    db = ActiveDatabase()
    return db, TransactionCoordinator(db)


class TestLostUpdate:
    def test_concurrent_increments_never_lose_one(self):
        db, coord = coordinated()
        db.execute("create table acct (name varchar, bal float)")
        db.execute("insert into acct values ('a', 100)")
        driver = InterleaveDriver(coord)

        def increment(amount):
            def script(session):
                try:
                    coord.begin(session)
                    coord.execute(
                        session,
                        f"update acct set bal = bal + {amount} "
                        "where name = 'a'",
                    )
                    coord.commit(session)
                    return "committed"
                except ConflictError:
                    return "conflict"

            return script

        driver.spawn("t1", increment(10))
        driver.spawn("t2", increment(5))
        # both transactions read the row before either commits
        driver.step_statement("t1")  # begin done, parked before update
        driver.step_statement("t2")
        driver.step_statement("t1")  # update done, parked before commit
        driver.step_statement("t2")
        outcomes = {driver.finish("t1"), driver.finish("t2")}
        driver.close()

        # abort-or-serializable: exactly one increment may survive —
        # never the lost-update state where both "committed" but one
        # increment vanished
        (balance,) = db.rows("select bal from acct")[0]
        assert outcomes == {"committed", "conflict"}
        assert balance in (110.0, 105.0)
        assert coord.stats.conflicts == 1
        assert db.stats()["server"]["conflicts"] == 1

    def test_serial_execution_needs_no_aborts(self):
        db, coord = coordinated()
        db.execute("create table acct (name varchar, bal float)")
        db.execute("insert into acct values ('a', 100)")
        s1 = coord.open_session()
        s2 = coord.open_session()
        coord.begin(s1)
        coord.execute(s1, "update acct set bal = bal + 10 where name = 'a'")
        coord.commit(s1)
        coord.begin(s2)
        coord.execute(s2, "update acct set bal = bal + 5 where name = 'a'")
        coord.commit(s2)
        assert db.rows("select bal from acct") == [(115.0,)]
        assert coord.stats.conflicts == 0


class TestWriteSkew:
    def test_disjoint_writes_after_overlapping_reads_abort(self):
        """Classic write skew: each transaction checks the combined
        balance, then debits a *different* row. Snapshot isolation
        would let both commit and break the invariant; table-level
        validation (or table locks) forces one to abort."""
        db, coord = coordinated()
        db.execute("create table acct (name varchar, bal float)")
        db.execute("insert into acct values ('a', 60), ('b', 60)")
        driver = InterleaveDriver(coord)

        def debit(target):
            def script(session):
                try:
                    coord.begin(session)
                    total = coord.query(
                        session, "select sum(bal) as t from acct"
                    ).scalar()
                    if total - 100 >= 0:
                        coord.execute(
                            session,
                            "update acct set bal = bal - 100 "
                            f"where name = '{target}'",
                        )
                    coord.commit(session)
                    return "committed"
                except ConflictError:
                    return "conflict"

            return script

        driver.spawn("t1", debit("a"))
        driver.spawn("t2", debit("b"))
        for _ in range(3):  # begin, query, update all before any commit
            driver.step_statement("t1")
            driver.step_statement("t2")
        outcomes = [driver.finish("t1"), driver.finish("t2")]
        driver.close()

        total = db.query("select sum(bal) as t from acct").scalar()
        assert total >= 0, "write skew broke the invariant"
        assert sorted(outcomes) == ["committed", "conflict"]


class TestRuleCascadeConflict:
    SCHEMA = [
        "create table emp (name varchar, sal float)",
        "create table audit (name varchar)",
        "create table other (v float)",
        "create rule log_hires when inserted into emp "
        "then insert into audit (select name from inserted emp)",
    ]

    def test_reader_conflicts_with_rule_written_rows(self):
        """Rows written by a *fired rule* (not the user statement) must
        count against concurrent readers: t2 read ``audit`` which t1's
        rule then appended to, so t2 cannot serialize after t1."""
        db, coord = coordinated()
        for statement in self.SCHEMA:
            db.execute(statement)
        s1 = coord.open_session("writer")
        s2 = coord.open_session("reader")

        coord.begin(s2)
        assert coord.query(s2, "select count(*) as n from audit").scalar() == 0
        coord.execute(s2, "insert into other values (1)")
        # t1 auto-commits; its rule writes audit
        coord.execute(s1, "insert into emp values ('jane', 50)")
        with pytest.raises(ConflictError) as excinfo:
            coord.commit(s2)
        assert "audit" in excinfo.value.tables
        # t2's writes are gone; t1's statement and rule effect persist
        assert db.rows("select name from audit") == [("jane",)]
        assert db.rows("select v from other") == []

    def test_conflict_mid_commit_aborts_through_wal_pause(self):
        """t1 is parked *inside* commit — after its rule cascade ran,
        one instant before the WAL append — while t2 commits a write to
        a table t1's rule condition read. Remount validation must abort
        t1 even though its cascade already executed."""
        db, coord = coordinated()
        db.execute("create table emp (name varchar, sal float)")
        db.execute("create table audit (name varchar)")
        db.execute("create table limits (cap float)")
        db.execute("insert into limits values (1)")
        db.execute(
            "create rule gated_log when inserted into emp "
            "if exists (select * from limits where cap > 0) "
            "then insert into audit (select name from inserted emp)"
        )
        driver = InterleaveDriver(coord)

        def writer(session):
            try:
                coord.begin(session)
                coord.execute(session, "insert into emp values ('amy', 10)")
                coord.commit(session)
                return "committed"
            except ConflictError:
                return "conflict"

        driver.spawn("t1", writer)
        driver.step_statement("t1")  # begin
        driver.step_statement("t1")  # insert
        # drive commit up to the WAL append: rule considered (reads
        # limits), cascade fired (wrote audit), record not yet durable
        point = driver.advance("t1")
        while point != "wal_append":
            point = driver.advance("t1")
        # a concurrent session invalidates the rule's condition read
        bystander = coord.open_session("bystander")
        coord.execute(bystander, "update limits set cap = 0")
        # waking t1 remounts its transaction; validation sees the
        # committed limits write and aborts the whole cascade
        assert driver.finish("t1") == "conflict"
        driver.close()
        assert db.rows("select name from audit") == []
        assert db.rows("select name from emp") == []
        assert db.rows("select cap from limits") == [(0.0,)]

    def test_blind_write_cascades_never_conflict(self):
        """The rule here reads only its transition table (txn-local), so
        two sessions cascading into the same audit table are pure blind
        writers — the validation footprint is reads, and neither may
        abort even when their commits fully overlap in time."""
        db, coord = coordinated()
        for statement in self.SCHEMA:
            db.execute(statement)
        driver = InterleaveDriver(coord)

        def insert(session):
            coord.execute(session, "insert into emp values ('bob', 20)")
            return "committed"

        driver.spawn("t1", insert)
        # park t1 just before its WAL append (cascade already fired)
        point = driver.advance("t1", expect_point="statement_boundary")
        while point != "wal_append":
            point = driver.advance("t1")
        # a full concurrent statement + cascade commits in the gap
        bystander = coord.open_session("bystander")
        coord.execute(bystander, "insert into emp values ('zoe', 30)")
        assert driver.finish("t1") == "committed"
        driver.close()
        assert sorted(db.rows("select name from emp")) == [("bob",), ("zoe",)]
        assert sorted(db.rows("select name from audit")) == [
            ("bob",),
            ("zoe",),
        ]
        assert coord.stats.conflicts == 0

    def test_autocommit_conflict_retries_and_succeeds(self):
        """Force a real conflict on an auto-commit statement and check
        the coordinator's wholesale retry commits on the second run."""
        db, coord = coordinated()
        db.execute("create table emp (name varchar, sal float)")
        db.execute("create table audit (name varchar)")
        db.execute("create table limits (cap float)")
        db.execute("insert into limits values (1)")
        db.execute(
            "create rule gated_log when inserted into emp "
            "if exists (select * from limits where cap > 0) "
            "then insert into audit (select name from inserted emp)"
        )
        driver = InterleaveDriver(coord)

        def insert(session):
            coord.execute(session, "insert into emp values ('amy', 10)")
            return "committed"

        driver.spawn("t1", insert)
        point = driver.advance("t1", expect_point="statement_boundary")
        while point != "wal_append":
            point = driver.advance("t1")
        bystander = coord.open_session("bystander")
        coord.execute(bystander, "update limits set cap = 2")
        # t1 aborts at remount, retries the whole statement (rule
        # condition re-reads limits = 2, still fires) and commits; the
        # retry pauses again, so just run it out
        assert driver.finish("t1") == "committed"
        driver.close()
        assert db.rows("select name from emp") == [("amy",)]
        assert db.rows("select name from audit") == [("amy",)]
        assert coord.stats.conflicts == 1
        assert coord.stats.retries == 1
        assert db.stats()["server"]["retries"] == 1


class TestConflictExits:
    """Each of OCC's three conflict exits aborts the transaction once,
    attributed ``"conflict"``, and leaves neither the engine nor the
    session holding any of it."""

    def build(self):
        db, coord = coordinated()
        db.execute("create table emp (name varchar, sal float)")
        db.execute("create table audit (name varchar)")
        db.execute("create table limits (cap float)")
        db.execute("insert into limits values (1)")
        db.execute(
            "create rule gated_log when inserted into emp "
            "if exists (select * from limits where cap > 0) "
            "then insert into audit (select name from inserted emp)"
        )
        sink = db.attach_sink(RingBufferSink())
        return db, coord, sink, InterleaveDriver(coord)

    @staticmethod
    def writer(coord):
        def script(session):
            try:
                coord.begin(session)
                coord.query(session, "select cap from limits")
                coord.execute(session, "insert into emp values ('amy', 10)")
                coord.commit(session)
                return "committed"
            except ConflictError:
                return "conflict"

        return script

    def check_aborted_once(self, db, coord, sink, driver, worker):
        assert driver.finish("t1") == "conflict"
        driver.close()
        aborts = sink.of_kind("txn_abort")
        assert [event.data["reason"] for event in aborts] == ["conflict"]
        assert not db.engine.in_transaction
        session = worker.session
        assert not session.in_txn
        assert session.reads == set() and session.write_tables == set()
        assert coord.stats.conflicts == 1
        assert db.rows("select name from emp") == []
        assert db.rows("select name from audit") == []

    def test_commit_validation_at_wal_append(self):
        """Another session's operation always unmounts t1 first, so
        only remount validation sees its commits. Record a committed
        write to ``limits`` while t1 stays mounted at ``wal_append``:
        the ``pre_commit_hook`` validation must abort it."""
        db, coord, sink, driver = self.build()
        worker = driver.spawn("t1", self.writer(coord))
        point = driver.advance("t1")
        while point != "wal_append":
            point = driver.advance("t1")
        coord._commit_seq += 1
        coord._commit_log.append((coord._commit_seq, frozenset({"limits"})))
        self.check_aborted_once(db, coord, sink, driver, worker)

    def test_remount_at_statement_boundary(self):
        db, coord, sink, driver = self.build()
        worker = driver.spawn("t1", self.writer(coord))
        driver.step_statement("t1")  # begin
        driver.step_statement("t1")  # select: limits joins the read set
        bystander = coord.open_session("bystander")
        coord.execute(bystander, "update limits set cap = 2")
        self.check_aborted_once(db, coord, sink, driver, worker)

    def test_remount_at_rule_consideration(self):
        db, coord, sink, driver = self.build()
        worker = driver.spawn("t1", self.writer(coord))
        point = driver.advance("t1")
        while point != "rule_consideration":
            point = driver.advance("t1")
        bystander = coord.open_session("bystander")
        coord.execute(bystander, "update limits set cap = 2")
        self.check_aborted_once(db, coord, sink, driver, worker)
