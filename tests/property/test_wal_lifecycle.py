"""Property test: the fields a log leaves to its order survive its
whole lifecycle.

Only the first frame of a log file states the format version and its
LSN; every later frame's LSN is its predecessor's plus one, and a
commit record leaves out a handle mark its inserts imply. That holds
only if a file's LSNs never skip: an LSN is consumed by an append that
succeeds and by nothing else. A Hypothesis state machine drives one
durable directory through commits (each fsync'd or left to a group
commit), DDL, ``close`` and reopen, checkpoints, appends torn by a
crash and appends failed by a full disk — both at offset 0 of the file
and past it — and recovery. After every step the LSNs the scan assigns
are the ones the surviving appends returned; after a recovery the
writer resumes at ``max(last_lsn, checkpoint_lsn) + 1``, and the
allocator and the rows are what the durable records — marks stated or
implied — say.
"""

import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro import ActiveDatabase, DurabilityManager, recover
from repro.durability.checkpoint import read_checkpoint
from repro.durability.faults import FaultInjector, SimulatedCrash
from repro.durability.wal import scan_wal

#: one transaction each: inserts imply their mark; a delete, an update
#: and an insert undone in the same transaction state it
COMMITS = {
    "insert": "insert into t values ({k}, 'x'), ({k}, 'y')",
    "update": "update t set k = k + 1 where k = {k}",
    "delete": "delete from t where k = {k}",
    "insert_then_delete": "insert into t values ({k}, 'gone'); "
                          "delete from t where s = 'gone'",
}

keys = st.integers(0, 4)
fractions = st.floats(0.01, 0.99)


class WalLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="wal-lifecycle-")
        self.db = None

    @initialize()
    def open_fresh(self):
        self.db = ActiveDatabase(durability=DurabilityManager(self.directory))
        #: the LSN each surviving append returned, in file order
        self.lsns = []
        #: the rows and the allocator's mark the durable state holds
        self.rows = {}
        self.issued = 0
        self.track()
        self.db.execute("create table t (k integer, s varchar)")
        self.durable()

    def teardown(self):
        if self.db is not None:
            self.db.durability.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def track(self):
        """Keep the LSN of every append that returns, and what the
        database held when it did."""
        writer = self.db.durability.wal
        append = writer.append

        def tracked(body, sync=None):
            lsn = append(body, sync)
            self.lsns.append(lsn)
            if "commit" in body:  # a DDL record holds no mark
                self.durable()
            return lsn
        writer.append = tracked

    def durable(self):
        self.rows = self.snapshot()
        self.issued = self.db.database.handles.issued_count

    def snapshot(self):
        """Every table's rows by handle, read from storage (a query
        would be a transaction of its own, and may log a mark)."""
        return self.db.database.snapshot()

    @property
    def wal_path(self):
        return self.db.durability.wal_path

    # ------------------------------------------------------------------

    @rule(kind=st.sampled_from(sorted(COMMITS)), k=keys, sync=st.booleans())
    def commit(self, kind, k, sync):
        manager = self.db.durability
        manager.group_commit = not sync
        self.db.execute(COMMITS[kind].format(k=k))
        manager.group_commit = False
        if not sync:
            manager.flush()

    @rule()
    def ddl(self):
        self.db.execute("create index t_k on t (k)")
        self.db.execute("drop index t_k")

    @rule()
    def close_and_reopen(self):
        """The writer closes the file; its next append opens it again,
        past offset 0."""
        self.db.durability.wal.close()

    @rule()
    def checkpoint(self):
        self.db.checkpoint()
        self.lsns = []
        self.durable()

    @rule(fraction=fractions, at_zero=st.booleans())
    def torn_append(self, fraction, at_zero):
        """A crash tears the append: the process dies with part of a
        frame in the file, and only recovery goes on."""
        if at_zero:
            self.checkpoint()
        self.db.durability.wal.injector = FaultInjector(
            "torn_wal_append", torn_fraction=fraction)
        try:
            self.db.execute(COMMITS["insert"].format(k=9))
        except SimulatedCrash:
            pass
        else:
            raise AssertionError("the armed append did not crash")
        self.recover_directory()

    @rule(fraction=fractions, at_zero=st.booleans())
    def enospc_append(self, fraction, at_zero):
        """A full disk fails the append: it is cut back, the
        transaction aborts and the database lives on."""
        if at_zero:
            self.checkpoint()
        writer = self.db.durability.wal
        writer.injector = FaultInjector(
            "enospc_wal_append", torn_fraction=fraction)
        try:
            self.db.execute(COMMITS["insert"].format(k=9))
        except OSError:
            pass
        else:
            raise AssertionError("the armed append did not fail")
        finally:
            writer.injector = None
        assert self.snapshot() == self.rows

    @rule()
    def recover_directory(self):
        self.db.durability.close()
        scan = scan_wal(self.wal_path)
        document = read_checkpoint(self.directory)
        checkpoint_lsn = document["wal_lsn"] if document else 0
        self.db = recover(self.directory)
        assert self.db.durability.wal.next_lsn \
            == max(scan.last_lsn, checkpoint_lsn) + 1
        assert self.db.durability.wal.next_lsn \
            == max([*self.lsns, checkpoint_lsn]) + 1
        assert self.db.database.handles.issued_count == self.issued
        assert self.snapshot() == self.rows
        self.track()

    # ------------------------------------------------------------------

    @invariant()
    def the_scan_numbers_the_surviving_appends(self):
        if self.db is None:
            return
        scan = scan_wal(self.wal_path)
        assert [record["lsn"] for record in scan.records] == self.lsns


WalLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=16, deadline=None)
test_wal_lifecycle = WalLifecycle.TestCase
