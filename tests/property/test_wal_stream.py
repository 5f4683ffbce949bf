"""Property test: the log's one deflate stream survives everything that
reopens, cuts or fails the file.

The frames a writer appends share one compressor history, so a frame
may refer to any body before it. The invariant that keeps that safe is
that the history is always bodies the file holds: the writer starts a
new stream whenever it opens the file — first append, after ``close``,
after a failed append was cut back (``enospc_wal_append``), after a
checkpoint emptied the log, after recovery cut a torn tail. Hypothesis
interleaves DDL and commits with those events; every acknowledged body
must read back byte-identical, and recovery must rebuild exactly the
state the live database acknowledged.
"""

import os

from hypothesis import given, settings, strategies as st

from repro import ActiveDatabase, DurabilityManager, recover
from repro.durability.faults import FaultInjector
from repro.durability.wal import (
    WAL_VERSION, encode_json, encode_record, scan_wal,
)

NAMES = ("ann", "bo", "cy", "dee")

steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.lists(
        st.tuples(st.sampled_from(NAMES), st.integers(0, 9)),
        min_size=1, max_size=6)),
    st.tuples(st.just("delete"), st.integers(0, 9)),
    st.tuples(st.just("ddl"), st.booleans()),
    st.tuples(st.just("enospc"), st.floats(0.01, 0.99)),
    st.tuples(st.just("torn"), st.integers(1, 40)),
    st.tuples(st.just("checkpoint"), st.none()),
    st.tuples(st.just("recover"), st.none()),
), min_size=1, max_size=14)


class DurableRun:
    """A durable database, the bodies its log acknowledged since the
    last checkpoint, and the checks every recovery must pass."""

    def __init__(self, directory):
        self.directory = directory
        self.db = ActiveDatabase(
            durability=DurabilityManager(directory, fsync=False))
        self.acked = []
        self.tables = 0
        self.track()
        self.db.execute("create table t (name varchar, k integer)")

    def track(self):
        """Record every body the WAL writer acknowledges."""
        writer = self.db.durability.wal
        append = writer.append

        def tracked(body, sync=None):
            lsn = append(body, sync)
            self.acked.append(
                encode_json({"v": WAL_VERSION, "lsn": lsn, **body}))
            return lsn
        writer.append = tracked

    @property
    def wal_path(self):
        return self.db.durability.wal_path

    def insert(self, rows):
        values = ", ".join(f"('{name}-{k % 3}', {k})" for name, k in rows)
        self.db.execute(f"insert into t values {values}")

    def step(self, kind, argument):
        if kind == "insert":
            self.insert(argument)
        elif kind == "delete":
            self.db.execute(f"delete from t where k = {argument}")
        elif kind == "ddl":
            if argument:
                self.db.execute(f"create index t_k{self.tables} on t (k)")
            else:
                self.db.execute(f"create table u{self.tables} (x integer)")
            self.tables += 1
        elif kind == "enospc":
            writer = self.db.durability.wal
            writer.injector = FaultInjector(
                "enospc_wal_append", torn_fraction=argument)
            try:
                self.insert([("enospc", 1), ("enospc", 2)])
            except OSError:
                pass
            else:
                raise AssertionError("the armed append did not fail")
            finally:
                writer.injector = None
        elif kind == "checkpoint":
            self.db.checkpoint()
            self.acked = []
        elif kind == "torn":
            self.db.durability.close()
            frame = encode_record({"kind": "commit", "txn": 999})
            with open(self.wal_path, "ab") as handle:
                handle.write(frame[:min(argument, len(frame) - 1)])
            self.reboot()
        else:
            self.db.durability.close()
            self.reboot()

    def reboot(self):
        """Recover the directory and hold it to what was acknowledged."""
        scan = scan_wal(self.wal_path)
        assert [encode_json(body) for body in scan.records] == self.acked
        expected = self.snapshot(self.db)
        self.db = recover(self.directory, fsync=False)
        assert self.snapshot(self.db) == expected
        recovery = self.db.durability.recovery
        assert recovery["records_scanned"] == len(self.acked)
        assert os.path.getsize(self.wal_path) == scan.valid_bytes
        self.track()

    @staticmethod
    def snapshot(db):
        return {name: dict(db.database.table(name).items())
                for name in db.database.table_names()}


@given(steps)
@settings(max_examples=60, deadline=None)
def test_every_acknowledged_body_reads_back(tmp_path_factory, program):
    run = DurableRun(str(tmp_path_factory.mktemp("stream")))
    for kind, argument in program:
        run.step(kind, argument)
    run.insert([("last", 0)])
    run.db.durability.close()
    run.reboot()
    run.db.durability.close()
