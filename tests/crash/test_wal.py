"""Unit tests for the WAL format, checkpoint atomicity, and the
durability manager's bookkeeping."""

import errno
import json
import os

import pytest

from repro import (
    ActiveDatabase,
    DurabilityError,
    DurabilityManager,
    RingBufferSink,
    recover,
)
from repro.durability.checkpoint import (
    CheckpointError,
    build_checkpoint_document,
    read_checkpoint,
    write_checkpoint,
)
from repro.durability.faults import FaultInjector, SimulatedCrash
from repro.durability.wal import (
    FRAME_MARKER,
    WAL_VERSION,
    WalError,
    WalWriter,
    encode_frame,
    encode_record,
    read_frame,
    scan_wal,
)


class TestRecordFormat:
    def test_encode_decode_roundtrip(self):
        body = {"kind": "commit", "txn": 3, "insert": [["t", 1, [5]]]}
        frame = encode_record(body)
        assert frame[0] == FRAME_MARKER
        assert read_frame(frame) == (body, len(frame))

    def test_any_payload_byte_flip_is_detected(self):
        frame = encode_record({"kind": "ddl", "op": "drop_table", "name": "t"})
        for position in range(len(frame)):
            mutated = bytearray(frame)
            mutated[position] ^= 0xFF
            assert read_frame(bytes(mutated)) is None, position

    def test_truncated_line_is_rejected(self):
        frame = encode_record({"kind": "commit", "txn": 1})
        for cut in range(1, len(frame)):
            assert read_frame(frame[:cut]) is None

    def test_non_object_body_is_rejected(self):
        assert read_frame(encode_frame(b"[1,2,3]")) is None


class TestWriterAndScan:
    def test_appends_assign_monotone_lsns(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal.jsonl"))
        first = writer.append({"kind": "ddl", "op": "x"})
        second = writer.append({"kind": "ddl", "op": "y"})
        writer.close()
        assert (first, second) == (1, 2)
        scan = scan_wal(str(tmp_path / "wal.jsonl"))
        assert [record["lsn"] for record in scan.records] == [1, 2]
        assert scan.torn_bytes == 0

    def test_only_the_frame_at_offset_0_states_version_and_lsn(
        self, tmp_path
    ):
        """The first frame of a file states the version and its LSN, a
        later one neither — also when the first append failed and was
        cut back to nothing, and after the writer reopened the file."""
        path = str(tmp_path / "wal.jsonl")
        writer = WalWriter(path, next_lsn=7, injector=FaultInjector(
            point="enospc_wal_append", occurrence=1))
        with pytest.raises(OSError):
            writer.append({"kind": "ddl", "op": "lost"})
        assert os.path.getsize(path) == 0
        writer.injector = None
        assert writer.append({"kind": "ddl", "op": "a"}) == 7
        writer.close()
        assert writer.append({"kind": "ddl", "op": "b"}) == 8
        writer.close()
        with open(path, "rb") as handle:
            data = handle.read()
        first, end = read_frame(data)
        assert first == {"v": WAL_VERSION, "lsn": 7, "kind": "ddl", "op": "a"}
        assert read_frame(data, end) == ({"kind": "ddl", "op": "b"}, len(data))
        assert scan_wal(path).records == [
            first, {"v": WAL_VERSION, "lsn": 8, "kind": "ddl", "op": "b"}]

    def test_scan_of_missing_file_is_empty(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.jsonl"))
        assert scan.records == [] and scan.last_lsn == 0

    def test_scan_stops_at_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        writer = WalWriter(path)
        writer.append({"kind": "ddl", "op": "a"})
        writer.append({"kind": "ddl", "op": "b"})
        writer.close()
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(encode_record({"kind": "commit", "txn": 9})[:-7])
        scan = scan_wal(path)
        assert [record["op"] for record in scan.records] == ["a", "b"]
        assert scan.valid_bytes == intact
        assert scan.torn_bytes > 0

    def test_garbage_after_tear_is_ignored(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        writer = WalWriter(path)
        writer.append({"kind": "ddl", "op": "a"})
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"garbage\n")
            handle.write(encode_record({"kind": "ddl", "op": "late"}))
        scan = scan_wal(path)
        assert [record["op"] for record in scan.records] == ["a"]
        # the intact record behind the tear is cut with it, but counted
        assert scan.discarded_records == 1

    def test_truncate_to_cuts_the_tail(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        writer = WalWriter(path)
        writer.append({"kind": "ddl", "op": "a"})
        writer.close()
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"partial")
        WalWriter(path).truncate_to(intact)
        assert os.path.getsize(path) == intact
        assert scan_wal(path).torn_bytes == 0

    def test_counters_track_records_and_bytes(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        writer = WalWriter(path)
        writer.append({"kind": "ddl", "op": "a"})
        writer.append({"kind": "ddl", "op": "b"})
        writer.close()
        assert writer.records_written == 2
        assert writer.bytes_written == os.path.getsize(path)

    def test_a_long_body_opens_a_stream_of_its_own(self, tmp_path):
        # a body of half the deflate window or more takes no history, so
        # its bytes never depend on the records before it; the frames
        # after it continue its stream
        path = str(tmp_path / "wal.jsonl")
        text = "".join(f"{i * 7919 % 100_003:05d}" for i in range(4000))
        writer = WalWriter(path)
        writer.append({"kind": "commit", "txn": 1, "note": text[:500]})
        start = os.path.getsize(path)
        long = {"kind": "commit", "txn": 2, "note": text}
        writer.append(long)
        middle = os.path.getsize(path)
        writer.append({"kind": "commit", "txn": 3, "note": text[:500]})
        writer.close()
        with open(path, "rb") as handle:
            data = handle.read()
        assert data[start:middle] == encode_record(long)
        assert read_frame(data, start) == (long, middle)
        assert read_frame(data, middle) is None  # refers into the stream
        assert [body["txn"] for body in scan_wal(path).records] == [1, 2, 3]


#: a script whose effects put strings into sets — (handle, column) pairs,
#: several tables, several updated-column sets — so set iteration order,
#: and with it any accidental dependence of the record on it, follows
#: PYTHONHASHSEED
_SCRIPTED_TRANSACTIONS = """
import sys
from repro import ActiveDatabase
db = ActiveDatabase(durability=sys.argv[1])
db.execute("create table emp (name varchar, salary float, dno integer, "
           "boss varchar, grade integer)")
db.execute("create table dept (dno integer, title varchar)")
db.execute("create table audit (who varchar, what varchar)")
db.execute("create rule journal when updated emp.salary then insert into "
           "audit (select name, 'raise' from new updated emp.salary)")
db.execute("insert into dept values (1, 'one'), (2, 'two'), (3, 'three')")
db.execute("insert into emp values " + ", ".join(
    f"('e{i}', {i}.5, {i % 3 + 1}, 'b{i % 4}', {i % 5})" for i in range(40)))
db.execute("update emp set salary = salary * 2, grade = grade + 1 "
           "where dno = 1; update emp set boss = 'x', name = name "
           "where grade > 2; update dept set title = 't', dno = dno "
           "where dno < 3; delete from emp where dno = 3")
db.execute("insert into emp values ('z', 1.0, 2, null, null); "
           "update emp set dno = 2, boss = 'y', grade = 0 where dno = 1; "
           "delete from audit where who = 'e3'")
db.durability.close()
"""


class TestDeterministicBytes:
    def test_wal_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        import subprocess
        import sys

        logs = []
        for seed in ("0", "1", "4711"):
            directory = tmp_path / f"seed{seed}"
            subprocess.run(
                [sys.executable, "-c", _SCRIPTED_TRANSACTIONS, str(directory)],
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
                check=True, timeout=120,
            )
            logs.append((directory / "wal.jsonl").read_bytes())
        # not vacuous: the bodies the frames deflate are that long
        bodies = scan_wal(str(tmp_path / "seed0" / "wal.jsonl")).records
        assert len(json.dumps(bodies, separators=(",", ":"))) > 2000
        assert logs[0] == logs[1] == logs[2]


class TestTornWriteInjection:
    def test_torn_write_leaves_strict_prefix(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        injector = FaultInjector(
            point="torn_wal_append", occurrence=2, torn_fraction=0.5
        )
        writer = WalWriter(path, injector=injector)
        writer.append({"kind": "ddl", "op": "a"})
        with pytest.raises(SimulatedCrash):
            writer.append({"kind": "ddl", "op": "b"})
        writer.close()
        scan = scan_wal(path)
        assert [record["op"] for record in scan.records] == ["a"]
        assert scan.torn_bytes > 0

    def test_pre_append_crash_writes_nothing(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        injector = FaultInjector(point="pre_wal_append", occurrence=1)
        writer = WalWriter(path, injector=injector)
        with pytest.raises(SimulatedCrash):
            writer.append({"kind": "ddl", "op": "a"})
        writer.close()
        assert not os.path.exists(path)

    def test_post_append_crash_leaves_record_durable(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        injector = FaultInjector(point="post_wal_append", occurrence=1)
        writer = WalWriter(path, injector=injector)
        with pytest.raises(SimulatedCrash):
            writer.append({"kind": "ddl", "op": "a"})
        writer.close()
        assert [record["op"] for record in scan_wal(path).records] == ["a"]


class TestFailedAppend:
    """An append that fails with an ``OSError`` (disk full, IO error) is
    not a crash: the process lives on, so the partial record must leave
    the log before the next commit is written behind it."""

    def test_partial_write_is_cut_and_lsn_not_consumed(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        injector = FaultInjector(
            point="enospc_wal_append", occurrence=2, torn_fraction=0.5
        )
        writer = WalWriter(path, injector=injector)
        writer.append({"kind": "ddl", "op": "a"})
        intact = os.path.getsize(path)
        with pytest.raises(OSError) as excinfo:
            writer.append({"kind": "ddl", "op": "b"})
        assert excinfo.value.errno == errno.ENOSPC
        assert injector.fired == "enospc_wal_append"
        assert os.path.getsize(path) == intact
        assert (writer.next_lsn, writer.records_written) == (2, 1)
        assert writer.bytes_written == intact

        third = writer.append({"kind": "ddl", "op": "c"})
        writer.close()
        assert third == 2
        scan = scan_wal(path)
        assert [record["op"] for record in scan.records] == ["a", "c"]
        assert scan.torn_bytes == 0
        assert writer.bytes_written == os.path.getsize(path)

    def test_remainder_in_the_file_buffer_is_not_re_emitted(self, tmp_path):
        """A buffered writer keeps what it could not write and emits it
        on its next flush or close; the cut must come after that."""
        path = str(tmp_path / "wal.jsonl")
        writer = WalWriter(path)
        writer.append({"kind": "ddl", "op": "a"})
        intact = os.path.getsize(path)

        class DiskFullOnce:
            """Writes half of what it is given, fails the flush, and
            writes the other half when closed."""

            def __init__(self, handle):
                self.handle = handle
                self.remainder = b""

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.remainder = data[len(data) // 2:]

            def flush(self):
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                self.handle.write(self.remainder)
                self.handle.close()

            def __getattr__(self, name):
                return getattr(self.handle, name)

        writer._file = DiskFullOnce(writer._file)
        with pytest.raises(OSError):
            writer.append({"kind": "ddl", "op": "b"})
        assert os.path.getsize(path) == intact
        writer.append({"kind": "ddl", "op": "c"})
        writer.close()
        assert [r["op"] for r in scan_wal(path).records] == ["a", "c"]

    def test_simulated_crash_still_leaves_its_torn_prefix(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        injector = FaultInjector(point="torn_wal_append", occurrence=1)
        writer = WalWriter(path, injector=injector)
        with pytest.raises(SimulatedCrash):
            writer.append({"kind": "ddl", "op": "a"})
        assert os.path.getsize(path) > 0  # process death cleans nothing up

    def test_writer_refuses_appends_when_the_cut_fails(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "wal.jsonl")
        injector = FaultInjector(point="enospc_wal_append", occurrence=2)
        writer = WalWriter(path, injector=injector)
        writer.append({"kind": "ddl", "op": "a"})
        intact = os.path.getsize(path)

        def cannot_cut(size):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(writer, "_cut_to", cannot_cut)
        with pytest.raises(OSError) as excinfo:
            writer.append({"kind": "ddl", "op": "b"})
        assert excinfo.value.errno == errno.ENOSPC  # the original failure
        monkeypatch.undo()
        with pytest.raises(WalError, match=f"offset {intact}"):
            writer.append({"kind": "ddl", "op": "c"})
        # nothing was written behind the bytes of unknown state
        assert [r["op"] for r in scan_wal(path).records] == ["a"]

    def test_writer_refuses_appends_after_a_failed_fsync(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "wal.jsonl")
        writer = WalWriter(path)
        writer.append({"kind": "ddl", "op": "a"})
        intact = os.path.getsize(path)

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            writer.append({"kind": "ddl", "op": "b"})
        monkeypatch.undo()
        assert (writer.next_lsn, writer.syncs) == (2, 1)
        size = os.path.getsize(path)
        assert size > intact  # the record is left for recovery to judge
        with pytest.raises(WalError, match=f"fsync failed at offset {size}"):
            writer.append({"kind": "ddl", "op": "c"})
        assert os.path.getsize(path) == size

    def test_failed_group_commit_fsync_poisons_the_writer_too(
        self, tmp_path, monkeypatch
    ):
        writer = WalWriter(str(tmp_path / "wal.jsonl"))
        writer.append({"kind": "ddl", "op": "a"}, sync=False)

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            writer.sync()
        monkeypatch.undo()
        with pytest.raises(WalError, match="fsync failed at offset"):
            writer.append({"kind": "ddl", "op": "b"})

    def test_stats_name_the_poisoned_writer(self, tmp_path, monkeypatch):
        db = ActiveDatabase(durability=str(tmp_path / "d"))
        db.execute("create table t (x integer)")
        assert db.stats()["durability"]["wal_failure"] is None

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            db.execute("insert into t values (1)")
        monkeypatch.undo()
        failure = db.stats()["durability"]["wal_failure"]
        size = os.path.getsize(db.durability.wal_path)
        assert f"fsync failed at offset {size}" in failure
        with pytest.raises(WalError) as excinfo:
            db.execute("insert into t values (2)")
        assert str(excinfo.value) == failure

    def test_abort_event_carries_the_writer_failure(
        self, tmp_path, monkeypatch
    ):
        sink = RingBufferSink()
        db = ActiveDatabase(durability=str(tmp_path / "d"), sink=sink)
        db.execute("create table t (x integer)")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            db.execute("insert into t values (1)")
        monkeypatch.undo()
        (abort,) = sink.of_kind("txn_abort")
        assert abort.data["reason"] == "wal_error"
        failure = abort.data["wal_failure"]
        assert failure == db.stats()["durability"]["wal_failure"]
        assert "fsync failed at offset" in failure

    def test_abort_event_of_a_cut_append_has_no_writer_failure(
        self, tmp_path
    ):
        sink = RingBufferSink()
        db = ActiveDatabase(durability=str(tmp_path / "d"), sink=sink)
        db.execute("create table t (x integer)")
        db.durability.wal.injector = FaultInjector(
            point="enospc_wal_append", occurrence=1)
        with pytest.raises(OSError):
            db.execute("insert into t values (1)")
        (abort,) = sink.of_kind("txn_abort")
        assert abort.data == {"reason": "wal_error", "wal_failure": None}

    def test_next_commit_after_a_failed_one_survives_recovery(self, tmp_path):
        """The regression: insert 1; failed insert 2; insert 3 is
        acknowledged — and must still be there after recovery."""
        directory = str(tmp_path / "d")
        sink = RingBufferSink()
        db = ActiveDatabase(durability=directory, sink=sink)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        injector = FaultInjector(point="enospc_wal_append", occurrence=1)
        db.durability.wal.injector = injector
        lsn = db.durability.wal.next_lsn

        with pytest.raises(OSError):
            db.execute("insert into t values (2)")
        (abort,) = sink.of_kind("txn_abort")
        assert abort.data["reason"] == "wal_error"
        assert db.durability.wal.next_lsn == lsn
        assert db.rows("select x from t") == [(1,)]  # engine still usable

        result = db.execute("insert into t values (3)")
        assert result.committed
        db.durability.close()

        recovered = recover(directory)
        assert recovered.rows("select x from t") == [(1,), (3,)]
        info = recovered.durability.recovery
        assert info["torn_bytes_truncated"] == 0
        assert info["records_discarded_after_tear"] == 0


class TestDump:
    def test_prints_each_body_then_the_torn_tail(self, tmp_path, capsys):
        from repro.durability.dump import main

        directory = str(tmp_path / "d")
        db = build_db(directory)
        db.checkpoint()
        db.execute("delete from t where x = 1")
        db.execute("insert into t values (3, 'c')")
        db.durability.close()
        size = os.path.getsize(db.durability.wal_path)
        with open(db.durability.wal_path, "ab") as handle:
            handle.write(b"torn")
        main([directory])
        checkpoint, *records, summary = capsys.readouterr().out.splitlines()
        assert json.loads(checkpoint) == read_checkpoint(directory)
        records = [json.loads(record) for record in records]
        assert records == scan_wal(db.durability.wal_path).records
        # the second frame held neither: the scan numbered it
        assert [(r["v"], r["lsn"]) for r in records] == [
            (WAL_VERSION, 3), (WAL_VERSION, 4)]
        assert "hwm" in records[0] and "hwm" not in records[1]
        assert summary == (
            f"# 2 records in {size} bytes (18 of frame headers, {size - 18} "
            f"of chunks); 4 torn bytes, at least 0 whole records behind "
            f"the tear")


class TestFaultInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(point="nonsense")

    def test_occurrence_counting(self):
        injector = FaultInjector(point="mid_block", occurrence=3)
        injector.fire("mid_block")
        injector.fire("mid_block")
        with pytest.raises(SimulatedCrash) as excinfo:
            injector.fire("mid_block")
        assert excinfo.value.occurrence == 3
        assert injector.fired == "mid_block"

    def test_unarmed_points_never_crash(self):
        injector = FaultInjector(point="mid_block", occurrence=1)
        for _ in range(10):
            injector.fire("mid_quiesce")
        assert injector.fired is None

    def test_from_seed_is_deterministic(self):
        first, second = FaultInjector.from_seed(7), FaultInjector.from_seed(7)
        assert (first.point, first.occurrence, first.torn_fraction) == (
            second.point, second.occurrence, second.torn_fraction
        )

    def test_seeded_schedules_never_draw_the_io_error_point(self):
        from repro.durability.faults import CRASH_POINTS, IO_ERROR_POINTS

        assert not set(IO_ERROR_POINTS) & set(CRASH_POINTS)
        assert all(
            FaultInjector.from_seed(seed).point in CRASH_POINTS
            for seed in range(200)
        )


def build_db(directory=None, **kwargs):
    db = ActiveDatabase(durability=directory, **kwargs)
    db.execute("create table t (x integer, y varchar)")
    db.execute("insert into t values (1, 'a'), (2, 'b')")
    return db


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        db = build_db()
        document = build_checkpoint_document(db, wal_lsn=5, last_txn=2)
        write_checkpoint(str(tmp_path), document)
        loaded = read_checkpoint(str(tmp_path))
        assert loaded == json.loads(json.dumps(document))
        assert loaded["wal_lsn"] == 5
        # the data is one insert section per table: handles as runs
        assert loaded["data"] == {
            "t": {"i": [[1, 2], [1, 2], ["a", "b"]], "n": 2}}

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert read_checkpoint(str(tmp_path)) is None

    def test_corrupt_checkpoint_raises(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text("{oops")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path))

    def test_wrong_format_raises(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text('{"format": "x"}')
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path))

    def test_crash_before_rename_preserves_old_checkpoint(self, tmp_path):
        db = build_db()
        old = build_checkpoint_document(db, wal_lsn=1, last_txn=1)
        write_checkpoint(str(tmp_path), old)
        injector = FaultInjector(point="mid_checkpoint_rename", occurrence=1)
        new = build_checkpoint_document(db, wal_lsn=9, last_txn=9)
        with pytest.raises(SimulatedCrash):
            write_checkpoint(str(tmp_path), new, injector=injector)
        assert read_checkpoint(str(tmp_path))["wal_lsn"] == 1

    def test_disk_full_during_checkpoint_keeps_old_checkpoint_and_wal(
        self, tmp_path, monkeypatch
    ):
        from repro.durability import checkpoint as checkpoint_module

        directory = str(tmp_path / "d")
        db = build_db(directory)
        db.checkpoint()
        db.execute("insert into t values (3, 'c')")
        wal_size = os.path.getsize(db.durability.wal_path)
        expected = db.rows("select x, y from t")

        class DiskFull:
            """A file that takes half of each write, then ENOSPC."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(
            checkpoint_module, "open",
            lambda path, mode: DiskFull(open(path, mode)), raising=False,
        )
        with pytest.raises(OSError):
            db.checkpoint()
        monkeypatch.undo()
        tmp_file = db.durability.checkpoint_path + ".tmp"
        assert os.path.getsize(tmp_file) > 0  # the stale partial temp file
        assert read_checkpoint(directory)["wal_lsn"] == 2
        assert os.path.getsize(db.durability.wal_path) == wal_size

        # the state on disk still recovers to everything committed ...
        image = str(tmp_path / "image")
        import shutil

        shutil.copytree(directory, image)
        recovered = recover(image)
        assert recovered.rows("select x, y from t") == expected
        recovered.durability.close()

        # ... and the next checkpoint succeeds over the stale temp file
        info = db.checkpoint()
        assert info["wal_lsn"] == 3
        assert not os.path.exists(tmp_file)
        assert read_checkpoint(directory)["wal_lsn"] == 3
        assert os.path.getsize(db.durability.wal_path) == 0


class TestManager:
    def test_refuses_existing_state_without_recover(self, tmp_path):
        directory = str(tmp_path / "d")
        db = build_db(directory)
        db.durability.close()
        with pytest.raises(DurabilityError):
            ActiveDatabase(durability=directory)

    def test_fresh_empty_directory_is_fine(self, tmp_path):
        directory = str(tmp_path / "d")
        os.makedirs(directory)
        db = ActiveDatabase(durability=directory)
        assert db.durability.commits_logged == 0

    def test_checkpoint_truncates_wal_and_resets_counter(self, tmp_path):
        directory = str(tmp_path / "d")
        db = build_db(directory)
        assert os.path.getsize(db.durability.wal_path) > 0
        info = db.checkpoint()
        assert info["wal_lsn"] == 2  # create_table ddl + one commit
        assert os.path.getsize(db.durability.wal_path) == 0
        assert db.durability.commits_since_checkpoint == 0
        # LSNs keep counting after the truncation
        db.execute("insert into t values (3, 'c')")
        assert scan_wal(db.durability.wal_path).records[0]["lsn"] == 3

    def test_auto_checkpoint_interval(self, tmp_path):
        directory = str(tmp_path / "d")
        manager = DurabilityManager(directory, checkpoint_interval=2)
        db = ActiveDatabase(durability=manager)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        assert manager.checkpoints == 0
        db.execute("insert into t values (2)")
        assert manager.checkpoints == 1
        assert read_checkpoint(directory)["last_txn"] == 2

    def test_external_rules_rejected_when_durable(self, tmp_path):
        db = build_db(str(tmp_path / "d"))
        with pytest.raises(DurabilityError):
            db.define_external_rule("ext", "inserted into t", lambda c: None)

    def test_stats_section_present_only_with_durability(self, tmp_path):
        assert "durability" not in build_db().stats()
        stats = build_db(str(tmp_path / "d")).stats()["durability"]
        assert stats["commits_logged"] == 1
        assert stats["ddl_logged"] == 1
        assert stats["wal_bytes"] > 0
        assert stats["append_time"] > 0

    def test_read_only_transactions_append_nothing(self, tmp_path):
        sink = RingBufferSink()
        db = build_db(str(tmp_path / "d"), sink=sink)
        before = db.stats()["durability"]
        for _ in range(5):
            db.execute("select x from t")
        after = db.stats()["durability"]
        for key in ("wal_records", "wal_bytes", "wal_syncs",
                    "commits_logged", "last_lsn"):
            assert after[key] == before[key], key
        assert len(sink.of_kind("wal_append")) == 1  # the insert's
        assert len(sink.of_kind("txn_commit")) == 6

    def test_insert_then_delete_still_logs_its_hwm(self, tmp_path):
        directory = str(tmp_path / "d")
        db = build_db(directory)
        db.execute("insert into t values (9, 'z'); delete from t where x = 9")
        (record,) = scan_wal(db.durability.wal_path).records[-1:]
        assert (record["commit"], record["hwm"]) == ({}, 3)
        db.durability.close()
        recovered = recover(directory)
        assert recovered.database.handles.issued_count == 3
        recovered.execute("insert into t values (4, 'd')")
        assert recovered.database.table("t").handles() == [1, 2, 4]

    def test_a_rolled_back_insert_still_logs_its_hwm(self, tmp_path):
        """The block fails and its insert is undone, so the transaction
        touches no table; the handle it issued is logged all the same."""
        directory = str(tmp_path / "d")
        db = build_db(directory)
        db.begin()
        with pytest.raises(Exception):
            db.execute("insert into t values (9, 'z'); "
                       "insert into t values ('x', 'y')")
        db.commit()
        (record,) = scan_wal(db.durability.wal_path).records[-1:]
        assert (record["commit"], record["hwm"]) == ({}, 3)
        db.execute("select x from t")
        assert scan_wal(db.durability.wal_path).records[-1] == record
        db.durability.close()
        assert recover(directory).database.handles.issued_count == 3
