"""Recovery scenarios: checkpoint restore, WAL replay, torn tails,
handle identity, and post-recovery behaviour."""

import base64
import json
import os

import pytest

from repro import ActiveDatabase, RingBufferSink, recover
from repro.durability.checkpoint import CHECKPOINT_FILENAME, CheckpointError
from repro.durability.wal import (
    WalError,
    encode_frame,
    encode_record,
    pack_floats,
    read_frame,
    scan_wal,
)
from tests.crash.envelope import append_to_log, write_log
from tests.reference import checkpoint_v1


def snapshot(db):
    """Full comparable state: rows with handles, per table."""
    return {
        name: dict(db.database.table(name).items())
        for name in db.database.table_names()
    }


def make_db(directory, **kwargs):
    db = ActiveDatabase(durability=directory, **kwargs)
    db.execute("create table emp (name varchar, salary float, dno integer)")
    db.execute("create table dept (dno integer)")
    db.execute(
        "create rule cascade when deleted from dept "
        "then delete from emp where dno in (select dno from deleted dept)"
    )
    db.execute("insert into dept values (1), (2)")
    db.execute("insert into emp values ('jane', 50.0, 1), ('bob', 40.0, 2)")
    return db


class TestBasicRecovery:
    def test_empty_directory_recovers_to_empty_database(self, tmp_path):
        db = recover(str(tmp_path / "d"))
        assert not db.database.table_names()
        assert db.durability.recovery["checkpoint"] is False
        assert db.durability.recovery["records_scanned"] == 0

    def test_wal_only_replay_reproduces_rows_and_handles(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.execute("delete from dept where dno = 2")  # fires cascade
        expected = snapshot(original)
        original.durability.close()

        recovered = recover(directory)
        assert snapshot(recovered) == expected
        assert recovered.rows("select name from emp") == [("jane",)]
        info = recovered.durability.recovery
        assert info["checkpoint"] is False
        assert info["commits_replayed"] == 3
        assert info["ddl_replayed"] == 3

    def test_checkpoint_plus_wal_suffix(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.checkpoint()
        original.execute("insert into emp values ('amy', 60.0, 1)")
        expected = snapshot(original)
        original.durability.close()

        recovered = recover(directory)
        assert snapshot(recovered) == expected
        info = recovered.durability.recovery
        assert info["checkpoint"] is True
        assert info["commits_replayed"] == 1
        assert info["ddl_replayed"] == 0

    def test_rules_never_refire_during_replay(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.execute("delete from dept where dno = 1")
        expected = snapshot(original)
        original.durability.close()

        sink = RingBufferSink()
        recovered = recover(directory, sink=sink)
        assert snapshot(recovered) == expected
        kinds = {event.kind for event in sink.events}
        assert kinds == {"recovery"}

    def test_ddl_replay_covers_every_op(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.execute("create index emp_dno on emp (dno)")
        original.execute("create index dept_dno on dept (dno)")
        original.execute("drop index dept_dno")
        original.execute(
            "create rule doomed when inserted into dept then rollback"
        )
        original.execute("drop rule doomed")
        original.execute(
            "create rule cascade2 when deleted from dept "
            "then delete from emp where false"
        )
        original.execute("create rule priority cascade before cascade2")
        original.deactivate_rule("cascade")
        original.set_rule_reset_policy("cascade", "triggering")
        original.durability.close()

        recovered = recover(directory)
        assert recovered.database.indexes.names() == ["emp_dno"]
        assert list(recovered.catalog.rule_names()) == ["cascade", "cascade2"]
        rule = recovered.catalog.rule("cascade")
        assert rule.active is False
        assert rule.reset_policy == "triggering"
        assert ("cascade", "cascade2") in recovered.catalog.pairings()

    def test_checkpoint_preserves_active_and_reset_policy(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.deactivate_rule("cascade")
        original.set_rule_reset_policy("cascade", "triggering")
        original.checkpoint()
        original.durability.close()

        recovered = recover(directory)
        rule = recovered.catalog.rule("cascade")
        assert rule.active is False
        assert rule.reset_policy == "triggering"


class TestHandlesAcrossRecovery:
    def test_handles_survive_and_are_not_reused(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.execute("delete from emp where name = 'jane'")
        live_handles = set(snapshot(original)["emp"])
        issued = original.database.handles.issued_count
        original.durability.close()

        recovered = recover(directory)
        assert set(snapshot(recovered)["emp"]) == live_handles
        recovered.execute("insert into emp values ('new', 1.0, 1)")
        (new_handle,) = (
            set(snapshot(recovered)["emp"]) - live_handles
        )
        # fresh handles start past everything ever issued, including
        # handles whose rows were deleted before the crash
        assert new_handle > issued

    def test_transition_state_empty_after_recovery(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.durability.close()

        recovered = recover(directory)
        assert not recovered.engine.in_transaction
        assert recovered.engine._log is None


class TestTornTailTruncation:
    def test_torn_tail_is_cut_and_prefix_recovered(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        expected = snapshot(original)
        original.durability.close()
        wal_path = original.durability.wal_path
        with open(wal_path, "ab") as handle:
            handle.write(encode_record({"kind": "commit", "txn": 99})[:-9])

        recovered = recover(directory)
        assert snapshot(recovered) == expected
        assert recovered.durability.recovery["torn_bytes_truncated"] > 0
        # the file itself was physically truncated
        assert scan_wal(wal_path).torn_bytes == 0

    def test_recovered_db_appends_after_the_tear(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.durability.close()
        with open(original.durability.wal_path, "ab") as handle:
            handle.write(b"torn")

        recovered = recover(directory)
        recovered.execute("insert into dept values (7)")
        recovered.durability.close()

        again = recover(directory)
        assert (7,) in again.rows("select dno from dept")


    def test_intact_records_behind_a_tear_are_discarded_and_counted(
        self, tmp_path
    ):
        """Point-in-time recovery: a checksummed record behind the first
        bad one is cut with it — it was never acknowledged — but the
        recovery summary, the event and stats() all say so."""
        directory = str(tmp_path / "d")
        original = make_db(directory)
        expected = snapshot(original)
        original.durability.close()
        wal_path = original.durability.wal_path
        lsn = scan_wal(wal_path).last_lsn
        with open(wal_path, "ab") as handle:
            handle.write(b"00000000 {torn\n")
            for _ in range(2):
                handle.write(encode_record(
                    {"kind": "ddl", "op": "drop_table", "name": "emp"}))

        sink = RingBufferSink()
        recovered = recover(directory, sink=sink)
        assert snapshot(recovered) == expected
        info = recovered.durability.recovery
        assert info["records_discarded_after_tear"] == 2
        assert info["torn_bytes_truncated"] > 0
        (event,) = sink.of_kind("recovery")
        assert event.data["records_discarded_after_tear"] == 2
        stats = recovered.stats()["durability"]["recovery"]
        assert stats["records_discarded_after_tear"] == 2
        assert scan_wal(wal_path).last_lsn == lsn


class TestReplayVerification:
    def test_row_count_mismatch_raises_wal_error(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.durability.close()
        wal_path = original.durability.wal_path
        records = scan_wal(wal_path).records
        # corrupt the last commit record's verification counts but keep
        # the checksum valid (simulates a replay/logging logic bug, the
        # thing the counts exist to catch)
        last = records[-1]
        for entry in last["commit"].values():
            entry["n"] += 1
        write_log(wal_path, records)

        with pytest.raises(WalError, match="recovery verification failed"):
            recover(directory)

    def test_unknown_record_kind_rejected(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.durability.close()
        lsn = append_to_log(original.durability.wal_path, {"kind": "mystery"})
        with pytest.raises(WalError, match=f"mystery.*lsn {lsn}"):
            recover(directory)

    def test_unknown_ddl_op_rejected(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.durability.close()
        lsn = append_to_log(original.durability.wal_path,
                            {"kind": "ddl", "op": "defrag"})
        with pytest.raises(WalError, match=f"defrag.*lsn {lsn}"):
            recover(directory)

    @pytest.mark.parametrize("body, found", [
        # a version-1 log: no "v", "kind":"commit"
        ({"kind": "commit", "lsn": 7, "txn": 4, "insert": [], "delete": [],
          "update": [], "handle_hwm": 9, "counts": {}}, "None"),
        # a version-2 log: FLOATs as decimal text only
        ({"v": 2, "lsn": 7, "txn": 4, "hwm": 9, "commit": {}}, "2"),
        # a version-7 log: packed FLOATs as contiguous doubles
        ({"v": 7, "lsn": 7, "txn": 4, "hwm": 9, "commit": {}}, "7"),
        # a version-8 log: "v" and "lsn" in every body
        ({"v": 8, "lsn": 7, "txn": 4, "hwm": 9, "commit": {}}, "8"),
        # a version from the future
        ({"v": 10, "lsn": 7, "txn": 4, "commit": {}}, "10"),
    ])
    def test_other_format_version_is_refused_not_truncated(
        self, tmp_path, body, found
    ):
        """A log names its version in its first frame."""
        directory = tmp_path / "d"
        directory.mkdir()
        wal_path = directory / "wal.jsonl"
        # every frame of a log before version 9 states the version; a
        # refusal comes before any truncation
        log = encode_record(body) + encode_record(body) + b"torn"
        wal_path.write_bytes(log)
        with pytest.raises(WalError, match=f"lsn 7 .*version {found}"):
            recover(str(directory))
        assert wal_path.read_bytes() == log

    @pytest.mark.parametrize("late", [
        {"v": 9, "kind": "ddl", "op": "drop_table", "name": "emp"},
        {"lsn": 6, "kind": "ddl", "op": "drop_table", "name": "emp"},
    ])
    def test_a_later_frame_stating_its_envelope_is_refused(
        self, tmp_path, late
    ):
        """A frame past the first that states the version or an LSN is
        the first frame of another log: the log was spliced."""
        directory = str(tmp_path / "d")
        make_db(directory).durability.close()
        wal_path = os.path.join(directory, "wal.jsonl")
        assert scan_wal(wal_path).last_lsn == 5
        with open(wal_path, "ab") as handle:
            handle.write(encode_record(late) + b"torn")
        size = os.path.getsize(wal_path)
        with pytest.raises(WalError, match="the record after lsn 5 states "
                                           "its format version or LSN"):
            recover(directory)
        assert os.path.getsize(wal_path) == size

    def test_a_first_frame_without_its_lsn_is_refused(self, tmp_path):
        directory = tmp_path / "d"
        directory.mkdir()
        log = encode_record({"v": 9, "kind": "ddl", "op": "drop_table",
                             "name": "emp"})
        (directory / "wal.jsonl").write_bytes(log)
        with pytest.raises(WalError, match="the first record states no "
                                           "integer LSN"):
            recover(str(directory))
        assert (directory / "wal.jsonl").read_bytes() == log


def _set(path, value):
    """A tamper that sets ``entry[path...] = value``."""
    def tamper(entry):
        *head, last = path
        for step in head:
            entry = entry[step]
        entry[last] = value
    return tamper


def _sets(*tampers):
    def tamper(entry):
        for path, value in tampers:
            _set(path, value)(entry)
    return tamper


def _delete(key):
    return lambda entry: entry.pop(key)


#: malformed commit entries behind a valid CRC. Each tampers the
#: ``emp`` entry — ``{"i": [[3, 2], ["jane", "bob"], [50.0, 40.0],
#: [1, 2]], "n": 2}`` both as the last commit record and as checkpoint
#: data — and names what the refusal says. A vector reference of
#: versions 4 and 5 (an integer where a vector belongs) is refused as
#: the malformed vector it now is
MALFORMED_ENTRIES = {
    "missing_n": (_delete("n"), "integer n"),
    "n_not_an_int": (_set(["n"], "2"), "integer n"),
    "unknown_key": (_set(["x"], []), "integer n"),
    "insert_not_a_list": (_set(["i"], "oops"), "a section is a list"),
    "update_not_a_list": (_set(["u"], {}), "update section must be a list"),
    "update_without_names": (_set(["u"], [[3, 1]]), "led by its column names"),
    "insert_vector_missing": (
        lambda entry: entry["i"].pop(), "handle runs and 3 value vector"),
    "update_vector_count": (
        _set(["u"], [[["salary"], [3, 1], [1.0], [2.0]]]),
        "handle runs and 1 value vector"),
    "vector_length": (_set(["i", 1], ["jane"]), "'name': 1 values for 2"),
    "vector_not_a_list": (
        _set(["i", 3], 7.5), "integer vector must be a list"),
    "reference_dangling": (
        _set(["i", 3], 7), "'dno': a integer vector must be a list"),
    "reference_forward": (
        _set(["i", 1], 1), "'name': a varchar vector must be a list"),
    "reference_to_itself": (
        _set(["i", 2], 1), "'salary': a float vector must be a list"),
    "reference_negative": (
        _set(["i", 3], -1), "'dno': a integer vector must be a list"),
    "reference_bool": (
        _set(["i", 3], True), "'dno': a integer vector must be a list"),
    "reference_length": (
        _set(["u"], [[["salary"], [3, 1], 1]]),
        "'salary': a float vector must be a list"),
    "reference_packed_varchar": (
        _sets((["i", 2], pack_floats([50.0, 40.0])),
              (["u"], [[["name"], [3, 2], 1]])),
        "'name': a varchar vector must be a list"),
    "packed_varchar": (
        _set(["i", 1], pack_floats([1.0, 2.0])),
        "'name': a varchar vector must be a list"),
    "packed_not_base64": (_set(["i", 2], "!!!!"), "not the base64"),
    "packed_partial_double": (
        _set(["i", 2], base64.b64encode(bytes(12)).decode()),
        "not the base64 of whole doubles"),
    "packed_length": (
        _set(["i", 2], pack_floats([50.0])), "'salary': 1 values for 2"),
    "overlapping_runs": (_set(["i", 0], [3, 1, 3, 1]), "malformed handle runs"),
}


def _gathering(tamper):
    """A tamper of a document's sections: ``dept`` first — its first
    section holds handles 1 and 2 and the INTEGER ``dno`` (an update
    group in the WAL record, the insert section in the checkpoint), what
    a version-5 gather read — then the ``emp`` entry, changed by
    ``tamper``."""
    def tampered(sections):
        dept = {"i": [[1, 2], [1, 2]], "n": 2} if sections.pop(
            "dept", None) else {"u": [[["dno"], [1, 2], [1, 2]]], "n": 2}
        emp = sections.pop("emp")
        tamper(emp)
        sections.update(dept=dept, emp=emp)
    return tampered


def _gather_at(path, gather, column="dno", kind="integer"):
    """A version-5 gather set at ``path`` of emp's entry, and the refusal
    naming its column and the type of vector it had to be."""
    return _set(path, gather), f"column {column!r}: a {kind} vector must be " \
        f"a list"


#: gathers of version 5, malformed then, in the document ``_gathering``
#: builds; an object where a vector belongs is refused as one
MALFORMED_GATHERS = {
    "gather_forward": _gather_at(["i", 3], {"g": [2, "dno"]}),
    "gather_out_of_range": _gather_at(["i", 3], {"g": [7, "dno"]}),
    "gather_negative": _gather_at(["i", 3], {"g": [-1, "dno"]}),
    "gather_same_table": (
        _set(["u"], [[["dno"], [3, 2], {"g": [1, "dno"]}]]),
        _gather_at(["u"], {"g": [1, "dno"]})[1]),
    "gather_bool": _gather_at(["i", 3], {"g": [True, "dno"]}),
    "gather_missing_column": _gather_at(["i", 3], {"g": [0, "name"]}),
    "gather_other_type": _gather_at(
        ["i", 1], {"g": [0, "dno"]}, "name", "varchar"),
    "gather_not_a_pair": _gather_at(["i", 3], {"g": [0, "dno", 1]}),
    "gather_not_a_list": _gather_at(["i", 3], {"g": "0"}),
    "gather_column_not_a_string": _gather_at(["i", 3], {"g": [0, 3]}),
    "gather_extra_key": _gather_at(["i", 3], {"g": [0, "dno"], "x": 1}),
}


class TestMalformedSections:
    """A checksummed but malformed commit entry is refused with a
    pointed error naming the LSN (or the checkpoint) and the table —
    never a KeyError or TypeError out of the replay loop."""

    @pytest.fixture
    def tampered_wal(self, tmp_path):
        directory = str(tmp_path / "d")
        make_db(directory).durability.close()
        wal_path = os.path.join(directory, "wal.jsonl")
        records = scan_wal(wal_path).records

        def rewrite(tamper):
            tamper(records[-1])
            return directory, write_log(wal_path, records)
        return rewrite

    @pytest.fixture
    def tampered_checkpoint(self, tmp_path):
        directory = str(tmp_path / "d")
        db = make_db(directory)
        db.checkpoint()
        db.durability.close()
        path = os.path.join(directory, CHECKPOINT_FILENAME)

        def rewrite(tamper):
            with open(path, "rb") as handle:
                document, _ = read_frame(handle.read())
            tamper(document)
            with open(path, "wb") as handle:
                handle.write(encode_record(document))
            return directory
        return rewrite

    @pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
    def test_wal_entry(self, tampered_wal, case):
        tamper, problem = MALFORMED_ENTRIES[case]
        directory, lsn = tampered_wal(
            lambda record: tamper(record["commit"]["emp"]))
        with pytest.raises(WalError) as failure:
            recover(directory)
        message = str(failure.value)
        assert f"cannot replay txn 2 (lsn {lsn}): table 'emp': " in message
        assert problem in message

    @pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
    def test_checkpoint_entry(self, tampered_checkpoint, case):
        tamper, problem = MALFORMED_ENTRIES[case]
        directory = tampered_checkpoint(
            lambda document: tamper(document["data"]["emp"]))
        with pytest.raises(CheckpointError) as failure:
            recover(directory)
        message = str(failure.value)
        assert "cannot replay the checkpoint: table 'emp': " in message
        assert problem in message

    @pytest.mark.parametrize("case", sorted(MALFORMED_GATHERS))
    def test_wal_gather(self, tampered_wal, case):
        tamper, problem = MALFORMED_GATHERS[case]
        directory, lsn = tampered_wal(
            lambda record: _gathering(tamper)(record["commit"]))
        with pytest.raises(WalError) as failure:
            recover(directory)
        message = str(failure.value)
        assert f"cannot replay txn 2 (lsn {lsn}): table 'emp': " in message
        assert problem in message

    @pytest.mark.parametrize("case", sorted(MALFORMED_GATHERS))
    def test_checkpoint_gather(self, tampered_checkpoint, case):
        tamper, problem = MALFORMED_GATHERS[case]
        directory = tampered_checkpoint(
            lambda document: _gathering(tamper)(document["data"]))
        with pytest.raises(CheckpointError) as failure:
            recover(directory)
        message = str(failure.value)
        assert "cannot replay the checkpoint: table 'emp': " in message
        assert problem in message

    @pytest.mark.parametrize("tamper, problem", [
        (_set(["commit"], []), "sections must be an object"),
        (_set(["hwm"], "9"), "txn and hwm must be integers"),
        (_set(["txn"], None), "txn and hwm must be integers"),
        (lambda record: record.update(commit={}) or record.pop("hwm", None),
         "states no hwm and inserts no handle"),
    ])
    def test_wal_record(self, tampered_wal, tamper, problem):
        directory, lsn = tampered_wal(tamper)
        with pytest.raises(WalError, match=f"lsn {lsn}.*{problem}"):
            recover(directory)

    @pytest.mark.parametrize("tamper, problem", [
        # the set mutators' refusals are checkpoint errors too
        (_set(["data", "emp", "i", 3], ["x", 2]), "column emp.dno"),
        # a vector is type-checked against its column: the names
        (_set(["data", "emp", "u"], [[["dno"], [3, 2], ["jane", "bob"]]]),
         "expected integer for column emp.dno, got 'jane'"),
        (_set(["data", "emp", "u"], [[["salary"], [99, 1], [1.0]]]),
         "handle 99 is not live in table 'emp'"),
        (_set(["data", "ghost"], {"n": 0}), "table 'ghost' does not exist"),
        (_set(["data", "emp", "n"], 3),
         "table 'emp' has 2 rows after replaying the checkpoint"),
        (_set(["data"], []), "objects catalog, data"),
        (_set(["hwm"], True), "integers wal_lsn, last_txn, hwm"),
        (_set(["version"], 5),
         "checkpoint has format version 5; this build reads version 6 only"),
    ])
    def test_checkpoint_data(self, tampered_checkpoint, tamper, problem):
        directory = tampered_checkpoint(tamper)
        with pytest.raises(CheckpointError, match=problem):
            recover(directory)

    def test_wal_insert_claiming_another_tables_handle(self, tampered_wal):
        # emp's insert claims handle 1, which dept's insert took first
        directory, lsn = tampered_wal(
            lambda record: record["commit"]["emp"]["i"].__setitem__(
                0, [1, 1, 4, 1]))
        with pytest.raises(WalError) as failure:
            recover(directory)
        assert str(failure.value) == (
            f"cannot replay txn 2 (lsn {lsn}): table 'emp': handle 1 "
            f"claimed by table 'emp' already belongs to table 'dept'")

    def test_checkpoint_handle_claimed_by_two_tables(
            self, tampered_checkpoint):
        # emp's rows are restored first and now claim dept's handle 1
        directory = tampered_checkpoint(
            _set(["data", "emp", "i", 0], [1, 1, 4, 1]))
        with pytest.raises(CheckpointError) as failure:
            recover(directory)
        assert str(failure.value) == (
            "cannot replay the checkpoint: table 'dept': handle 1 claimed "
            "by table 'dept' already belongs to table 'emp'")


class TestCheckpointFormat:
    def test_version_1_checkpoint_is_refused_before_the_wal_is_cut(
        self, tmp_path
    ):
        directory = str(tmp_path / "d")
        db = make_db(directory)
        db.checkpoint()
        document = checkpoint_v1.build_checkpoint_document(db, 6, 2)
        db.durability.close()
        with open(os.path.join(directory, CHECKPOINT_FILENAME), "w") as out:
            json.dump(document, out)
        wal_path = db.durability.wal_path
        with open(wal_path, "ab") as handle:
            handle.write(b"torn")
        size = os.path.getsize(wal_path)
        with pytest.raises(CheckpointError,
                           match="is a JSON checkpoint of an earlier version"):
            recover(directory)
        assert os.path.getsize(wal_path) == size

    def test_checkpoint_that_is_not_utf8_is_a_checkpoint_error(
        self, tmp_path
    ):
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / CHECKPOINT_FILENAME).write_bytes(
            encode_frame(b'{"a":"\xff"}'))
        with pytest.raises(CheckpointError, match="corrupt checkpoint file"):
            recover(str(directory))

    def test_checkpoint_is_catalog_plus_insert_sections(self, tmp_path):
        directory = str(tmp_path / "d")
        db = make_db(directory)
        db.execute("create index emp_dno on emp (dno)")
        db.execute("delete from emp where name = 'jane'")
        db.checkpoint()
        with open(os.path.join(directory, CHECKPOINT_FILENAME), "rb") as handle:
            document, _ = read_frame(handle.read())
        assert list(document) == [
            "format", "version", "wal_lsn", "last_txn", "hwm", "catalog",
            "data"]
        assert document["version"] == 6
        assert document["hwm"] == 4
        assert document["data"] == {
            "dept": {"i": [[1, 2], [1, 2]], "n": 2},
            "emp": {"i": [[4, 1], ["bob"], [40.0], [2]], "n": 1},
        }
        assert document["catalog"]["indexes"] == [
            {"name": "emp_dno", "table": "emp", "column": "dno"}]
        assert [table["name"] for table in document["catalog"]["tables"]] \
            == ["emp", "dept"]


class TestRecoveredLifecycle:
    def test_a_log_the_checkpoint_outran_is_emptied(self, tmp_path):
        """A checkpoint is durable and the log it was to empty lost its
        un-fsync'd last record: the checkpoint holds every record left,
        and the next append's LSN would not follow the last. Recovery
        empties the log, so that append states its LSN and survives the
        next recovery."""
        directory = str(tmp_path / "d")
        original = make_db(directory)
        wal_path = original.durability.wal_path
        records = scan_wal(wal_path).records
        original.checkpoint()
        original.durability.close()
        write_log(wal_path, records[:-1])

        recovered = recover(directory)
        assert os.path.getsize(wal_path) == 0
        assert recovered.durability.wal.next_lsn == records[-1]["lsn"] + 1
        recovered.execute("insert into dept values (3)")
        recovered.durability.close()
        assert (3,) in recover(directory).rows("select dno from dept")

    def test_txn_ids_continue_not_restart(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        last = original.engine._txn_id
        original.durability.close()

        recovered = recover(directory)
        assert recovered.engine._txn_id == last
        recovered.execute("insert into dept values (3)")
        assert recovered.engine._txn_id == last + 1

    def test_recovery_event_and_stats(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.checkpoint()
        original.execute("insert into dept values (3)")
        original.durability.close()

        sink = RingBufferSink()
        recovered = recover(directory, sink=sink)
        (event,) = sink.of_kind("recovery")
        assert event.data["checkpoint"] is True
        assert event.data["commits_replayed"] == 1
        stats = recovered.stats()["durability"]
        assert stats["recovery"]["commits_replayed"] == 1
        assert stats["recovery"]["duration"] > 0

    def test_rules_fire_normally_after_recovery(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.durability.close()

        recovered = recover(directory)
        recovered.execute("delete from dept where dno = 1")
        assert recovered.rows("select name from emp") == [("bob",)]

    def test_second_recovery_round_trip(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.durability.close()

        first = recover(directory)
        first.execute("insert into emp values ('amy', 60.0, 2)")
        first.checkpoint()
        first.execute("delete from dept where dno = 1")
        expected = snapshot(first)
        first.durability.close()

        second = recover(directory)
        assert snapshot(second) == expected

    def test_indexes_are_rebuilt_and_consistent(self, tmp_path):
        directory = str(tmp_path / "d")
        original = make_db(directory)
        original.execute("create index emp_dno on emp (dno)")
        original.execute("insert into emp values ('amy', 60.0, 2)")
        original.durability.close()

        recovered = recover(directory)
        index = recovered.database.indexes.get("emp_dno")
        table = recovered.database.table("emp")
        rebuilt = {}
        for handle, row in table.items():
            rebuilt.setdefault(row[2], set()).add(handle)
        assert {
            key: handles for key, handles in index.buckets().items()
            if handles
        } == rebuilt


class TestRecoveredOrderIsLiveOrder:
    """A table's scan order is ascending handle order, whatever undo,
    suspension or commit order did to it — so the live database and its
    crash-recovered copy read the same rows in the same order."""

    def assert_orders_agree(self, db, directory):
        live_rows = db.rows("select a from t")
        live_handles = db.database.table("t").handles()
        assert live_handles == sorted(live_handles)
        db.durability.close()
        recovered = recover(directory)
        assert recovered.rows("select a from t") == live_rows
        assert recovered.database.table("t").handles() == live_handles
        return live_rows

    def make(self, directory):
        db = ActiveDatabase(durability=directory)
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1), (2), (3)")
        return db

    def test_rule_requested_rollback(self, tmp_path):
        directory = str(tmp_path / "d")
        db = self.make(directory)
        db.execute("create rule r when deleted from t then rollback")
        result = db.execute("delete from t where a = 1")
        assert not result.committed
        db.execute("insert into t values (4)")
        assert self.assert_orders_agree(db, directory) == [
            (1,), (2,), (3,), (4,)]

    def test_savepoint_rollback_of_a_failing_block(self, tmp_path):
        directory = str(tmp_path / "d")
        db = self.make(directory)
        db.begin()
        with pytest.raises(Exception):
            db.execute("delete from t where a = 1; insert into t values ('x')")
        db.commit()
        db.execute("insert into t values (4)")
        assert self.assert_orders_agree(db, directory) == [
            (1,), (2,), (3,), (4,)]

    def test_commit_order_differs_from_allocation_order(self, tmp_path):
        from repro.concurrency import TransactionCoordinator

        directory = str(tmp_path / "d")
        db = self.make(directory)
        coordinator = TransactionCoordinator(db)
        first, second = coordinator.open_session(), coordinator.open_session()
        coordinator.begin(first)
        coordinator.execute(first, "insert into t values (4)")
        # mounting the second session suspends the first one's insert
        coordinator.execute(second, "insert into t values (5)")
        coordinator.commit(first)  # the older handle commits last
        assert self.assert_orders_agree(db, directory) == [
            (1,), (2,), (3,), (4,), (5,)]
