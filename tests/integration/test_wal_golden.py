"""Golden WAL snapshot: the exact log bytes of the paper's examples, and
the checkpoint document of each end state, pinned by
``tools/gen_wal_golden.py``.

The WAL and the checkpoint are durable contracts between builds, so a
byte that moves by accident must fail a test. A deliberate format change
bumps ``repro.durability.wal.WAL_VERSION`` (or ``CHECKPOINT_VERSION``)
and regenerates the snapshot.

Version 3 moved only what it had to: a line whose vectors all stay
lists is, apart from ``"v"`` and the checksum, the line the version-2
codec (``tests/reference/wal_v2.py``) writes for the same transaction.
Version 4 moved only references: with every vector reference expanded
(``tests/reference/wal_v3.py``), each line of a scenario pinned before
it is, apart from ``"v"`` and the checksum, its line in
``tests/golden/wal_golden_v3.json`` — the version-3 snapshot, unedited —
and the version-3 logs and checkpoints recover to the same databases.
"""

import importlib.util
import json
import os
import tempfile
import zlib
from pathlib import Path

import pytest

from repro import ActiveDatabase, DurabilityManager, recover
from repro.durability.checkpoint import CHECKPOINT_FILENAME
from repro.durability.wal import WAL_FILENAME, encode_json, encode_record
from tests.reference import wal_v2, wal_v3

ROOT = Path(__file__).resolve().parent.parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "gen_wal_golden", ROOT / "tools" / "gen_wal_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()
GOLDEN = json.loads(TOOL.GOLDEN.read_text())
GOLDEN_V3 = json.loads(TOOL.GOLDEN_V3.read_text())
SCENARIOS = {entry["label"]: entry for entry in TOOL.scenarios()}


def test_snapshot_covers_the_scenarios():
    assert [entry["label"] for entry in GOLDEN] == list(SCENARIOS)


def test_snapshot_is_not_vacuous():
    lines = [line for entry in GOLDEN for line in entry["lines"]]
    commits = [line for line in lines if '"commit":{' in line]
    assert len(commits) >= 10
    assert any('"d":[' in line for line in commits)
    assert any('"u":[' in line for line in commits)
    assert any("null" in line and "\\u" in line for line in commits)
    assert sum(map(has_packed_vector, commits)) == 2
    assert sum(map(references, commits)) >= 8
    assert any(references(line) and has_packed_vector(line)
               for line in commits)  # a packed vector referred to
    for line in lines:
        head, _, data = line.partition(" ")
        assert int(head, 16) == zlib.crc32(data.encode("ascii"))
        assert data.startswith('{"v":4,"lsn":')
    for entry in GOLDEN:
        document = json.loads(entry["checkpoint"])
        assert document["version"] == 3
        assert set(document["data"]) <= {
            table["name"] for table in document["catalog"]["tables"]}
    assert [entry["label"] for entry in GOLDEN_V3] \
        == list(SCENARIOS)[:len(GOLDEN_V3)]


@pytest.mark.parametrize(
    "expected", GOLDEN, ids=[entry["label"] for entry in GOLDEN]
)
def test_log_bytes_reproduce_the_snapshot(expected):
    statements = SCENARIOS[expected["label"]]["statements"]
    assert TOOL.record(statements) == {
        "lines": expected["lines"], "checkpoint": expected["checkpoint"]}


def test_check_names_the_scenario_and_line_that_moved():
    """What ``gen_wal_golden.py --check`` prints for a moved byte."""
    edited = json.loads(json.dumps(GOLDEN))
    edited[1]["lines"][2] += " "
    edited[-1]["checkpoint"] = "{}"
    del edited[0]
    label, last = GOLDEN[1]["label"], GOLDEN[-1]["label"]
    assert TOOL.moved(edited, GOLDEN) == [
        f"{GOLDEN[0]['label']}: not in the snapshot",
        f"{label}: line 3 moved", f"{last}: the checkpoint moved"]
    assert TOOL.moved(GOLDEN, GOLDEN) == []


def vectors(line):
    """Every value vector (or reference) of a commit line, in slot order."""
    body = json.loads(line.partition(" ")[2])
    return [section[index] for section, index
            in wal_v3.vector_positions(body.get("commit", {}))]


def has_packed_vector(line):
    """True when a commit line holds a vector written as packed doubles
    (a string where version 2 had a list)."""
    return any(isinstance(vector, str) for vector in vectors(line))


def references(line):
    """How many vectors a commit line writes as references."""
    return sum(type(vector) is int for vector in vectors(line))


def expanded(line, version):
    """A log line's body text with its references expanded and ``"v"``
    set to ``version``: what a writer without references put after the
    checksum."""
    body = json.loads(line.partition(" ")[2])
    body["v"] = version
    if "commit" in body:
        body["commit"] = wal_v3.expand_references(body["commit"])
    return encode_json(body)


class V2Lines(DurabilityManager):
    """Writes the version-4 log and keeps, per record, the line the
    version-2 codec would have written at the same point."""

    def __init__(self, directory):
        super().__init__(directory, fsync=False)
        self.v2_lines = []

    def _keep(self, lsn, body):
        line = encode_record({"v": 2, "lsn": lsn, **body})
        self.v2_lines.append(line.decode("ascii").rstrip("\n"))

    def log_commit(self, txn_id, effect, database):
        body = wal_v2.build_commit_record(txn_id, effect, database)
        info = super().log_commit(txn_id, effect, database)
        self._keep(info["lsn"], body)
        return info

    def log_ddl(self, op, **fields):
        info = super().log_ddl(op, **fields)
        self._keep(info["lsn"], {"kind": "ddl", "op": op, **fields})
        return info


@pytest.mark.parametrize(
    "expected", GOLDEN, ids=[entry["label"] for entry in GOLDEN]
)
def test_only_packed_vectors_moved_since_version_2(expected):
    with tempfile.TemporaryDirectory() as directory:
        manager = V2Lines(directory)
        db = ActiveDatabase(durability=manager)
        for statement in SCENARIOS[expected["label"]]["statements"]:
            db.execute(statement)
        manager.close()
    assert len(manager.v2_lines) == len(expected["lines"])
    for ours, theirs in zip(expected["lines"], manager.v2_lines):
        assert len(ours) <= len(theirs)
        if has_packed_vector(ours):
            assert len(ours) < len(theirs)
        else:
            assert expanded(ours, 2) == theirs[9:]


@pytest.mark.parametrize(
    "pinned", GOLDEN_V3, ids=[entry["label"] for entry in GOLDEN_V3]
)
def test_version_4_lines_expand_to_the_version_3_lines(pinned):
    """Apart from ``"v"`` and the checksum, a version-4 line with its
    references expanded is its version-3 line byte for byte, and the
    version-4 checkpoint its version-2 checkpoint."""
    (ours,) = [entry for entry in GOLDEN if entry["label"] == pinned["label"]]
    assert len(ours["lines"]) == len(pinned["lines"])
    for line, old in zip(ours["lines"], pinned["lines"]):
        assert expanded(line, 3) == old[9:]
        assert len(line) <= len(old)
    document = json.loads(ours["checkpoint"])
    document["version"] = 2
    document["data"] = wal_v3.expand_references(document["data"])
    assert encode_json(document) == pinned["checkpoint"]


def recovered_state(lines=(), checkpoint=None):
    """The database ``recover()`` builds from a log and a checkpoint."""
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, WAL_FILENAME), "w") as handle:
            handle.writelines(line + "\n" for line in lines)
        if checkpoint is not None:
            with open(os.path.join(directory, CHECKPOINT_FILENAME), "w") as out:
                out.write(checkpoint)
        db = recover(directory, fsync=False)
        db.durability.close()
    database = db.database
    return {
        name: (list(database.table(name).items()),
               repr(database.table(name).column_vectors(
                   database.table(name).handles())))
        for name in database.table_names()
    }, database.handles.issued_count, list(db.catalog.rule_names())


@pytest.mark.parametrize(
    "pinned", GOLDEN_V3, ids=[entry["label"] for entry in GOLDEN_V3]
)
def test_version_3_logs_recover_like_version_4_logs(pinned):
    (ours,) = [entry for entry in GOLDEN if entry["label"] == pinned["label"]]
    assert recovered_state(pinned["lines"]) == recovered_state(ours["lines"])
    assert recovered_state(checkpoint=pinned["checkpoint"]) \
        == recovered_state(checkpoint=ours["checkpoint"]) \
        == recovered_state(ours["lines"])
