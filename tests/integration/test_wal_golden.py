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
Version 5 moved only gathers: with every gather expanded against the
database at its commit point (``tests/reference/wal_v4.py``), each line
is its line in ``tests/golden/wal_golden_v4.json`` — the version-4
snapshot, unedited — apart from ``"v"`` and the checksum; a checkpoint
never gathers, so the checkpoints did not move at all.
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
from repro.durability.wal import (
    WAL_FILENAME,
    decode_line,
    encode_json,
    encode_record,
)
from tests.reference import wal_v2, wal_v3, wal_v4

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
GOLDEN_V4 = json.loads(TOOL.GOLDEN_V4.read_text())
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
    (journal,) = [entry for entry in GOLDEN
                  if entry["label"] == "journal_gathers"]
    assert sum(map(gathered, journal["lines"])) >= 2
    for line in lines:
        head, _, data = line.partition(" ")
        assert int(head, 16) == zlib.crc32(data.encode("ascii"))
        assert data.startswith('{"v":5,"lsn":')
    for entry in GOLDEN:
        document = json.loads(entry["checkpoint"])
        assert document["version"] == 3
        assert set(document["data"]) <= {
            table["name"] for table in document["catalog"]["tables"]}
    for older in GOLDEN_V3, GOLDEN_V4:
        assert [entry["label"] for entry in older] \
            == list(SCENARIOS)[:len(older)]


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


def gathered(line):
    """How many vectors a commit line writes as gathers."""
    return sum(type(vector) is dict for vector in vectors(line))


def expanded(line, version):
    """A log line's body text with its references expanded and ``"v"``
    set to ``version``: what a writer without references put after the
    checksum."""
    body = json.loads(line.partition(" ")[2])
    body["v"] = version
    if "commit" in body:
        body["commit"] = wal_v3.expand_references(body["commit"])
    return encode_json(body)


class Expanding(DurabilityManager):
    """Writes the current log and keeps, per record, the line the
    version-2 codec would have written at the same point and the line
    written with its gathers expanded at its commit point — the
    version-4 line but for ``"v"`` and the checksum."""

    def __init__(self, directory):
        super().__init__(directory, fsync=False)
        self.v2_lines = []
        self.gathers_expanded = []

    def _keep(self, lsn, body, database=None):
        line = encode_record({"v": 2, "lsn": lsn, **body})
        self.v2_lines.append(line.decode("ascii").rstrip("\n"))
        with open(self.wal_path, "rb") as handle:
            written = decode_line(handle.readlines()[-1])
        if "commit" in written:
            written["commit"] = wal_v4.expand_gathers(
                written["commit"], database)
        self.gathers_expanded.append(
            encode_record(written).decode("ascii").rstrip("\n"))

    def log_commit(self, txn_id, effect, database):
        body = wal_v2.build_commit_record(txn_id, effect, database)
        info = super().log_commit(txn_id, effect, database)
        self._keep(info["lsn"], body, database)
        return info

    def log_ddl(self, op, **fields):
        info = super().log_ddl(op, **fields)
        self._keep(info["lsn"], {"kind": "ddl", "op": op, **fields})
        return info


def run_expanding(label):
    with tempfile.TemporaryDirectory() as directory:
        manager = Expanding(directory)
        db = ActiveDatabase(durability=manager)
        for statement in SCENARIOS[label]["statements"]:
            db.execute(statement)
        manager.close()
    return manager


@pytest.mark.parametrize(
    "expected", GOLDEN, ids=[entry["label"] for entry in GOLDEN]
)
def test_only_packed_vectors_moved_since_version_2(expected):
    manager = run_expanding(expected["label"])
    assert len(manager.v2_lines) == len(expected["lines"])
    for ours, plain, theirs in zip(expected["lines"],
                                   manager.gathers_expanded, manager.v2_lines):
        assert len(ours) <= len(plain) <= len(theirs)
        if has_packed_vector(plain):
            assert len(plain) < len(theirs)
        else:
            assert expanded(plain, 2) == theirs[9:]


@pytest.mark.parametrize(
    "pinned", GOLDEN_V4, ids=[entry["label"] for entry in GOLDEN_V4]
)
def test_version_5_lines_expand_to_the_version_4_lines(pinned):
    """Apart from ``"v"`` and the checksum, a version-5 line with its
    gathers expanded at its commit point is its version-4 line byte for
    byte; the checkpoint did not move."""
    (ours,) = [entry for entry in GOLDEN if entry["label"] == pinned["label"]]
    plain = run_expanding(pinned["label"]).gathers_expanded
    assert len(ours["lines"]) == len(plain) == len(pinned["lines"])
    for line, expansion, old in zip(ours["lines"], plain, pinned["lines"]):
        body = json.loads(expansion.partition(" ")[2])
        assert encode_json({**body, "v": 4}) == old[9:]
        assert len(line) <= len(old)
        assert (line == expansion) == (not gathered(line))
    assert ours["checkpoint"] == pinned["checkpoint"]


@pytest.mark.parametrize(
    "pinned", GOLDEN_V3, ids=[entry["label"] for entry in GOLDEN_V3]
)
def test_version_4_lines_expand_to_the_version_3_lines(pinned):
    """Apart from ``"v"`` and the checksum, a version-4 line with its
    references expanded is its version-3 line byte for byte, and the
    version-4 checkpoint its version-2 checkpoint (both snapshots as
    their builds wrote them)."""
    (ours,) = [entry for entry in GOLDEN_V4
               if entry["label"] == pinned["label"]]
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
    (ours,) = [entry for entry in GOLDEN_V4
               if entry["label"] == pinned["label"]]
    assert recovered_state(pinned["lines"]) == recovered_state(ours["lines"])
    assert recovered_state(checkpoint=pinned["checkpoint"]) \
        == recovered_state(checkpoint=ours["checkpoint"]) \
        == recovered_state(ours["lines"])


@pytest.mark.parametrize(
    "pinned", GOLDEN_V4, ids=[entry["label"] for entry in GOLDEN_V4]
)
def test_version_4_logs_recover_like_version_5_logs(pinned):
    (ours,) = [entry for entry in GOLDEN if entry["label"] == pinned["label"]]
    assert recovered_state(pinned["lines"]) == recovered_state(ours["lines"])
    assert recovered_state(checkpoint=pinned["checkpoint"]) \
        == recovered_state(ours["lines"])
