"""Golden WAL snapshot: the exact log bytes of the paper's examples, and
the checkpoint document of each end state, pinned by
``tools/gen_wal_golden.py``.

The WAL and the checkpoint are durable contracts between builds, so a
byte that moves by accident must fail a test. A deliberate format change
bumps ``repro.durability.wal.WAL_VERSION`` (or ``CHECKPOINT_VERSION``)
and regenerates the snapshot.

Version 3 moved only what it had to: a line whose vectors all stay
lists is, apart from ``"v":3`` and the checksum, the line the version-2
codec (``tests/reference/wal_v2.py``) writes for the same transaction.
"""

import importlib.util
import json
import tempfile
import zlib
from pathlib import Path

import pytest

from repro import ActiveDatabase, DurabilityManager
from repro.durability.wal import encode_record
from tests.reference import wal_v2

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
    assert sum(map(has_packed_vector, commits)) == 1
    for line in lines:
        head, _, data = line.partition(" ")
        assert int(head, 16) == zlib.crc32(data.encode("ascii"))
        assert data.startswith('{"v":3,"lsn":')
    for entry in GOLDEN:
        document = json.loads(entry["checkpoint"])
        assert document["version"] == 2
        assert set(document["data"]) <= {
            table["name"] for table in document["catalog"]["tables"]}


@pytest.mark.parametrize(
    "expected", GOLDEN, ids=[entry["label"] for entry in GOLDEN]
)
def test_log_bytes_reproduce_the_snapshot(expected):
    statements = SCENARIOS[expected["label"]]["statements"]
    assert TOOL.record(statements) == {
        "lines": expected["lines"], "checkpoint": expected["checkpoint"]}


def has_packed_vector(line):
    """True when a commit line holds a vector written as packed doubles
    (a string where version 2 had a list)."""
    body = json.loads(line.partition(" ")[2])
    for entry in body.get("commit", {}).values():
        sections = [entry.get("i", [])] + [
            group[1:] for group in entry.get("u", [])]
        if any(isinstance(vector, str)
               for section in sections for vector in section[1:]):
            return True
    return False


class V2Lines(DurabilityManager):
    """Writes the version-3 log and keeps, per record, the line the
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
        if has_packed_vector(ours):
            assert len(ours) < len(theirs)
        else:
            assert ours[9:] == theirs[9:].replace('{"v":2,', '{"v":3,', 1)
