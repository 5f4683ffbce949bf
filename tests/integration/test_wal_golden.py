"""Golden WAL snapshot: the log frames of the paper's examples, and the
checkpoint frame of each end state, pinned by ``tools/gen_wal_golden.py``
as each frame's header fields and inflated body.

The WAL and the checkpoint are durable contracts between builds, so a
body byte that moves by accident must fail a test. A deliberate format
change bumps ``repro.durability.wal.WAL_VERSION`` (or
``CHECKPOINT_VERSION``) and regenerates the snapshot.

Version 9 writes only what a frame's place cannot say: the first frame
of a log states ``"v"`` and ``"lsn"``, each later one neither, and a
commit record leaves out an ``"hwm"`` that is the highest handle it
inserts. Each body is its frame in ``tests/golden/wal_golden_v8.json``
— the version-8 snapshot, unedited — less those fields, and the
checkpoints are the same frames (:func:`v8_texts` puts the fields back).
The older comparisons below read the bodies so restored. Version 8
moved only the bytes of packed vectors, into byte planes:
each body is, apart from ``"v"`` (``"version"`` in a checkpoint) and
each packed string laid out again as contiguous doubles, its frame in
``tests/golden/wal_golden_v7.json`` — the version-7 snapshot, unedited.
Versions 6 and 7 moved the frame, not what it holds (version 6 made
each record a deflate stream of its own, version 7 made the frames of a
file one stream): read with contiguous doubles, each body of a scenario
pinned at version 3 is, apart from ``"v"``, its line in
``tests/golden/wal_golden_v3.json`` — the version-3 snapshot, unedited —
and each checkpoint body is that snapshot's version-2 checkpoint but for
``"version"``. So versions 4 and 5, which wrote vector references and
gathers, only re-encoded the same bodies. Version 3 moved only packed
vectors: a body whose vectors all stay lists is, apart from ``"v"``, the
body the version-2 codec (``tests/reference/wal_v2.py``) writes for the
same transaction.

``tests/golden/wal_golden_v5.json`` is the last text snapshot,
``wal_golden_v6.json`` the last of one stream per frame,
``wal_golden_v7.json`` the last of contiguous packed doubles and
``wal_golden_v8.json`` the last that stated the version and the LSN in
every body, all unedited: logs and checkpoints an earlier build wrote,
which this build refuses and leaves as they are.
"""

import base64
import importlib.util
import json
import os
import struct
import tempfile
import zlib
from pathlib import Path

import pytest

from repro import ActiveDatabase, DurabilityManager, recover
from repro.durability.checkpoint import CHECKPOINT_FILENAME, CheckpointError
from repro.durability.wal import (
    WAL_FILENAME,
    WalError,
    encode_frame,
    encode_json,
    new_deflate,
    unpack_floats,
)
from tests.crash.envelope import stated
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
GOLDEN_V3 = json.loads(TOOL.GOLDEN_V3.read_text())
GOLDEN_V5 = json.loads(TOOL.GOLDEN_V5.read_text())
GOLDEN_V6 = json.loads(TOOL.GOLDEN_V6.read_text())
GOLDEN_V7 = json.loads(TOOL.GOLDEN_V7.read_text())
GOLDEN_V8 = json.loads(TOOL.GOLDEN_V8.read_text())
SCENARIOS = {entry["label"]: entry for entry in TOOL.scenarios()}


def body(frame):
    """The body text of a pinned frame."""
    return frame.split(" ", 3)[3]


def v8_texts(frames):
    """The bodies of a log's pinned frames as version 8 wrote them:
    ``"v":8`` and the LSN, numbered on from the first frame, in each,
    and each commit record's ``"hwm"`` stated."""
    texts, lsn = [], 0
    for frame in frames:
        document = json.loads(body(frame))
        lsn = document.pop("lsn", lsn + 1)
        document.pop("v", None)
        texts.append(encode_json(stated({"v": 8, "lsn": lsn, **document})))
    return texts


def vectors(text):
    """Every value vector of a commit body, in document order."""
    found = []
    for entry in json.loads(text).get("commit", {}).values():
        found += entry.get("i", [None])[1:]
        for group in entry.get("u", ()):
            found += group[2:]
    return found


def has_packed_vector(text):
    """True when a commit body holds a vector written as packed doubles
    (a string where version 2 had a list)."""
    return any(isinstance(vector, str) for vector in vectors(text))


def contiguous(text):
    """A body with each packed vector's string laid out as version 7
    wrote it: the base64 of the contiguous little-endian doubles. (A
    body reads back as the same text: floats print as their shortest
    repr.)"""
    document = json.loads(text)

    def relaid(vector):
        if not isinstance(vector, str):
            return vector
        values = unpack_floats(vector)
        return base64.b64encode(struct.pack(f"<{len(values)}d", *values)
                                ).decode()

    sections = document.get("commit") or document.get("data") or {}
    for entry in sections.values():
        if "i" in entry:
            entry["i"] = entry["i"][:1] + [relaid(v) for v in entry["i"][1:]]
        for group in entry.get("u", ()):
            group[2:] = map(relaid, group[2:])
    return encode_json(document)


def repeats(text):
    """True when a commit body writes one vector's text twice."""
    texts = [encode_json(vector) for vector in vectors(text)]
    return len(set(texts)) < len(texts)


def test_snapshot_covers_the_scenarios():
    assert [entry["label"] for entry in GOLDEN] == list(SCENARIOS)


def test_snapshot_is_not_vacuous():
    frames = [frame for entry in GOLDEN for frame in entry["frames"]]
    commits = [body(frame) for frame in frames if '"commit":{' in frame]
    assert len(commits) >= 10
    assert any('"d":[' in text for text in commits)
    assert any('"u":[' in text for text in commits)
    assert any("null" in text and "\\u" in text for text in commits)
    assert sum(map(has_packed_vector, commits)) == 2
    # a journal's copy of a packed vector is written in full again
    assert any(repeats(text) and has_packed_vector(text) for text in commits)
    # ... and its byte planes are not its contiguous doubles
    assert sum(contiguous(text) != text for text in commits) == 2
    checkpoints = [entry["checkpoint"] for entry in GOLDEN]
    for frame in frames + checkpoints:
        marker, crc, length, text = frame.split(" ", 3)
        assert marker == "a6"
        assert int(crc, 16) == zlib.crc32(text.encode("ascii"))
        assert int(length) == len(text)
    for entry in GOLDEN:
        first, *later = map(body, entry["frames"])
        assert first.startswith('{"v":9,"lsn":1,')
        assert not any({"v", "lsn"} & json.loads(text).keys()
                       for text in later)
    # the mark is left out where the inserts imply it, and stated where
    # they do not
    assert sum('"hwm":' not in text for text in commits) >= 5
    assert sum('"hwm":' in text for text in commits) >= 4
    for entry in GOLDEN:
        document = json.loads(body(entry["checkpoint"]))
        assert document["version"] == 6
        assert set(document["data"]) <= {
            table["name"] for table in document["catalog"]["tables"]}
    for older in GOLDEN_V3, GOLDEN_V5, GOLDEN_V6, GOLDEN_V7, GOLDEN_V8:
        assert [entry["label"] for entry in older] \
            == list(SCENARIOS)[:len(older)]


@pytest.mark.parametrize(
    "expected", GOLDEN, ids=[entry["label"] for entry in GOLDEN]
)
def test_log_bytes_reproduce_the_snapshot(expected):
    statements = SCENARIOS[expected["label"]]["statements"]
    assert TOOL.record(statements) == {
        "frames": expected["frames"], "checkpoint": expected["checkpoint"]}


def test_check_names_the_scenario_and_line_that_moved():
    """What ``gen_wal_golden.py --check`` prints for a moved byte."""
    edited = json.loads(json.dumps(GOLDEN))
    edited[1]["frames"][2] += " "
    edited[-1]["checkpoint"] = "{}"
    del edited[0]
    label, last = GOLDEN[1]["label"], GOLDEN[-1]["label"]
    assert TOOL.moved(edited, GOLDEN) == [
        f"{GOLDEN[0]['label']}: not in the snapshot",
        f"{label}: frame 3 moved", f"{last}: the checkpoint moved"]
    assert TOOL.moved(GOLDEN, GOLDEN) == []


class KeepingV2(DurabilityManager):
    """Writes the current log and keeps, per record, the body the
    version-2 codec would have written at the same point."""

    def __init__(self, directory):
        super().__init__(directory, fsync=False)
        self.v2_bodies = []

    def _keep(self, lsn, fields):
        self.v2_bodies.append(encode_json({"v": 2, "lsn": lsn, **fields}))

    def log_commit(self, txn_id, effect, database):
        fields = wal_v2.build_commit_record(txn_id, effect, database)
        info = super().log_commit(txn_id, effect, database)
        self._keep(info["lsn"], fields)
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
        manager = KeepingV2(directory)
        db = ActiveDatabase(durability=manager)
        for statement in SCENARIOS[expected["label"]]["statements"]:
            db.execute(statement)
        manager.close()
    assert len(manager.v2_bodies) == len(expected["frames"])
    for frame, ours, theirs in zip(expected["frames"],
                                   v8_texts(expected["frames"]),
                                   manager.v2_bodies):
        assert len(body(frame)) <= len(ours) <= len(theirs)
        if has_packed_vector(ours):
            assert len(ours) < len(theirs)
        else:
            assert ours.replace('{"v":8,', '{"v":2,', 1) == theirs


@pytest.mark.parametrize(
    "pinned", GOLDEN_V3, ids=[entry["label"] for entry in GOLDEN_V3]
)
def test_bodies_are_the_version_3_bodies(pinned):
    """Apart from ``"v"`` and with packed vectors laid out contiguously,
    each body is its version-3 line after the checksum, byte for byte,
    and the checkpoint body is the version-2 checkpoint but for
    ``"version"`` (the snapshot as its build wrote it)."""
    (ours,) = [entry for entry in GOLDEN if entry["label"] == pinned["label"]]
    assert len(ours["frames"]) == len(pinned["lines"])
    for text, old in zip(v8_texts(ours["frames"]), pinned["lines"]):
        assert contiguous(text).replace('{"v":8,', '{"v":3,', 1) == old[9:]
    assert contiguous(body(ours["checkpoint"])).replace(
        '"version":6,', '"version":2,', 1) == pinned["checkpoint"]


@pytest.mark.parametrize(
    "pinned", GOLDEN_V8, ids=[entry["label"] for entry in GOLDEN_V8]
)
def test_bodies_are_the_version_8_bodies_less_what_the_order_says(pinned):
    """Each body is its version-8 pin less ``"v"`` and ``"lsn"`` past
    the first frame and less an implied ``"hwm"``; each checkpoint is
    its version-8 pin, byte for byte."""
    (ours,) = [entry for entry in GOLDEN if entry["label"] == pinned["label"]]
    assert v8_texts(ours["frames"]) == list(map(body, pinned["frames"]))
    assert ours["checkpoint"] == pinned["checkpoint"]


@pytest.mark.parametrize(
    "pinned", GOLDEN_V7, ids=[entry["label"] for entry in GOLDEN_V7]
)
def test_only_packed_vectors_moved_since_version_7(pinned):
    """Apart from ``"v"`` (``"version"``), each version-8 body (see
    :func:`v8_texts`) and checkpoint is its version-7 pin with its packed
    vectors laid out contiguously: the same length, the same values."""
    (ours,) = [entry for entry in GOLDEN if entry["label"] == pinned["label"]]
    assert len(ours["frames"]) == len(pinned["frames"])
    pairs = [*zip(v8_texts(ours["frames"]), pinned["frames"]),
             (body(ours["checkpoint"]), pinned["checkpoint"])]
    for text, old in pairs:
        text = contiguous(text).replace('{"v":8,', '{"v":7,', 1)
        if old == pinned["checkpoint"]:
            text = text.replace('"version":6,', '"version":5,', 1)
        assert text == body(old)
        assert str(len(text)) == old.split(" ", 3)[2]


@pytest.mark.parametrize(
    "pinned", GOLDEN_V5, ids=[entry["label"] for entry in GOLDEN_V5]
)
def test_parent_logs_are_refused_and_left_intact(pinned, tmp_path):
    """A text log and a JSON checkpoint an earlier build wrote are
    refused with a pointed error, alone or together, and never
    truncated: recovery would otherwise read the log as one torn frame
    and cut it to nothing."""
    log = "".join(line + "\n" for line in pinned["lines"]).encode("ascii")
    checkpoint = pinned["checkpoint"].encode("ascii")
    cases = [(WalError, "text WAL of an earlier version", log, None),
             (CheckpointError, "JSON checkpoint of an earlier version",
              None, checkpoint),
             (CheckpointError, "JSON checkpoint of an earlier version",
              log, checkpoint)]
    for at, (error, message, wal_bytes, checkpoint_bytes) in enumerate(cases):
        directory = tmp_path / str(at)
        directory.mkdir()
        files = {WAL_FILENAME: wal_bytes, CHECKPOINT_FILENAME: checkpoint_bytes}
        files = {name: data for name, data in files.items() if data}
        for name, data in files.items():
            (directory / name).write_bytes(data)
        with pytest.raises(error, match=message):
            recover(str(directory), fsync=False)
        assert {name: (directory / name).read_bytes() for name in files} \
            == files
        assert sorted(os.listdir(directory)) == sorted(files)


def v6_frame(pinned):
    """The bytes of a version-6 frame from its pin: marker ``a5``, CRC-32
    and length of the body, then the body as a deflate stream of its
    own."""
    marker, crc, length, text = pinned.split(" ", 3)
    deflate = zlib.compressobj(1, zlib.DEFLATED, -15)
    return struct.pack("<BII", int(marker, 16), int(crc, 16), int(length)) \
        + deflate.compress(text.encode("ascii")) + deflate.flush()


@pytest.mark.parametrize(
    "pinned", GOLDEN_V6, ids=[entry["label"] for entry in GOLDEN_V6]
)
def test_version_6_logs_are_refused_and_left_intact(pinned, tmp_path):
    """A version-6 log and checkpoint — one deflate stream per frame,
    whose frames a version-7 reader would take for a torn first chunk
    and cut to nothing — are refused with a pointed error naming the
    version, alone or together, and left byte-identical."""
    log = b"".join(map(v6_frame, pinned["frames"]))
    checkpoint = v6_frame(pinned["checkpoint"])
    cases = [(WalError, "a WAL of version 6", log, None),
             (CheckpointError, "a checkpoint of version 4", None, checkpoint),
             (CheckpointError, "a checkpoint of version 4", log, checkpoint)]
    for at, (error, message, wal_bytes, checkpoint_bytes) in enumerate(cases):
        directory = tmp_path / str(at)
        directory.mkdir()
        files = {WAL_FILENAME: wal_bytes, CHECKPOINT_FILENAME: checkpoint_bytes}
        files = {name: data for name, data in files.items() if data}
        for name, data in files.items():
            (directory / name).write_bytes(data)
        with pytest.raises(error, match=message):
            recover(str(directory), fsync=False)
        assert {name: (directory / name).read_bytes() for name in files} \
            == files
        assert sorted(os.listdir(directory)) == sorted(files)


def v7_files(pinned):
    """The bytes of a version-7 log — its frames one deflate stream — and
    checkpoint — a frame of a stream of its own — from their pins."""
    deflate = new_deflate()
    log = b"".join(encode_frame(body(frame).encode("ascii"), deflate)
                   for frame in pinned["frames"])
    return log, encode_frame(body(pinned["checkpoint"]).encode("ascii"))


@pytest.mark.parametrize(
    "pinned", GOLDEN_V7, ids=[entry["label"] for entry in GOLDEN_V7]
)
def test_version_7_logs_are_refused_and_left_intact(pinned, tmp_path):
    """A version-7 log and checkpoint — frames this build reads, whose
    packed vectors it would read as planes, so as other floats — are
    refused by the version their bodies name, alone or together, and
    left byte-identical."""
    log, checkpoint = v7_files(pinned)
    cases = [(WalError, "lsn 1 has format version 7;", log, None),
             (CheckpointError, "format version 5;", None, checkpoint),
             (CheckpointError, "format version 5;", log, checkpoint)]
    for at, (error, message, wal_bytes, checkpoint_bytes) in enumerate(cases):
        directory = tmp_path / str(at)
        directory.mkdir()
        files = {WAL_FILENAME: wal_bytes, CHECKPOINT_FILENAME: checkpoint_bytes}
        files = {name: data for name, data in files.items() if data}
        for name, data in files.items():
            (directory / name).write_bytes(data)
        with pytest.raises(error, match=message):
            recover(str(directory), fsync=False)
        assert {name: (directory / name).read_bytes() for name in files} \
            == files
        assert sorted(os.listdir(directory)) == sorted(files)


def v8_files(pinned):
    """The bytes of a version-8 log — its frames one deflate stream — and
    checkpoint from their pins: the checkpoint is this version's."""
    deflate = new_deflate()
    log = b"".join(encode_frame(body(frame).encode("ascii"), deflate)
                   for frame in pinned["frames"])
    return log, encode_frame(body(pinned["checkpoint"]).encode("ascii"))


@pytest.mark.parametrize(
    "pinned", GOLDEN_V8, ids=[entry["label"] for entry in GOLDEN_V8]
)
def test_version_8_logs_are_refused_and_left_intact(pinned, tmp_path):
    """A version-8 log — frames this build reads, whose later bodies
    state a version and an LSN it would take for a spliced log — is
    refused by the version its first body names, alone or beside a
    checkpoint this build reads, and left byte-identical."""
    log, checkpoint = v8_files(pinned)
    cases = [(log, None), (log, checkpoint)]
    for at, (wal_bytes, checkpoint_bytes) in enumerate(cases):
        directory = tmp_path / str(at)
        directory.mkdir()
        files = {WAL_FILENAME: wal_bytes, CHECKPOINT_FILENAME: checkpoint_bytes}
        files = {name: data for name, data in files.items() if data}
        for name, data in files.items():
            (directory / name).write_bytes(data)
        with pytest.raises(WalError, match="lsn 1 has format version 8;"):
            recover(str(directory), fsync=False)
        assert {name: (directory / name).read_bytes() for name in files} \
            == files
        assert sorted(os.listdir(directory)) == sorted(files)
