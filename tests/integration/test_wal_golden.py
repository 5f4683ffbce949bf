"""Golden WAL snapshot: the exact log bytes of the paper's examples,
pinned by ``tools/gen_wal_golden.py``.

The WAL is a durable contract between builds, so a byte that moves by
accident must fail a test. A deliberate format change bumps
``repro.durability.wal.WAL_VERSION`` and regenerates the snapshot.
"""

import importlib.util
import json
import zlib
from pathlib import Path

import pytest

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
    for line in lines:
        head, _, data = line.partition(" ")
        assert int(head, 16) == zlib.crc32(data.encode("ascii"))
        assert data.startswith('{"v":2,"lsn":')


@pytest.mark.parametrize(
    "expected", GOLDEN, ids=[entry["label"] for entry in GOLDEN]
)
def test_log_bytes_reproduce_the_snapshot(expected):
    statements = SCENARIOS[expected["label"]]["statements"]
    assert TOOL.wal_lines(statements) == expected["lines"]
