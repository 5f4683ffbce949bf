"""Golden ``stats()`` snapshot: every section and every per-rule entry
after the scenarios of ``tools/gen_stats_golden.py``, wall-clock fields
left out.

The snapshot is generated with the *parent* commit's ``src``, so a
change to how evaluation work is counted, named or charged to a rule
has to reproduce its parent's numbers, keys and key order byte for
byte.
"""

import importlib.util
import json
from pathlib import Path

from repro.relational.stats import RULE_FIELDS

ROOT = Path(__file__).resolve().parent.parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "gen_stats_golden", ROOT / "tools" / "gen_stats_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()
GOLDEN = json.loads(TOOL.GOLDEN.read_text())


def test_snapshot_reproduces():
    assert TOOL.moved(GOLDEN, TOOL.build()) == []


def test_snapshot_covers_every_scenario():
    assert [entry["label"] for entry in GOLDEN] == list(TOOL.SCENARIOS)


def test_snapshot_is_not_vacuous():
    """Every counter a rule is charged, and every database-wide
    counter, moves in some scenario; one scenario conflicts and
    retries."""
    stats = [entry["stats"] for entry in GOLDEN]
    for field in RULE_FIELDS:
        assert any(rule[field] for snapshot in stats
                   for rule in snapshot["rules"].values()), field
    for section in ("planner", "compiler", "vectorized", "optimizer"):
        for key in stats[0][section]:
            assert any(snapshot[section][key] for snapshot in stats), \
                (section, key)
    server = [snapshot["server"] for snapshot in stats if "server" in snapshot]
    assert [(section["conflicts"], section["retries"])
            for section in server] == [(1, 1)]
