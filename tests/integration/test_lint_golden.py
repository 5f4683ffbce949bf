"""Golden analyzer snapshot: every verdict the analyzer gives about the
rule programs the repository ships, pinned by
``tools/gen_lint_golden.py``.

The snapshot is generated with the *parent* commit's ``src``, so a
change to the analyzer has to reproduce its parent's diagnostics,
``analyze()`` text, graph, pruned-edge proofs and conflict advisory
byte for byte; the entries a change moves on purpose are named, with
the reason, in the tool's ``CHANGED_ON_PURPOSE``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "gen_lint_golden", ROOT / "tools" / "gen_lint_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()
GOLDEN = json.loads(TOOL.GOLDEN.read_text())
ENTRIES = TOOL.entries()


def test_snapshot_covers_the_shipped_programs():
    assert list(GOLDEN) == sorted(ENTRIES)
    assert sum(label.startswith("corpus/") for label in GOLDEN) == 48
    assert {f"examples/{path.name}"
            for path in (ROOT / "examples").glob("*.py")} <= set(GOLDEN)
    assert set(TOOL.CHANGED_ON_PURPOSE) <= set(GOLDEN)


def test_snapshot_is_not_vacuous():
    codes = {
        diagnostic["code"]
        for facts in GOLDEN.values()
        for key in ("script", "lint", "lint_closed_world")
        for diagnostic in facts.get(key, ())
        if isinstance(diagnostic, dict) and "code" in diagnostic
    }
    assert len(codes) == 24  # every RPL code is pinned at least once
    assert any(facts.get("pruned") for facts in GOLDEN.values())
    reports = [facts.get("analyze", "") for facts in GOLDEN.values()]
    assert any("LOOP:" in text for text in reports if isinstance(text, str))
    assert any("CONFLICT:" in text for text in reports
               if isinstance(text, str))
    assert GOLDEN["rule_fanout_129"]["advisory"]["conflict_pairs"] == 8256
    assert set(GOLDEN["rule_fanout_129"]["lint"]) == {"sha256", "bytes"}


@pytest.mark.parametrize("label", sorted(ENTRIES))
def test_verdicts_reproduce_the_snapshot(label):
    assert TOOL.render(ENTRIES[label]()) == TOOL.render(GOLDEN[label])
