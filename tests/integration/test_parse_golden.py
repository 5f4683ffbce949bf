"""Golden parse snapshot: the front door's output over every SQL text
the repo ships, pinned by ``tools/gen_parse_golden.py``.

The snapshot in ``tests/golden/parse_golden.json`` was generated with
the character-at-a-time lexer and the recursive-descent expression
tower, on the commit before the regex lexer and the precedence-climbing
loop replaced them. Formatter output, the span of every ``walk()`` node
and every error must stay what they were. The ``bulk#N`` entries (an
org-chart load and the row lists of the tool's ``BULK_VALUES``) were
generated the same way on the commit before the lexer learned to read
an all-literal row list as one ``LITERAL_ROWS`` token.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "gen_parse_golden", ROOT / "tools" / "gen_parse_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()
GOLDEN = json.loads(TOOL.GOLDEN.read_text())
TEXTS = {entry["label"]: entry for entry in TOOL.collect_texts()}


def test_snapshot_covers_the_current_texts():
    """A source file that moved on needs a regenerated snapshot (run the
    tool on the commit *before* any parser change it rides with)."""
    assert [entry["label"] for entry in GOLDEN] == list(TEXTS)
    stale = [
        entry["label"] for entry in GOLDEN
        if entry["text_sha"] != TOOL.digest(TEXTS[entry["label"]]["text"])
    ]
    assert not stale, f"regenerate tests/golden/parse_golden.json: {stale}"


def test_snapshot_is_not_vacuous():
    assert sum("formatted" in entry for entry in GOLDEN) >= 150
    assert sum(entry.get("nodes", 0) for entry in GOLDEN) >= 2000
    assert any("error" in entry for entry in GOLDEN)


@pytest.mark.parametrize(
    "expected", GOLDEN, ids=[entry["label"] for entry in GOLDEN]
)
def test_front_door_reproduces_the_snapshot(expected):
    text = TEXTS[expected["label"]]
    actual = TOOL.outcome(text["mode"], text["text"])
    assert actual == {
        key: value for key, value in expected.items()
        if key not in ("label", "text_sha")
    }
