"""A ratchet on how much code there is, and how much of it a rule
program loads.

Two numbers are pinned: the lines of every ``*.py`` file under ``src/``,
and the lines of the modules an embedded rule program loads (the entry
point ``tests/unit/test_import_footprint.py`` pins the module set of).
A change that grows either one fails here until it raises the pin in
the same diff and states the cost in EXPERIMENTS.md; a change that
shrinks one lowers the pin, so the ratchet keeps every line it wins.
"""

from tests.unit.test_import_footprint import RULE_PROGRAM, SRC, run

#: ``*.py`` lines under ``src/``
SRC_LINES = 24248
#: lines of the ``repro`` modules ``from repro import ActiveDatabase``
#: plus one ``create rule`` loads
EMBEDDED_LINES = 19871


def lines(text):
    return text.count("\n")


def ratchet(name, found, pinned):
    assert found <= pinned, (
        f"{name} grew from {pinned} to {found} lines: raise the pin in "
        f"this file and state the cost in EXPERIMENTS.md")
    assert found >= pinned, (
        f"{name} fell from {pinned} to {found} lines: lower the pin in "
        f"this file to keep the gain")


def test_source_lines_are_pinned():
    found = sum(lines(path.read_text()) for path in SRC.rglob("*.py"))
    ratchet("src/", found, SRC_LINES)


def test_lines_an_embedded_rule_program_loads_are_pinned():
    found = run("from repro import ActiveDatabase\ndb = ActiveDatabase()"
                + RULE_PROGRAM + """
import json, sys
print(json.dumps(sum(
    open(module.__file__).read().count("\\n")
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro."))))
""")
    ratchet("the embedded entry point", found, EMBEDDED_LINES)
