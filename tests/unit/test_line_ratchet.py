"""A ratchet on how much code there is, and how much of it each entry
point loads.

Five numbers are pinned: the lines of every ``*.py`` file under
``src/``, the lines of every ``*.py`` file under ``tests/reference/``
(the oracles a simplicity change may not grow the product into), and
the lines of the ``repro`` modules three entry points load — an
embedded rule program (the entry point
``tests/unit/test_import_footprint.py`` pins the module set of), the
wire client, and the ``python -m repro.server`` child. Each entry point
runs in a fresh interpreter, as ``test_import_footprint.py`` runs them.
A change that grows a number fails here until it raises the pin in the
same diff and states the cost in EXPERIMENTS.md; a change that shrinks
one lowers the pin, so the ratchet keeps every line it wins.
"""

from pathlib import Path

from tests.unit.test_import_footprint import (
    EMBEDDED_PROGRAM, SERVER_CHILD, SRC, run,
)

#: ``*.py`` lines under ``src/``
SRC_LINES = 22485
#: ``*.py`` lines under ``tests/reference/``
REFERENCE_LINES = 1176
#: lines of the ``repro`` modules ``from repro import ActiveDatabase``
#: plus one ``create rule`` loads
EMBEDDED_LINES = 14805
#: lines of the ``repro`` modules ``from repro.server import connect``
#: loads
CLIENT_LINES = 593
#: lines of the ``repro`` modules the ``python -m repro.server`` child
#: loads: its ``__main__``, a durable database, the server around it,
#: and one ``create rule``
SERVER_LINES = 17314

REFERENCE = Path(__file__).resolve().parents[1] / "reference"

def lines(text):
    return text.count("\n")


def tree_lines(root):
    return sum(lines(path.read_text()) for path in root.rglob("*.py"))


def loaded_lines(code):
    """Lines of the ``repro`` modules a fresh interpreter holds after
    running ``code``."""
    return run(code + """
import json, sys
print(json.dumps(sum(
    open(module.__file__).read().count("\\n")
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro."))))
""")


def ratchet(name, found, pinned):
    assert found <= pinned, (
        f"{name} grew from {pinned} to {found} lines: raise the pin in "
        f"this file and state the cost in EXPERIMENTS.md")
    assert found >= pinned, (
        f"{name} fell from {pinned} to {found} lines: lower the pin in "
        f"this file to keep the gain")


def test_source_lines_are_pinned():
    ratchet("src/", tree_lines(SRC), SRC_LINES)


def test_reference_lines_are_pinned():
    ratchet("tests/reference/", tree_lines(REFERENCE), REFERENCE_LINES)


def test_lines_an_embedded_rule_program_loads_are_pinned():
    found = loaded_lines(EMBEDDED_PROGRAM)
    ratchet("the embedded entry point", found, EMBEDDED_LINES)


def test_lines_the_wire_client_loads_are_pinned():
    found = loaded_lines("from repro.server import connect")
    ratchet("the wire client", found, CLIENT_LINES)


def test_lines_the_server_child_loads_are_pinned():
    ratchet("the server child", loaded_lines(SERVER_CHILD), SERVER_LINES)
