"""The switches ``src/`` still carries, as two exact lists.

ROADMAP's house rule — replace, never fork: no new ``REPRO_*`` /
``enable_*`` — enforced instead of remembered. Every switch doubles the
configurations tests and benchmarks must cover, so these lists may only
shrink: a PR that retires a switch deletes its name here, and a PR that
needs a new name in either list is adding a fork.
"""

import ast
import functools
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

ENABLE_ATTRIBUTES = {"enable_vectorized_eval", "enable_subquery_cache"}
ENVIRONMENT_NAMES = {"REPRO_VECTORIZED_EVAL"}


@functools.cache
def names_in_src():
    """Every attribute name and every string constant in ``src/`` — an
    attribute reached through ``getattr(database, "enable_x", ...)`` or
    an environment name read through any ``os`` call is a string
    constant; prose in docstrings is never a bare name."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                names.add(node.value)
    return names


def test_database_init_assigns_exactly_two_enable_attributes():
    tree = ast.parse((SRC / "relational" / "database.py").read_text())
    (init,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    assigned = {
        target.attr
        for node in ast.walk(init) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and target.attr.startswith("enable_")
    }
    assert assigned == ENABLE_ATTRIBUTES


def test_no_other_enable_attribute_is_mentioned_anywhere():
    mentioned = {
        name for name in names_in_src() if name.startswith("enable_")
    }
    assert mentioned == ENABLE_ATTRIBUTES


def test_environment_reads_exactly_one_repro_name():
    read = {
        name for name in names_in_src()
        if name.startswith("REPRO_") and name.isupper()
    }
    assert read == ENVIRONMENT_NAMES
