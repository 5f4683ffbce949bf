"""What CI's ``mypy --strict`` and ``ruff`` steps catch first, checked
with the standard library alone — neither tool can be installed in the
development sandbox, so without this a missing annotation or a stale
import is found only after the push.

* every function in the packages and modules ``pyproject.toml`` hands
  to strict mypy annotates all its parameters and its return type;
* no module under ``src/`` imports a name it never uses (ruff ``F401``).
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``[tool.mypy] files`` in pyproject.toml: packages, and single modules
STRICT_PACKAGES = (
    "repro/analysis", "repro/sql", "repro/relational/plan",
    "repro/relational/select.py", "repro/relational/table.py",
    "repro/relational/index.py", "repro/relational/batch.py",
    "repro/relational/handles.py", "repro/core/effects.py",
    "repro/obs/bus.py", "repro/obs/sinks.py", "repro/obs/events.py",
    "repro/durability/wal.py", "repro/durability/checkpoint.py",
    "repro/durability/recovery.py", "repro/server/client.py",
    "repro/server/protocol.py", "repro/records.py",
)
#: modules under an override that sets ``disallow_untyped_defs =
#: false`` (none left: the whole of each package is strict)
RELAXED_MODULES: set = set()


def modules(*packages):
    paths = sorted(
        path for package in packages
        for path in ([SRC / package] if package.endswith(".py")
                     else (SRC / package).rglob("*.py"))
    )
    assert paths, f"nothing under {packages}"
    return [pytest.param(path, id=str(path.relative_to(SRC)))
            for path in paths]


def strict_modules():
    return [param for param in modules(*STRICT_PACKAGES)
            if param.id not in RELAXED_MODULES]


def unannotated(tree):
    """``line: what`` for every parameter or return type mypy's
    ``disallow_untyped_defs`` / ``disallow_incomplete_defs`` would flag."""
    problems = []
    functions = sorted(
        (node for node in ast.walk(tree)
         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))),
        key=lambda node: node.lineno,
    )
    methods = {
        id(node) for owner in ast.walk(tree) if isinstance(owner, ast.ClassDef)
        for node in owner.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in functions:
        spec = node.args
        positional = spec.posonlyargs + spec.args
        static = any(
            isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
            for decorator in node.decorator_list
        )
        if id(node) in methods and not static:
            positional = positional[1:]  # self / cls
        parameters = positional + spec.kwonlyargs + [
            extra for extra in (spec.vararg, spec.kwarg) if extra is not None
        ]
        for parameter in parameters:
            if parameter.annotation is None:
                problems.append(
                    f"{node.lineno}: parameter {parameter.arg!r} of "
                    f"{node.name}() has no annotation"
                )
        # mypy lets __init__ omit "-> None" once a parameter is annotated
        if node.returns is None and not (
                node.name == "__init__" and parameters):
            problems.append(
                f"{node.lineno}: {node.name}() has no return annotation")
    return problems


def unused_imports(source):
    """``line: name`` for every imported name the module never mentions
    (outside ``__all__``, ``# noqa`` lines and ``__future__``)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if alias.asname is not None and alias.asname == alias.name:
                    continue  # "import x as x": an explicit re-export
                imported.setdefault(bound, node.lineno)
    used = set()
    prose = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Expr)}  # docstrings mention, not use
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in prose):
            # a quoted annotation, or an entry of __all__
            used.update(
                word for word in node.value.replace(".", " ").replace(
                    "[", " ").replace("]", " ").replace(",", " ").split()
                if word.isidentifier()
            )
    return [f"{line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


def test_strict_packages_are_mypys_file_list():
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    files = re.search(r"^files = \[(.*?)\]", pyproject, re.M | re.S)
    assert re.findall(r'"src/([^"]+)"', files.group(1)) == list(STRICT_PACKAGES)


@pytest.mark.parametrize("path", strict_modules())
def test_strict_packages_are_fully_annotated(path):
    assert unannotated(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", modules("repro"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_checks_see_what_they_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Any, Optional  # noqa: F401\n"
        "from .x import y as y, z\n"
        "class C:\n"
        "    def __init__(self, a: int): ...\n"
        "    def m(self, a, *rest: Any, **more) -> None: ...\n"
        "    @staticmethod\n"
        "    def s(a) -> 'os.PathLike': ...\n"
        "def f():\n"
        "    'sys is only talked about'\n"
    )
    assert unused_imports(source) == ["2: sys", "4: z"]
    assert unannotated(ast.parse(source)) == [
        "7: parameter 'a' of m() has no annotation",
        "7: parameter 'more' of m() has no annotation",
        "9: parameter 'a' of s() has no annotation",
        "10: f() has no return annotation",
    ]
