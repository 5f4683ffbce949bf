"""The modules each entry point loads.

The package roots (``repro``, ``repro.relational``, ``repro.durability``,
``repro.server``) are lazy export tables: they import nothing until a
name is read, so a process loads only the modules it runs. Each check
starts a fresh interpreter, because the test process has long since
loaded everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

ROOTS = ("repro", "repro.relational", "repro.durability", "repro.server",
         "repro.workloads")

#: ``from repro import ActiveDatabase``, then one ``create rule``: the
#: engine, the SQL front end and the analyzer — no durability, no
#: server, no persistence
EMBEDDED = {
    "repro", "repro.errors", "repro.system",
    "repro.analysis", "repro.analysis.confluence", "repro.analysis.effects",
    "repro.analysis.effects.conflicts", "repro.analysis.effects.sets",
    "repro.analysis.lint", "repro.analysis.lint.base",
    "repro.analysis.lint.context", "repro.analysis.lint.diagnostics",
    "repro.analysis.lint.hygiene", "repro.analysis.lint.refine",
    "repro.analysis.lint.transition", "repro.analysis.lint.triggering",
    "repro.analysis.program", "repro.analysis.types",
    "repro.analysis.types.infer",
    "repro.core", "repro.core.effects", "repro.core.engine",
    "repro.core.external", "repro.core.incremental",
    "repro.core.incremental.classify", "repro.core.incremental.manager",
    "repro.core.incremental.views", "repro.core.predicates",
    "repro.core.rules", "repro.core.selection", "repro.core.trace",
    "repro.core.transition_tables",
    "repro.obs", "repro.obs.bus", "repro.obs.events", "repro.obs.metrics",
    "repro.obs.recorder", "repro.obs.sinks", "repro.records",
    "repro.relational", "repro.relational.batch",
    "repro.relational.compiled", "repro.relational.database",
    "repro.relational.dml", "repro.relational.expressions",
    "repro.relational.handles", "repro.relational.index",
    "repro.relational.plan", "repro.relational.plan.builder",
    "repro.relational.plan.cache", "repro.relational.plan.cost",
    "repro.relational.plan.executor", "repro.relational.plan.nodes",
    "repro.relational.plan.pushdown", "repro.relational.schema",
    "repro.relational.select", "repro.relational.stats",
    "repro.relational.table", "repro.relational.transactions",
    "repro.relational.types",
    "repro.sql", "repro.sql.ast", "repro.sql.formatter", "repro.sql.lexer",
    "repro.sql.params", "repro.sql.parser", "repro.sql.spans",
    "repro.sql.tokens",
}

#: what a durability directory adds to :data:`EMBEDDED`
DURABLE = {
    "repro.durability", "repro.durability.checkpoint",
    "repro.durability.manager", "repro.durability.wal", "repro.persistence",
}

RULE_PROGRAM = """
db.execute("create table t (x integer)")
db.execute("create rule r when inserted into t then delete from t where x < 0")
"""

#: the entry points, as code a fresh interpreter runs
EMBEDDED_PROGRAM = (
    "from repro import ActiveDatabase\ndb = ActiveDatabase()" + RULE_PROGRAM)
DURABLE_PROGRAM = (
    "import tempfile\nfrom repro import ActiveDatabase\n"
    "db = ActiveDatabase(durability=tempfile.mkdtemp())" + RULE_PROGRAM)
#: the ``python -m repro.server`` child: its ``__main__``, a durable
#: database, the server around it, and one ``create rule``
SERVER_CHILD = """
import tempfile
from repro.server.__main__ import build_system
from repro.server.server import RuleServer
db = build_system(tempfile.mkdtemp())
server = RuleServer(db)
""" + RULE_PROGRAM
ORGCHART_PROGRAM = """
from repro import ActiveDatabase
from repro.workloads import orgchart
db = ActiveDatabase()
orgchart.populate(db, depth=2, branching=2, seed=1)
orgchart.define_rules(db)
"""


def run(code):
    """Run ``code`` in a fresh interpreter; return what it prints last,
    decoded from JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(code):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    return set(run(code + """
import json, sys
print(json.dumps([name for name in sys.modules
                  if name == "repro" or name.startswith("repro.")]))
"""))


def export_table(package):
    """The ``{submodule: names}`` literal a root hands ``_export_table``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    (call,) = [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_export_table"
    ]
    return ast.literal_eval(call.args[2])


def test_the_wire_client_loads_no_engine():
    assert loaded_after("import repro.server.client") == {
        "repro", "repro.errors", "repro.server", "repro.server.client",
        "repro.server.protocol",
    }


def test_the_wal_codec_loads_no_engine():
    loaded = loaded_after("import repro.durability.wal")
    assert not {
        name for name in loaded
        if name.split(".")[1:2] in (["core"], ["sql"], ["analysis"], ["system"])
    }


def test_an_embedded_rule_program_loads_what_it_runs():
    assert loaded_after(EMBEDDED_PROGRAM) == EMBEDDED
    assert loaded_after(DURABLE_PROGRAM) == EMBEDDED | DURABLE


@pytest.mark.parametrize("program", [
    EMBEDDED_PROGRAM, DURABLE_PROGRAM, SERVER_CHILD, ORGCHART_PROGRAM,
], ids=["embedded", "durable", "server-child", "orgchart"])
def test_no_entry_point_imports_dataclasses(program):
    """Record classes build no code at import (``repro.records``), so
    no process that runs the engine loads the dataclass generator."""
    assert run(program + """
import json, sys
print(json.dumps(sorted(name for name in sys.modules
                        if name == "dataclasses")))
""") == []


def test_the_serving_process_loads_no_asyncio():
    """The server is one ``selectors`` loop over plain sockets: a child
    whose loop is running and has answered a client holds none of
    asyncio, its ``ssl`` import or ``concurrent.futures``."""
    assert run(SERVER_CHILD + """
import json, sys, threading
from repro.server.client import connect
server._bind()
threading.Thread(target=server.serve_forever, daemon=True).start()
with connect(port=server.address[1]) as client:
    assert client.ping() == "pong"
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] in ("asyncio", "ssl")
                        or name.startswith("concurrent.futures"))))
""") == []


def test_every_export_is_its_submodules_object():
    tables = {package: export_table(package) for package in ROOTS}
    problems = run(f"""
import importlib, json
problems = []
for package, table in {tables!r}.items():
    root = importlib.import_module(package)
    owner = {{name: module for module, names in table.items()
             for name in names}}
    if sorted(set(root.__all__) - {{"__version__"}}) != sorted(owner):
        problems.append(package + ": __all__ is not the table")
    for name, module in owner.items():
        source = importlib.import_module(module, package)
        if getattr(root, name) is not getattr(source, name):
            problems.append(f"{{package}}.{{name}} is not {{module}}'s")
        if name not in dir(root):
            problems.append(f"{{package}}.{{name}} missing from dir()")
print(json.dumps(problems))
""")
    assert problems == []


def test_star_import_binds_every_export():
    unbound = run(f"""
import importlib, json
unbound = []
for package in {ROOTS!r}:
    namespace = {{}}
    exec(f"from {{package}} import *", namespace)
    root = importlib.import_module(package)
    unbound += [f"{{package}}.{{name}}" for name in root.__all__
                if namespace.get(name) is not getattr(root, name)]
print(json.dumps(unbound))
""")
    assert unbound == []


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    messages = run(f"""
import importlib, json
messages = []
for package in {ROOTS!r}:
    try:
        importlib.import_module(package).no_such_name
    except AttributeError as error:
        messages.append(str(error))
print(json.dumps(messages))
""")
    assert messages == [
        f"module {package!r} has no attribute 'no_such_name'"
        for package in ROOTS
    ]
