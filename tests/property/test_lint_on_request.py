"""Lint on request is lint at definition.

A rule is walked as it is defined only when an attached sink takes
``lint_diagnostic``; otherwise the first reader walks it. Each
generated program (``rule_programs.py``) is built twice — with a
catch-all ``RingBufferSink`` attached during definition, and with no
sink — then priorities, activation and a late schema change are
applied to both, and the two must agree on every view of the
analysis: the definition-time findings (the eager side's
``lint_diagnostic`` payloads, in order, against the rule-scoped passes
over the lazy side's walks), ``lint()``, ``lint(closed_world=True)``,
``analyze().describe()`` and the advisory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.analysis.lint.base import run_passes
from repro.analysis.lint.context import LintContext
from repro.obs import EventKind, RingBufferSink
from tests.property.rule_programs import build, programs

#: rules with a rule-scoped finding, so definition-time payloads exist;
#: ``late`` names a table :func:`afterwards` may create
DEFECTIVE = [
    "create rule bad when inserted into t "
    "if exists (select * from t where x = 'a') then insert into log values (1)",
    "create rule lossy when deleted from t then insert into log values (1.5)",
    "create rule late when inserted into t then insert into late values (1)",
    "create rule wide when inserted into t then insert into log values (1, 2)",
]


def afterwards(db, ordered, deactivated, late_table):
    names = db.rule_names()
    if ordered and len(names) > 1:
        db.execute(f"create rule priority {names[1]} before {names[0]}")
    if deactivated is not None and deactivated < len(names):
        db.deactivate_rule(names[deactivated])
    if late_table:
        db.execute("create table late (x integer)")


def views(db):
    return {
        "lint": [d.to_dict() for d in db.lint()],
        "closed_world": [d.to_dict() for d in db.lint(closed_world=True)],
        "analyze": analyze(db.catalog).describe(),
        "advisory": db.stats()["analysis"],
    }


def rule_scoped(db):
    """The definition-time findings of each walked rule, in catalog
    order."""
    analysis = db.engine.analysis
    return [
        diagnostic.to_dict()
        for rule in analysis.rules()
        for diagnostic in run_passes(
            LintContext(database=db.database, rules=[rule]), scope="rule"
        )
    ]


@given(programs(), st.lists(st.sampled_from(DEFECTIVE), max_size=2,
                            unique=True),
       st.booleans(), st.none() | st.integers(0, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lazy_walks_equal_definition_time_walks(
    rules, defective, ordered, deactivated, late_table
):
    rules = rules + defective
    sink = RingBufferSink(capacity=100_000)
    eager = build(True, rules, sink=sink)
    lazy = build(True, rules)
    assert lazy.catalog.analysis is None  # nobody asked: nothing walked
    defined = [event.data for event in sink.of_kind(EventKind.LINT_DIAGNOSTIC)]
    # with nothing changed since, lazy walks are the definition-time ones
    assert rule_scoped(build(True, rules)) == defined
    for db in (eager, lazy):
        afterwards(db, ordered, deactivated, late_table)
    assert views(lazy) == views(eager)
    # the bus counts what the catch-all sink saw, lint findings included
    assert eager.stats()["engine"]["events"] == len(sink)
