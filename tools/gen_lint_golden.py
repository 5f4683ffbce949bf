#!/usr/bin/env python
"""Generate the golden analyzer snapshot ``tests/golden/lint_golden.json``.

A static verdict is a claim about a rule program, so a verdict that
moves by accident must fail a test. The snapshot pins, for every rule
program the repository ships — the 48 lint corpus scripts, the
org-chart workload, every ``examples/*.py`` program the CI lint gate
reads, paper Examples 3.1/3.2/4.1/4.3 and a 129-rule ``rule_fanout``
catalog — every diagnostic (``Diagnostic.to_dict()``: code, severity,
message, line, column, rule, hint, pass), the definition-time
``lint_diagnostic`` payloads, ``analyze().describe()`` and
``to_dot()``, the pruned-edge proofs and the conflict advisory.

House rule: the snapshot is generated with the *parent* commit's
``src`` on ``PYTHONPATH`` and the change has to reproduce it byte for
byte (``tests/integration/test_lint_golden.py``)::

    PYTHONPATH=<checkout of the parent>/src python tools/gen_lint_golden.py
    PYTHONPATH=src python tools/gen_lint_golden.py --check

A deliberate change of verdict is listed in :data:`CHANGED_ON_PURPOSE`
and refreshed, alone, with the new ``src``::

    PYTHONPATH=src python tools/gen_lint_golden.py --refresh LABEL...
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "lint_golden.json"
CORPUS = ROOT / "tests" / "lint" / "corpus"

#: entries whose committed value is NOT the parent's, and why
CHANGED_ON_PURPOSE = {
    "deactivated_self_loop":
        "PR 23: a deactivated rule cannot fire, so it has no outgoing "
        "edge; the parent's analyze() reported LOOP ('loop',) while its "
        "lint() reported nothing",
    "deactivated_common_provider":
        "PR 23: a deactivated rule is no common provider; the parent "
        "reported RPL501 for siblings only a deactivated rule triggers",
}

_NO_RULES = {"rules_analyzed": 0, "opaque_rules": 0, "conflict_pairs": 0,
             "contended_tables": []}


def _pruned_proofs(db: Any) -> list[str]:
    """The refined graph's pruned edges among active rules, described."""
    try:
        graph = db.engine.analysis.graph
    except AttributeError:
        # the parent of PR 23 (no engine-held analysis): build the
        # graph the way its lint pass did
        from repro.analysis.lint.context import LintContext, LintRule
        from repro.analysis.lint.refine import RefinedTriggeringGraph

        context = LintContext(database=db.database)
        graph = RefinedTriggeringGraph(
            [LintRule.from_catalog_rule(rule)
             for rule in db.catalog.rules() if rule.active],
            schema_lookup=context.schema,
        )
    active = {rule.name for rule in db.catalog.rules() if rule.active}
    return sorted(
        edge.describe() for edge in graph.pruned
        if edge.provider in active and edge.consumer in active
    )


def catalog_facts(build: Callable[[Any], None]) -> dict[str, Any]:
    """Everything the analyzer says about the program ``build`` defines
    on a fresh database."""
    from repro import ActiveDatabase
    from repro.analysis import analyze
    from repro.obs import EventKind, RingBufferSink

    sink = RingBufferSink(capacity=100_000)
    db = ActiveDatabase(sink=sink)
    build(db)
    report = analyze(db.catalog)
    advisory = dict(db.stats().get("analysis") or _NO_RULES)
    advisory.pop("errors", None)
    return _compact({
        "define_events": [
            event.data for event in sink.of_kind(EventKind.LINT_DIAGNOSTIC)
        ],
        "lint": [d.to_dict() for d in db.lint()],
        "lint_closed_world": [
            d.to_dict() for d in db.lint(closed_world=True)
        ],
        "analyze": report.describe(),
        "dot": report.graph.to_dot(),
        "pruned": _pruned_proofs(db),
        "advisory": advisory,
    })


def _statements(*statements: str) -> Callable[[Any], None]:
    def build(db: Any) -> None:
        for statement in statements:
            db.execute(statement)
    return build


def _script(source: str) -> Callable[[Any], None]:
    """Run a corpus script statement by statement; the seeded defects
    the engine itself rejects (a §3 violation raises at ``create
    rule``) are skipped, and ``-- lint:`` pragmas do not apply."""
    from repro.sql.parser import Parser

    def build(db: Any) -> None:
        for statement in Parser(source).parse_script():
            try:
                db.execute(statement)
            except Exception:
                pass
    return build


def _paper() -> Any:
    sys.path.insert(0, str(ROOT))
    try:
        from tests.integration import test_paper_examples as paper
    finally:
        sys.path.remove(str(ROOT))
    return paper


def _orgchart(db: Any) -> None:
    from repro.workloads.orgchart import define_rules, populate

    populate(db, depth=2, branching=2)
    define_rules(db)


def _rule_fanout(db: Any) -> None:
    """The rule program of ``benchmarks/e2e``'s ``rule_fanout``."""
    db.execute("create table t (x integer, g integer)")
    db.execute("create table journal (x integer, g integer)")
    for i in range(128):
        db.execute(
            f"create rule never_{i} when inserted into t "
            f"if exists (select * from t where x > {10 ** 9 + i}) "
            f"then insert into journal values ({i}, -1)"
        )
    db.execute(
        "create rule journal_t when inserted into t "
        "then insert into journal select x, g from inserted t"
    )


def _deactivated_self_loop(db: Any) -> None:
    db.execute("create table t (x integer)")
    db.execute(
        "create rule loop when inserted into t "
        "then insert into t values (1)"
    )
    db.deactivate_rule("loop")


def _deactivated_common_provider(db: Any) -> None:
    for table in "abcd":
        db.execute(f"create table {table} (x integer)")
    db.execute(
        "create rule prov when inserted into a "
        "then insert into b values (1); insert into c values (1)"
    )
    db.execute(
        "create rule sib1 when inserted into b then update d set x = 1"
    )
    db.execute(
        "create rule sib2 when inserted into c then update d set x = 2"
    )
    db.deactivate_rule("prov")


def entries() -> dict[str, Callable[[], dict[str, Any]]]:
    """``label → thunk``: what each golden entry is the analysis of."""
    from repro.analysis.lint import lint_script
    from repro.lint import _lint_python_file

    paper = _paper()
    out: dict[str, Callable[[], dict[str, Any]]] = {}
    for path in sorted(CORPUS.glob("*.sql")):
        source = path.read_text()
        out[f"corpus/{path.name}"] = lambda source=source: {
            "script": [d.to_dict() for d in lint_script(source)],
            **catalog_facts(_script(source)),
        }
    out["orgchart"] = lambda: catalog_facts(_orgchart)
    for path in sorted((ROOT / "examples").glob("*.py")):
        out[f"examples/{path.name}"] = lambda path=path: {
            "lint": [d.to_dict() for d in _lint_python_file(path)],
        }
    schema = (paper.EMP, paper.DEPT)
    for label, rules in (
        ("example_3.1", (paper.RULE_31,)),
        ("example_3.2", (paper.RULE_32,)),
        ("example_4.1", (paper.RULE_41,)),
        ("example_4.3", (
            paper.RULE_41, paper.RULE_42,
            "create rule priority salary_control before manager_cascade",
        )),
    ):
        out[label] = lambda rules=rules: catalog_facts(
            _statements(*schema, *rules)
        )
    out["rule_fanout_129"] = lambda: catalog_facts(_rule_fanout)
    out["deactivated_self_loop"] = lambda: catalog_facts(
        _deactivated_self_loop
    )
    out["deactivated_common_provider"] = lambda: catalog_facts(
        _deactivated_common_provider
    )
    return out


#: a fact whose rendering is longer than this is pinned by digest
#: (``rule_fanout``'s 8,256 RPL203 pairs are 2.9 MB of text)
_DIGEST_ABOVE = 20_000


def render(facts: dict[str, Any]) -> str:
    """The exact text one entry is compared as."""
    return json.dumps(facts, indent=1, sort_keys=True)


def _compact(facts: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for key, value in facts.items():
        text = render(value)
        if len(text) > _DIGEST_ABOVE:
            value = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "bytes": len(text),
            }
        out[key] = value
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate and compare, write nothing")
    parser.add_argument("--refresh", nargs="+", metavar="LABEL",
                        help="rewrite only these entries")
    args = parser.parse_args()

    thunks = entries()
    if args.check or args.refresh:
        golden = json.loads(GOLDEN.read_text())
    if args.check:
        stale = [
            label for label, thunk in thunks.items()
            if render(thunk()) != render(golden.get(label))
        ] + [label for label in golden if label not in thunks]
        for label in stale:
            print(f"{label}: differs from {GOLDEN.relative_to(ROOT)}")
        print(f"{len(thunks) - len(stale)}/{len(thunks)} entries match")
        return 1 if stale else 0
    if args.refresh:
        unknown = set(args.refresh) - set(CHANGED_ON_PURPOSE)
        if unknown:
            parser.error(
                f"{sorted(unknown)} not listed in CHANGED_ON_PURPOSE"
            )
        for label in args.refresh:
            golden[label] = thunks[label]()
    else:
        golden = {label: thunk() for label, thunk in thunks.items()}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN.relative_to(ROOT)}: {len(golden)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
