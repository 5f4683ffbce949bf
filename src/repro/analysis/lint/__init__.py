"""Multi-pass semantic analyzer ("lint") for rule programs.

Entry points:

* :func:`lint_catalog` — analyze a live rule catalog against a live
  database (what ``ActiveDatabase.lint()`` calls);
* :func:`lint_statement` — analyze one parsed statement in the context
  of a live catalog (definition-time warnings for ``create rule``);
* :func:`lint_script` — analyze a SQL script end-to-end with source
  positions on every finding (what ``python -m repro.lint`` runs);
* :func:`lint_rule` — rule-scoped passes for a single named rule.

The passes themselves live in sibling modules and self-register on
import; see :mod:`repro.analysis.lint.base`.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional

from ...relational.database import Database
from ...sql import ast
from ...sql.parser import Parser
from ...sql.spans import span_of
from .base import Pass, all_passes, get_pass, register_pass
from .context import LintContext, LintRule, priority_precedes
from .diagnostics import CODES, Diagnostic, LintReport, Severity, make

# Importing the pass modules populates the registry.
from . import schema as _schema_pass            # noqa: F401
from . import transition as _transition_pass    # noqa: F401
from . import triggering as _triggering_pass    # noqa: F401
from . import hygiene as _hygiene_pass          # noqa: F401
from ..types import infer as _types_pass        # noqa: F401
from ..effects import conflicts as _effects_pass  # noqa: F401

__all__ = [
    "CODES",
    "Diagnostic",
    "LintContext",
    "LintReport",
    "LintRule",
    "Pass",
    "Severity",
    "all_passes",
    "get_pass",
    "lint_catalog",
    "lint_rule",
    "lint_script",
    "lint_statement",
    "make",
    "register_pass",
]


def _run_passes(context: LintContext, scope: Optional[str] = None,
                ) -> LintReport:
    report = LintReport()
    for lint_pass in all_passes(scope):
        report.extend(lint_pass.run(context))
    report.sort()
    return report


def lint_catalog(catalog: Any, database: Any, *,
                 closed_world: bool = False,
                 workload_writes: Iterable = ()) -> LintReport:
    """Analyze a live rule catalog against ``database``'s schemas.

    ``workload_writes`` optionally names ``(table, column-or-None)``
    pairs the external workload is known to write; with
    ``closed_world=True`` that set is treated as complete, enabling the
    dead-condition-read check (RPL304).
    """
    context = LintContext(
        database=database,
        rules=[LintRule.from_catalog_rule(rule) for rule in catalog.rules()],
        precedes=catalog.precedes,
        workload_writes=set(workload_writes),
        closed_world=closed_world,
    )
    return _run_passes(context)


def lint_rule(catalog: Any, database: Any, rule_name: str) -> LintReport:
    """Rule-scoped passes for one rule of a live catalog (the cheap
    subset run at definition time)."""
    context = LintContext(
        database=database,
        rules=[LintRule.from_catalog_rule(rule) for rule in catalog.rules()],
        precedes=catalog.precedes,
        only_rule=rule_name,
    )
    return _run_passes(context, scope="rule")


def lint_statement(statement: Any, database: Any,
                   catalog: Any = None) -> LintReport:
    """Analyze one parsed statement against a live database.

    ``create rule`` statements get the rule-scoped passes (with spans
    when the statement came from :func:`repro.sql.parse_statement`);
    operation blocks get schema resolution; other statements produce no
    findings.
    """
    rules: list[LintRule] = []
    if catalog is not None:
        rules.extend(
            LintRule.from_catalog_rule(rule) for rule in catalog.rules()
        )
    if isinstance(statement, ast.CreateRule):
        rules = [r for r in rules if r.name != statement.name]
        rules.append(LintRule.from_statement(statement, sequence=len(rules)))
        context = LintContext(
            database=database, rules=rules, only_rule=statement.name,
        )
        return _run_passes(context, scope="rule")
    if isinstance(statement, ast.OperationBlock):
        context = LintContext(
            database=database, rules=[],
            statements=[(statement, span_of(statement))],
        )
        return _run_passes(context, scope="rule")
    return LintReport()


_DEACTIVATE_PRAGMA = re.compile(
    r"^\s*--\s*lint:\s*deactivate\s+(\w+)\s*$", re.MULTILINE
)


def lint_script(source: str, *, database: Optional[Database] = None,
                ) -> LintReport:
    """Analyze a SQL script: DDL builds a scratch schema catalog, rules
    are collected with their source spans, DML populates the workload
    write set, and every pass runs closed-world.

    A ``-- lint: deactivate <rule>`` comment pragma marks a rule
    deactivated for the analysis (mirroring a runtime ``deactivate``),
    which is how script mode exercises RPL302.
    """
    statements = Parser(source).parse_script()
    scratch = database if database is not None else Database()

    rules: list[LintRule] = []
    defined_names: set[str] = set()
    pairings: list[tuple[str, str]] = []
    workload_writes: set[tuple[str, Optional[str]]] = set()
    other_statements: list[tuple[object, object]] = []
    extra: list[Diagnostic] = []

    for statement in statements:
        span = span_of(statement)
        if isinstance(statement, ast.CreateTable):
            try:
                scratch.create_table(
                    statement.name,
                    [(c.name, c.type_name) for c in statement.columns],
                )
            except Exception:
                pass  # duplicate table etc.: keep linting with first schema
        elif isinstance(statement, ast.DropTable):
            try:
                scratch.drop_table(statement.name)
            except Exception:
                pass
        elif isinstance(statement, ast.CreateRule):
            defined_names.add(statement.name)
            rules = [r for r in rules if r.name != statement.name]
            rules.append(
                LintRule.from_statement(statement, sequence=len(rules))
            )
        elif isinstance(statement, ast.DropRule):
            rules = [r for r in rules if r.name != statement.name]
            other_statements.append((statement, span))
        elif isinstance(statement, ast.CreateRulePriority):
            pairings.append((statement.higher, statement.lower))
            other_statements.append((statement, span))
        elif isinstance(statement, ast.OperationBlock):
            other_statements.append((statement, span))
            for operation in statement.operations:
                if isinstance(operation,
                              (ast.InsertValues, ast.InsertSelect)):
                    workload_writes.add((operation.table, None))
                elif isinstance(operation, ast.Update):
                    for assignment in operation.assignments:
                        workload_writes.add(
                            (operation.table, assignment.column)
                        )

    for match in _DEACTIVATE_PRAGMA.finditer(source):
        name = match.group(1)
        rule = next((r for r in rules if r.name == name), None)
        if rule is not None:
            rule.active = False
        elif name not in defined_names:
            extra.append(make(
                "RPL007",
                f"lint pragma deactivates unknown rule {name!r}",
                pass_name="pragma",
            ))

    context = LintContext(
        database=scratch,
        rules=rules,
        precedes=priority_precedes(pairings),
        workload_writes=workload_writes,
        closed_world=True,
        statements=other_statements,
        defined_names=defined_names,
    )
    report = _run_passes(context)
    report.extend(extra)
    report.sort()
    return report
