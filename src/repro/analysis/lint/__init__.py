"""Multi-pass semantic analyzer ("lint") for rule programs.

Entry points:

* :func:`lint_catalog` — analyze a live rule catalog against a live
  database (what ``ActiveDatabase.lint()`` calls): a view of the
  catalog's :class:`~repro.analysis.program.ProgramAnalysis`;
* :func:`lint_script` — analyze a SQL script end-to-end with source
  positions on every finding (what ``python -m repro.lint`` runs).

Every rule is first walked once (:mod:`repro.analysis.types.infer`);
the ``schema`` and ``types`` passes hand out what that walk found, the
other passes live in sibling modules and self-register on import; see
:mod:`repro.analysis.lint.base`.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional

from ...relational.database import Database
from ...sql import ast
from ...sql.parser import Parser
from ...sql.spans import span_of
from ..types.infer import RuleWalk, walk_rule
from .base import Pass, all_passes, get_pass, register_pass, run_passes
from .context import LintContext, LintRule, priority_precedes
from .diagnostics import CODES, Diagnostic, LintReport, Severity, make

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
    "lint_script",
    "make",
    "register_pass",
]


def _walk_findings(name: str, description: str) -> None:
    """Register the pass handing out the walk's ``name``-tagged
    findings, rule by rule and then for the workload statements."""

    @register_pass(name, scope="rule", description=description)
    def run(context: LintContext) -> Iterable[Diagnostic]:
        return [
            diagnostic
            for found in (
                *(rule.diagnostics for rule in context.rules),
                context.statement_diagnostics,
            )
            for diagnostic in found if diagnostic.pass_name == name
        ]


# Registration order is the order findings are produced in; importing
# the pass modules populates the registry.
_walk_findings("schema", "resolve names, types and arities")
from . import transition as _transition_pass    # noqa: E402,F401
from . import triggering as _triggering_pass    # noqa: E402,F401
from . import hygiene as _hygiene_pass          # noqa: E402,F401
_walk_findings("types", "typed expression inference")
from ..effects import conflicts as _effects_pass  # noqa: E402,F401


def lint_catalog(catalog: Any, database: Any, *,
                 closed_world: bool = False,
                 workload_writes: Iterable = ()) -> LintReport:
    """Analyze a live rule catalog against ``database``'s schemas.

    ``workload_writes`` optionally names ``(table, column-or-None)``
    pairs the external workload is known to write; with
    ``closed_world=True`` that set is treated as complete, enabling the
    dead-condition-read check (RPL304).
    """
    from ..program import analysis_of

    return analysis_of(catalog, database).lint(
        closed_world=closed_world, workload_writes=workload_writes,
    )


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
            rules.append(LintRule.from_statement(statement))
        elif isinstance(statement, ast.DropRule):
            rules = [r for r in rules if r.name != statement.name]
            other_statements.append((statement, span))
        elif isinstance(statement, ast.CreateRulePriority):
            pairings.append((statement.higher, statement.lower))
            other_statements.append((statement, span))
        elif isinstance(statement, ast.OperationBlock):
            other_statements.append((statement, span))

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

    for rule in rules:
        walk_rule(rule, scratch)
    workload = RuleWalk(scratch, None)
    for statement, _span in other_statements:
        if isinstance(statement, ast.OperationBlock):
            for operation in statement.operations:
                workload.operation(operation)

    report = run_passes(LintContext(
        database=scratch,
        rules=rules,
        precedes=priority_precedes(pairings),
        workload_writes={
            (table, None) for kind, table, _ in workload.writes
            if kind != "deleted"
        },
        closed_world=True,
        statements=other_statements,
        defined_names=defined_names,
        statement_diagnostics=workload.diagnostics,
    ))
    report.extend(extra)
    report.sort()
    return report
