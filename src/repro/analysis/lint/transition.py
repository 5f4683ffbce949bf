"""Transition-table discipline (paper §3's syntactic restriction).

A rule's condition and action may only reference transition tables that
correspond to its own basic transition predicates. The engine enforces
this at ``create rule`` time by raising; the analyzer reports the same
defects — plus predicate/schema mismatches the engine does not check —
as diagnostics with source positions:

* RPL101 — a reference like ``inserted t`` with no matching predicate
  for that operation kind and table at all;
* RPL102 — the kind and table match a predicate, but the column
  narrowing differs (``old updated t.c`` vs a predicate on ``t.d`` or
  on whole-table ``t``);
* RPL103 — a basic transition predicate narrows to a column the table's
  schema does not have (the predicate can never hold).
"""

from __future__ import annotations

from typing import Iterable

from ...sql import ast
from ...sql.spans import span_of
from .base import register_pass
from .context import LintContext, LintRule, describe_transition
from .diagnostics import Diagnostic, make

_PASS = "transition"


@register_pass(_PASS, scope="rule",
               description="check transition-table discipline")
def run(context: LintContext) -> Iterable[Diagnostic]:
    out: list[Diagnostic] = []
    for rule in context.rules:
        _check_predicates(context, rule, out)
        _check_references(context, rule, out)
    return out


def _check_predicates(context: LintContext, rule: LintRule,
                      out: list[Diagnostic]) -> None:
    for predicate in rule.predicates:
        span = span_of(predicate) or rule.span
        schema = context.schema(predicate.table)
        if schema is None:
            out.append(make(
                "RPL001",
                f"transition predicate {describe_transition(predicate)!r} "
                f"names unknown table {predicate.table!r}",
                span=span, rule=rule.name, pass_name=_PASS,
            ))
        elif predicate.column is not None and not schema.has_column(
            predicate.column
        ):
            out.append(make(
                "RPL103",
                f"transition predicate {describe_transition(predicate)!r} "
                f"narrows to column {predicate.column!r}, which table "
                f"{predicate.table!r} does not have",
                span=span, rule=rule.name,
                hint="the predicate can never hold; fix the column name",
                pass_name=_PASS,
            ))


def _check_references(context: LintContext, rule: LintRule,
                      out: list[Diagnostic]) -> None:
    declared = {
        (predicate.kind, predicate.table, predicate.column)
        for predicate in rule.predicates
    }
    kinds_by_table = {
        (predicate.kind, predicate.table)
        for predicate in rule.predicates
    }
    for node in (rule.condition, rule.action):
        if node is None or isinstance(node, ast.RollbackAction):
            continue
        if not isinstance(node, (ast.OperationBlock, ast.Expression)):
            continue
        for reference in ast.transition_table_refs(node):
            wanted_kind = ast.KIND_TO_PREDICATE[reference.kind]
            if (wanted_kind, reference.table, reference.column) in declared:
                continue
            span = span_of(reference) or rule.span
            if (wanted_kind, reference.table) in kinds_by_table:
                covering = ", ".join(sorted(
                    repr(describe_transition(p)) for p in rule.predicates
                    if p.kind is wanted_kind and p.table == reference.table
                ))
                out.append(make(
                    "RPL102",
                    f"reference {describe_transition(reference)!r} does not "
                    f"match the column narrowing of the rule's predicate(s) "
                    f"{covering}",
                    span=span, rule=rule.name,
                    hint="use the same column narrowing in the predicate "
                         "and the reference",
                    pass_name=_PASS,
                ))
            else:
                out.append(make(
                    "RPL101",
                    f"reference {describe_transition(reference)!r} has no "
                    "corresponding basic transition predicate",
                    span=span, rule=rule.name,
                    hint=f"add '{wanted_kind.value} {reference.table}' to "
                         "the rule's triggering predicates",
                    pass_name=_PASS,
                ))
