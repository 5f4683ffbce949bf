"""Program-hygiene checks: dead rules, shadowing, rollback cycles,
dead condition reads, dangling rule references.

* RPL301 (rule-scoped) — the rule's condition contains a conjunct that
  constant-folds to FALSE/NULL: the rule can never fire.
* RPL302 — a deactivated rule watches the same table(s) as an active
  rule: easy to forget it exists while the active rule changes behavior.
* RPL303 — a triggering cycle (on the refined graph) can reach a rule
  whose action is ROLLBACK: every iteration risks aborting the whole
  transaction.
* RPL304 — closed-world only: a rule's condition reads a base-table
  column that holds no data and that no rule action or workload
  statement ever writes; the read can only ever see an empty relation.
* RPL007 — a priority pairing or ``drop rule`` names a rule that does
  not exist in the program.
"""

from __future__ import annotations

from typing import Iterable

from ...core.rules import reaches
from ...sql import ast
from ...sql.spans import span_of
from .base import register_pass
from .context import LintContext
from .diagnostics import Diagnostic, make
from .refine import condition_provably_false
from .triggering import watched_tables

_RULE_PASS = "reachability"
_PROGRAM_PASS = "hygiene"


@register_pass(_RULE_PASS, scope="rule",
               description="detect rules whose condition is constant-false")
def run_rule_scoped(context: LintContext) -> Iterable[Diagnostic]:
    out: list[Diagnostic] = []
    for rule in context.rules:
        if condition_provably_false(rule.condition):
            out.append(make(
                "RPL301",
                f"rule {rule.name!r} is unreachable: its condition "
                "constant-folds to false",
                span=rule.span, rule=rule.name,
                hint="delete the rule or fix the contradictory condition",
                pass_name=_RULE_PASS,
            ))
    return out


@register_pass(_PROGRAM_PASS, scope="program",
               description="shadowing, rollback cycles, dead reads, "
                           "dangling references")
def run_program_scoped(context: LintContext) -> Iterable[Diagnostic]:
    out: list[Diagnostic] = []
    _check_deactivated_overlap(context, out)
    _check_rollback_cycles(context, out)
    _check_dead_reads(context, out)
    _check_rule_references(context, out)
    return out


# ---------------------------------------------------------------------------
# RPL302

def _check_deactivated_overlap(context: LintContext,
                               out: list[Diagnostic]) -> None:
    active = [rule for rule in context.rules if rule.active]
    for rule in context.rules:
        if rule.active:
            continue
        watched = watched_tables(rule)
        overlapping = sorted(
            other.name for other in active
            if not watched.isdisjoint(watched_tables(other))
        )
        if overlapping:
            names = ", ".join(repr(name) for name in overlapping)
            out.append(make(
                "RPL302",
                f"deactivated rule {rule.name!r} watches the same table(s) "
                f"as active rule(s) {names}; transitions it would handle "
                "are now processed differently",
                span=rule.span, rule=rule.name,
                hint="drop the rule if it is obsolete, or reactivate it",
                pass_name=_PROGRAM_PASS,
            ))


# ---------------------------------------------------------------------------
# RPL303

def _check_rollback_cycles(context: LintContext,
                           out: list[Diagnostic]) -> None:
    graph = context.triggering_graph()
    cyclic = {name for loop in graph.loops(refined=True) for name in loop}
    rollback_rules = sorted(
        rule.name for rule in context.rules
        if rule.active and rule.is_rollback
    )
    if not cyclic or not rollback_rules:
        return
    edges = graph.edges(refined=True)
    for start in sorted(cyclic):
        for target in rollback_rules:
            if not reaches(edges, start, target):
                continue
            rule = context.rule_named(start)
            out.append(make(
                "RPL303",
                f"triggering cycle through {start!r} can reach rollback "
                f"rule {target!r}: the loop may abort the whole "
                "transaction",
                span=rule.span if rule else None, rule=start,
                hint="order the rollback guard before the cascading rules "
                     "or tighten its condition",
                pass_name=_PROGRAM_PASS,
            ))


# ---------------------------------------------------------------------------
# RPL304

def _table_has_rows(context: LintContext, table: str) -> bool:
    try:
        storage = context.database.table(table)
    except Exception:
        return True  # unknown table: schema pass reports it; stay silent
    try:
        return len(storage) > 0
    except TypeError:
        return True


def _check_dead_reads(context: LintContext, out: list[Diagnostic]) -> None:
    if not context.closed_world:
        return
    active = [rule for rule in context.rules if rule.active]
    if any(rule.effects.opaque for rule in active):
        return  # an opaque action may write anything
    populated = {table for table, _ in context.workload_writes}
    for rule in active:
        populated.update(
            table for kind, table, _ in rule.effects.writes
            if kind != "deleted"
        )
    reported: set[tuple[str, str, str]] = set()
    for rule in active:
        for table, column, ref in rule.base_reads:
            key = (rule.name, table, column)
            if table in populated or key in reported \
                    or _table_has_rows(context, table):
                continue
            reported.add(key)
            out.append(make(
                "RPL304",
                f"condition of rule {rule.name!r} reads {table}.{column}, "
                f"but nothing in the program ever populates {table!r}: "
                "the subquery is always empty",
                span=span_of(ref) or rule.span, rule=rule.name,
                hint="seed the table, or remove the dead predicate",
                pass_name=_PROGRAM_PASS,
            ))


# ---------------------------------------------------------------------------
# RPL007

def _check_rule_references(context: LintContext,
                           out: list[Diagnostic]) -> None:
    known = {rule.name for rule in context.rules} | context.defined_names
    for statement, span in context.statements:
        if isinstance(statement, ast.CreateRulePriority):
            for name in (statement.higher, statement.lower):
                if name not in known:
                    out.append(make(
                        "RPL007",
                        f"priority pairing references unknown rule {name!r}",
                        span=span_of(statement) or span,
                        hint="define the rule before ordering it",
                        pass_name=_PROGRAM_PASS,
                    ))
        elif isinstance(statement, ast.DropRule):
            if statement.name not in known:
                out.append(make(
                    "RPL007",
                    f"drop rule references unknown rule {statement.name!r}",
                    span=span_of(statement) or span,
                    pass_name=_PROGRAM_PASS,
                ))
