"""Triggering-graph findings on the condition-refined graph.

Runs the paper's §6 static analyses — potential infinite loops and
ordering conflicts — but over the :class:`~repro.analysis.lint.refine
.RefinedTriggeringGraph` instead of the purely syntactic graph:

* RPL201 — a cycle that survives refinement: the rules may genuinely
  trigger each other forever;
* RPL202 (info) — a cycle the syntactic graph contains but refinement
  discharged: the worst-case warning was a false alarm, and the note
  says which edge proofs discharged it;
* RPL203 — two mutually-triggerable, unordered rules whose actions
  interfere (the classic confluence warning), skipped when either
  rule's condition is constant-false.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...sql.spans import Span
from ..conflicts import actions_interfere, predicates_overlap
from ..graph import strongly_connected_components
from .base import register_pass
from .context import LintContext, LintRule
from .diagnostics import Diagnostic, make
from .refine import RefinedTriggeringGraph, condition_provably_false

_PASS = "triggering"


def _loops(names: list[str], successors: dict[str, list[str]],
           ) -> set[tuple[str, ...]]:
    """Cyclic components of a graph, as sorted rule-name tuples."""
    found: set[tuple[str, ...]] = set()
    for component in strongly_connected_components(names, successors):
        if len(component) > 1:
            found.add(tuple(sorted(component)))
        else:
            name = component[0]
            if name in successors.get(name, ()):
                found.add((name,))
    return found


def _chain(loop: tuple[str, ...]) -> str:
    return " -> ".join(loop) + f" -> {loop[0]}"


def _anchor(context: LintContext, loop: tuple[str, ...]) -> Optional[Span]:
    """Span to attach a loop finding to: the first member with one."""
    for name in loop:
        rule = context.rule_named(name)
        if rule is not None and rule.span is not None:
            return rule.span
    return None


@register_pass(_PASS, scope="program",
               description="loops and conflicts on the refined graph")
def run(context: LintContext) -> Iterable[Diagnostic]:
    out: list[Diagnostic] = []
    active = [rule for rule in context.rules if rule.active]
    if not active:
        return out

    graph = RefinedTriggeringGraph(active, schema_lookup=context.schema)
    names = [rule.name for rule in active]
    base_loops = _loops(names, graph.base_successors)
    refined_loops = _loops(names, graph.successors)

    for loop in sorted(refined_loops):
        assumed = any(
            context.rule_named(name) is not None
            and context.rule_named(name).is_external
            for name in loop
        )
        message = (
            f"rule {loop[0]!r} may trigger itself indefinitely"
            if len(loop) == 1
            else f"rules may trigger each other indefinitely: {_chain(loop)}"
        )
        if assumed:
            message += " (assumed: an opaque external action participates)"
        out.append(make(
            "RPL201", message, span=_anchor(context, loop), rule=loop[0],
            hint="break the cycle with a terminating condition or a "
                 "priority ordering",
            pass_name=_PASS,
        ))

    for loop in sorted(base_loops - refined_loops):
        proofs = [
            edge for edge in graph.pruned
            if edge.provider in loop and edge.consumer in loop
        ]
        detail = "; ".join(edge.describe() for edge in proofs) \
            or "condition refinement pruned its edges"
        message = (
            f"syntactic loop {_chain(loop)} is discharged by condition "
            f"refinement: {detail}"
        )
        out.append(make(
            "RPL202", message, span=_anchor(context, loop), rule=loop[0],
            pass_name=_PASS,
        ))

    out.extend(_conflicts(context, active))
    return out


def _conflicts(context: LintContext,
               active: list[LintRule]) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for i, first in enumerate(active):
        if condition_provably_false(first.condition):
            continue
        for second in active[i + 1:]:
            if condition_provably_false(second.condition):
                continue
            if not predicates_overlap(first, second):
                continue
            if context.precedes(first.name, second.name) \
                    or context.precedes(second.name, first.name):
                continue
            tables = actions_interfere(first, second)
            if not tables:
                continue
            listed = ", ".join(sorted(tables))
            out.append(make(
                "RPL203",
                f"rules {first.name!r} and {second.name!r} may trigger on "
                f"the same transition, are unordered, and both touch "
                f"{{{listed}}}; firing order may affect the final state",
                span=first.span or second.span,
                rule=first.name,
                hint="add 'create rule priority ... before ...' to order "
                     "the pair",
                pass_name=_PASS,
            ))
    return out
