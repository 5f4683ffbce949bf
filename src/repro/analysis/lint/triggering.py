"""The triggering graph, and its findings (paper §6).

The triggering graph has one node per rule and an edge R1 → R2 whenever
execution of R1's action *may* produce a transition effect satisfying
one of R2's basic transition predicates. That *syntactic* edge is
conservative: an update's WHERE clause might select nothing at run
time, but the edge is drawn anyway; rules with external (Python)
actions are opaque — they may perform any operation, so they get edges
to every rule. :class:`TriggeringGraph` holds those edges, the subset
that survives condition-aware refinement (:mod:`.refine`) and the proof
of every edge refinement removed; :func:`cycles` and
:func:`unordered_pairs` are the two searches every loop and conflict
finding is a view of.

The pass reports:

* RPL201 — a cycle among rules refinement cannot rule out
  (:meth:`TriggeringGraph.recurrent`): the rules may genuinely trigger
  each other forever;
* RPL202 (info) — a cycle the syntactic graph contains but refinement
  discharged: the worst-case warning was a false alarm, and the note
  quotes the proofs of the pruned edges inside it;
* RPL203 — two mutually-triggerable, unordered rules whose actions
  interfere (the classic confluence warning), skipped when either
  rule's condition is constant-false.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ...records import Record
from ...sql.spans import Span
from ..effects.sets import RuleEffects, SchemaLookup, writes_can_populate
from .base import register_pass
from .context import LintContext, LintRule
from .diagnostics import Diagnostic, make
from .refine import (
    condition_provably_false,
    edge_realizable,
    required_views,
)

_PASS = "triggering"


class PrunedEdge(Record):
    """One syntactic edge the refinement proved dead."""

    provider: str
    consumer: str
    reason: str

    def describe(self) -> str:
        return f"{self.provider} -> {self.consumer}: {self.reason}"


def cycles(names: Iterable[str],
           successors: dict[str, list[str]]) -> list[tuple[str, ...]]:
    """The cyclic strongly connected components of a graph — multi-node
    components plus single nodes with a self-edge — each as a sorted
    name tuple, in Tarjan's (reverse topological) order."""
    counter = [0]
    stack: list[str] = []
    lowlink: dict[str, int] = {}
    index: dict[str, int] = {}
    on_stack: set[str] = set()
    found: list[tuple[str, ...]] = []

    def strongconnect(node: str) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for successor in successors.get(node, ()):
            if successor not in index:
                strongconnect(successor)
                lowlink[node] = min(lowlink[node], lowlink[successor])
            elif successor in on_stack:
                lowlink[node] = min(lowlink[node], index[successor])
        if lowlink[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1 or node in successors.get(node, ()):
                found.append(tuple(sorted(component)))

    for node in names:
        if node not in index:
            strongconnect(node)
    return found


def watched_tables(rule: LintRule) -> set[str]:
    """The tables a rule's basic transition predicates watch."""
    return {predicate.table for predicate in rule.predicates}


def unordered_pairs(rules: Sequence[LintRule],
                    precedes: Callable[[str, str], bool],
                    co_triggered: bool,
                    ) -> Iterator[tuple[LintRule, LintRule]]:
    """The rule pairs no priority pairing orders — the selection
    strategy's tie-break, not the programmer, decides who goes first —
    that a single transition can (``co_triggered``: their predicates
    watch a common table; a block may mix operations, so any same-table
    pair overlaps) or cannot trigger both."""
    watched = {rule.name: watched_tables(rule) for rule in rules}
    for first, second in combinations(rules, 2):
        overlap = not watched[first.name].isdisjoint(watched[second.name])
        if overlap is co_triggered and not (
            precedes(first.name, second.name)
            or precedes(second.name, first.name)
        ):
            yield first, second


def interference(first: LintRule, second: LintRule) -> set[str]:
    """The tables two rules interfere on: one writes what the other
    scans, writes or watches — a write to a watched table can trigger
    the other rule again, or *un*-trigger it (an insert it was
    triggered by, deleted, nets to nothing), which makes their order
    visible even when no query reads the table — so firing order can
    change the final state (``{"<any>"}`` when an opaque action may
    touch anything)."""
    if first.effects.opaque or second.effects.opaque:
        return {"<any>"}

    def one_way(writer: RuleEffects, other: LintRule) -> set[str]:
        theirs = other.effects
        return (writer.written_tables() & (
            theirs.scans | theirs.written_tables() | watched_tables(other)
        )) | {
            predicate.table for predicate in other.predicates
            if predicate.table in writer.selected
            and writer.can_satisfy(predicate)
        }

    return one_way(first.effects, second) | one_way(second.effects, first)


class TriggeringGraph:
    """The rule triggering graph over a program's walked rules.

    Edges are computed for every rule pair once; :meth:`successors`,
    :meth:`edges` and the other queries answer for the rules *active*
    at the time of the call (see the module docstring).
    """

    def __init__(self, rules: Sequence[LintRule],
                 schema_lookup: SchemaLookup = lambda table: None) -> None:
        self.rules = list(rules)
        by_name = {rule.name: rule for rule in self.rules}
        watchers: dict[str, set[str]] = {}
        for rule in self.rules:
            for predicate in rule.predicates:
                watchers.setdefault(predicate.table, set()).add(rule.name)
        self._syntactic: dict[str, list[str]] = {}
        self._refined: dict[str, list[str]] = {}
        #: every edge the refinement removed, with its proof
        self.pruned: list[PrunedEdge] = []
        for provider in self.rules:
            effects = provider.effects
            touched: set[str] = set(by_name) if effects.opaque else set()
            for table in effects.written_tables() | effects.selected:
                touched |= watchers.get(table, set())
            base = [
                rule.name for rule in self.rules
                if rule.name in touched and any(
                    effects.can_satisfy(predicate)
                    for predicate in rule.predicates
                )
            ]
            self._syntactic[provider.name] = base
            kept = []
            for name in base:
                realizable, reason = edge_realizable(
                    provider, by_name[name], schema_lookup
                )
                if realizable:
                    kept.append(name)
                else:
                    self.pruned.append(
                        PrunedEdge(provider.name, name, reason or "")
                    )
            self._refined[provider.name] = kept
        #: the pruned ``(provider, consumer)`` pairs (:meth:`recurrent`
        #: looks them up)
        self.pruned_pairs = frozenset(
            (edge.provider, edge.consumer) for edge in self.pruned
        )

    def active_names(self) -> list[str]:
        return [rule.name for rule in self.rules if rule.active]

    def successors(self, refined: bool = False) -> dict[str, list[str]]:
        """``{provider: [consumers]}`` among the active rules — the
        syntactic edges, or only those that survive refinement."""
        edges = self._refined if refined else self._syntactic
        active = set(self.active_names())
        return {
            name: [c for c in edges[name] if c in active]
            for name in edges if name in active
        }

    def edges(self, refined: bool = False) -> list[tuple[str, str]]:
        return [
            (provider, consumer)
            for provider, consumers in self.successors(refined).items()
            for consumer in consumers
        ]

    def has_edge(self, provider: str, consumer: str,
                 refined: bool = False) -> bool:
        return consumer in self.successors(refined).get(provider, ())

    def loops(self, refined: bool = False) -> list[tuple[str, ...]]:
        """Potential infinite loops: the triggering cycles (a self-edge
        being the 1-cycle case the paper's §4.1 discusses) — all of
        them, or (``refined``) those among the rules that
        :meth:`recurrent` cannot rule out."""
        names = self.active_names()
        if refined:
            recurrent = self.recurrent()
            names = [name for name in names if name in recurrent]
        keep = set(names)
        return cycles(names, {
            name: [c for c in consumers if c in keep]
            for name, consumers in self.successors().items()
        })

    def recurrent(self) -> set[str]:
        """The active rules that may fire without bound in one
        transaction: the greatest set S in which every rule R keeps
        being triggered (a syntactic edge from S) and keeps a
        satisfiable condition — not constant-false, and every
        transition table it requires a row from populated by some rule
        of S (a pruned edge only says *one* provider cannot, alone).
        From some point on a diverging run consists of transitions of
        such rules only, so an empty set proves quiescence; a rule
        outside S fires at most once more than all the rules removed
        before it together (≤ 2ⁿ − 1 firings for n rules). A rule whose
        only trigger in S is itself, and whose self-edge is pruned, is
        out when nothing else in S writes the tables it watches: its
        trans-info is then its own last transition, alone."""
        by_name = {rule.name: rule for rule in self.rules}
        providers: dict[str, list[str]] = {name: [] for name in by_name}
        for provider, consumers in self._syntactic.items():
            for consumer in consumers:
                providers[consumer].append(provider)
        members = set(self.active_names())

        def may_recur(rule: LintRule) -> bool:
            name = rule.name
            triggers = [p for p in providers[name] if p in members]
            if not triggers or condition_provably_false(rule.condition):
                return False
            if not all(
                any(writes_can_populate(by_name[m].effects.writes, view)
                    for m in members)
                for view in required_views(rule.condition)
            ):
                return False
            if triggers != [name] or (name, name) not in self.pruned_pairs:
                return True
            return any(
                by_name[m].effects.opaque
                or not watched_tables(rule).isdisjoint(
                    by_name[m].effects.written_tables()
                ) for m in members if m != name
            )

        while True:
            out = {n for n in members if not may_recur(by_name[n])}
            if not out:
                return members
            members -= out

    def common_provider(self, first: str, second: str) -> Optional[str]:
        """An active rule whose single firing can trigger both
        (cascade siblings), or None."""
        for rule in self.rules:
            consumers = self._syntactic[rule.name]
            if rule.active and rule.name not in (first, second) \
                    and first in consumers and second in consumers:
                return rule.name
        return None

    def to_dot(self) -> str:
        """Graphviz rendering of the syntactic graph (documentation)."""
        lines = ["digraph triggering {"]
        lines.extend(f'  "{rule.name}";' for rule in self.rules)
        lines.extend(
            f'  "{provider}" -> "{consumer}";'
            for provider, consumer in self.edges()
        )
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the pass

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
    graph = context.triggering_graph()
    refined_loops = set(graph.loops(refined=True))

    for loop in sorted(refined_loops):
        message = (
            f"rule {loop[0]!r} may trigger itself indefinitely"
            if len(loop) == 1
            else f"rules may trigger each other indefinitely: {_chain(loop)}"
        )
        if any(context.rule_named(name).is_external for name in loop):
            message += " (assumed: an opaque external action participates)"
        out.append(make(
            "RPL201", message, span=_anchor(context, loop), rule=loop[0],
            hint="break the cycle with a terminating condition or a "
                 "priority ordering",
            pass_name=_PASS,
        ))

    for loop in sorted(set(graph.loops()) - refined_loops):
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

    live = [
        rule for rule in context.rules
        if rule.active and not condition_provably_false(rule.condition)
    ]
    for first, second in unordered_pairs(
        live, context.precedes, co_triggered=True
    ):
        tables = interference(first, second)
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
