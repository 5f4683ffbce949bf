"""Rule objects and the rule catalog (paper Sections 3 and 4.4).

A rule has three parts: a transition predicate (disjunction of basic
predicates), an optional SQL condition, and an action (operation block,
``rollback``, or — with the §5.2 extension — an external procedure).

Rules are related by user-defined priority pairings
(``create rule priority A before B``); any acyclic set of pairings
induces a partial order used during rule selection.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter

from ..errors import (
    DuplicateRuleError,
    InvalidRuleError,
    PriorityCycleError,
    UnknownRuleError,
)
from ..records import Record
from ..sql import ast, format_node
from .external import ExternalAction
from .transition_tables import validate_transition_references

_EMPTY_SET = frozenset()


#: Re-triggering baseline policies (paper §4.2, footnote 8). The paper's
#: primary semantics is "execution": a rule that has fired is evaluated
#: against the composite effect since its own last execution. Footnote 8
#: names two alternatives it suggests offering "as part of rule
#: definition": "consideration" (baseline moves every time the rule is
#: chosen for consideration, fired or not) and "triggering" (the [WF89b]
#: semantics: baseline is the state preceding the rule's most recent
#: transition from untriggered to triggered).
RESET_POLICIES = ("execution", "consideration", "triggering")


class Rule(Record, frozen=False):
    """One production rule.

    Attributes:
        name: unique rule name.
        predicates: tuple of :class:`repro.sql.ast.BasicTransitionPredicate`.
        condition: optional condition expression (None means ``if true``).
        action: :class:`~repro.sql.ast.OperationBlock`,
            :class:`~repro.sql.ast.RollbackAction`, or
            :class:`~repro.core.external.ExternalAction`.
        sequence: creation sequence number (deterministic tie-breaks).
        reset_policy: when this rule's transition-info baseline resets —
            one of :data:`RESET_POLICIES` (footnote 8).
    """

    name: str
    predicates: tuple
    condition: object
    action: object
    sequence: int = 0
    reset_policy: str = "execution"
    #: deactivated rules keep accumulating transition information but are
    #: never selected for consideration (engineering convenience — lets
    #: applications pause a rule without losing its definition)
    active: bool = True

    @property
    def is_rollback(self):
        return isinstance(self.action, ast.RollbackAction)

    @property
    def is_external(self):
        return isinstance(self.action, ExternalAction)

    def to_sql(self):
        """The rule rendered back to its ``create rule`` statement."""
        if self.is_external:
            definition = ast.CreateRule(
                self.name, self.predicates, self.condition,
                ast.RollbackAction(),
            )
            text = format_node(definition)
            return text.replace(
                "then rollback", f"then external {self.action.describe()}"
            )
        definition = ast.CreateRule(
            self.name, self.predicates, self.condition, self.action
        )
        return format_node(definition)

    def __repr__(self):
        return f"Rule({self.name!r})"


def reaches(pairings, start, goal):
    """Is ``goal`` reachable from ``start`` along ``(higher, lower)``
    pairings? (``start`` reaches itself.)"""
    adjacency = {}
    for higher, lower in pairings:
        adjacency.setdefault(higher, []).append(lower)
    stack = [start]
    seen = set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency.get(node, ()))
    return False


class RuleCatalog:
    """The set of defined rules plus their priority partial order."""

    def __init__(self):
        self._rules = {}
        self._pairings = set()  # (higher, lower) name pairs
        self._sequence = 0
        self._closure = None    # cached transitive closure of pairings
        #: bumped by every rule or pairing change; with the rules'
        #: ``active`` flags it keys the static analysis of this catalog
        self.version = 0
        #: the database of the engine that owns this catalog (None for
        #: a bare catalog), and the
        #: :class:`~repro.analysis.program.ProgramAnalysis` against it,
        #: built on first request (``repro.analysis.analysis_of``);
        #: ``repro.analysis.analyze(catalog)`` answers from it
        self.database = None
        self.analysis = None

    # ------------------------------------------------------------------
    # definition

    def create_rule(self, name, predicates, condition, action,
                    reset_policy="execution"):
        """Define a rule; validates name uniqueness and (for SQL actions
        and conditions) that transition-table references match the rule's
        basic transition predicates. ``reset_policy`` selects the
        footnote-8 re-triggering baseline (see :data:`RESET_POLICIES`).
        """
        if name in self._rules:
            raise DuplicateRuleError(f"rule {name!r} already exists")
        if not predicates:
            raise InvalidRuleError(
                f"rule {name!r} must declare at least one transition predicate"
            )
        if reset_policy not in RESET_POLICIES:
            raise InvalidRuleError(
                f"rule {name!r}: reset_policy must be one of "
                f"{RESET_POLICIES}, got {reset_policy!r}"
            )
        validate_transition_references(name, predicates, condition)
        if isinstance(action, ast.OperationBlock):
            validate_transition_references(name, predicates, action)
        elif not isinstance(action, (ast.RollbackAction, ExternalAction)):
            raise InvalidRuleError(
                f"rule {name!r}: unsupported action {type(action).__name__}"
            )
        self._sequence += 1
        rule = Rule(
            name, tuple(predicates), condition, action, self._sequence,
            reset_policy,
        )
        self._rules[name] = rule
        self.version += 1
        return rule

    def create_rule_from_ast(self, node, reset_policy="execution"):
        """Define a rule from a parsed ``create rule`` statement."""
        return self.create_rule(
            node.name, node.predicates, node.condition, node.action,
            reset_policy,
        )

    def drop_rule(self, name):
        if name not in self._rules:
            raise UnknownRuleError(f"rule {name!r} does not exist")
        del self._rules[name]
        self._pairings = {
            (higher, lower)
            for higher, lower in self._pairings
            if higher != name and lower != name
        }
        self._closure = None
        self.version += 1

    def rule(self, name):
        rule = self._rules.get(name)
        if rule is None:
            raise UnknownRuleError(f"rule {name!r} does not exist")
        return rule

    def has_rule(self, name):
        return name in self._rules

    def rules(self):
        """All rules in creation order (Figure 1's ``rules()``)."""
        return list(self._rules.values())

    def rule_names(self):
        return list(self._rules)

    def __len__(self):
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules.values())

    # ------------------------------------------------------------------
    # priorities (paper §4.4)

    def add_priority(self, higher, lower):
        """Record ``create rule priority higher before lower``.

        Raises:
            UnknownRuleError: if either rule is undefined.
            PriorityCycleError: if the pairing would create a cycle (the
                pairings must induce a partial order).
        """
        self.rule(higher)
        self.rule(lower)
        if higher == lower:
            raise PriorityCycleError(
                f"rule {higher!r} cannot have priority over itself"
            )
        candidate = self._pairings | {(higher, lower)}
        if reaches(candidate, lower, higher):
            raise PriorityCycleError(
                f"priority {higher!r} before {lower!r} would create a cycle"
            )
        self._pairings.add((higher, lower))
        self._closure = None
        self.version += 1

    def remove_priority(self, higher, lower):
        self._pairings.discard((higher, lower))
        self._closure = None
        self.version += 1

    def pairings(self):
        return set(self._pairings)

    def precedes(self, first, second):
        """True if ``first`` is strictly higher than ``second`` in the
        transitive closure of the priority pairings (cached; invalidated
        when pairings change)."""
        if self._closure is None:
            self._closure = self._compute_closure()
        return second in self._closure.get(first, _EMPTY_SET)

    def _compute_closure(self):
        """``{name: set of everything strictly below it}`` via DFS from
        each node with memoization (the pairing graph is acyclic)."""
        adjacency = {}
        for higher, lower in self._pairings:
            adjacency.setdefault(higher, []).append(lower)
        below = {}

        def descend(node):
            cached = below.get(node)
            if cached is not None:
                return cached
            result = set()
            for child in adjacency.get(node, ()):
                result.add(child)
                result |= descend(child)
            below[node] = result
            return result

        for node in adjacency:
            descend(node)
        return below

    def maximal_first_order(self, rules):
        """Order a set of rules by repeatedly taking priority-maximal
        elements (ties broken by creation order) — the §4.4 compromise:
        "a rule is chosen such that no other triggered rule is strictly
        higher in the ordering".

        Kahn's algorithm over the priority closure restricted to
        ``rules``: a rule is ready once no rule left in the set precedes
        it, and the ready rule created first goes next. (A global order
        restricted to the set is not the same: with "c before a", the
        catalog's order is b, c, a, but {a, b} must give a, b.)
        """
        ordered = sorted(rules, key=attrgetter("sequence"))
        if len(ordered) < 2 or not self._pairings:
            return ordered
        if self._closure is None:
            self._closure = self._compute_closure()
        closure = self._closure
        position = {rule.name: index for index, rule in enumerate(ordered)}
        blockers = [0] * len(ordered)
        for rule in ordered:
            for name in closure.get(rule.name, ()):
                if name in position:
                    blockers[position[name]] += 1
        ready = [index for index, count in enumerate(blockers) if not count]
        result = []
        while ready:
            rule = ordered[heappop(ready)]
            result.append(rule)
            for name in closure.get(rule.name, ()):
                if name in position:
                    index = position[name]
                    blockers[index] -= 1
                    if not blockers[index]:
                        heappush(ready, index)
        return result
