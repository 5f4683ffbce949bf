"""Maintainability classification for rule conditions.

A condition is *incrementally maintainable* when it splits (on top-level
``AND``) into conjuncts the engine can evaluate without re-running the
full condition query per consideration:

* ``[not] exists (select * from <base table> [where P])`` where ``P``
  compiles against the table's own layout with no interpreter fallback
  (:attr:`~repro.relational.compiled.BatchProgram.needs_scope` is
  False — no subqueries, no aggregates, no outer-scope references).
  These become :class:`CounterConjunct`\\ s backed by a shared
  :class:`~repro.core.incremental.views.MaintainedView` support counter:
  ``exists`` is just ``count > 0``, and the count moves by the net
  ``[I, D, U]`` deltas of each transition.
* ``[not] exists (select ... from <transition table(s)> ...)`` — a
  :class:`DeltaConjunct`. Transition tables are *already* O(delta): the
  resolver serves them straight from the rule's trans-info, so the
  conjunct is delegated verbatim to the stock evaluator per
  consideration. Delegation keeps value *and error* parity trivially.

Anything else — disjunctions, aggregates, scalar subqueries, joins,
``group by``/``having``/``limit``/``distinct``/``union`` — makes the
whole condition unmaintainable: the engine falls back to full
re-evaluation, which stays the semantic oracle (docs/semantics.md §12).

The conjunct order of the original ``AND`` chain is preserved because
the interpreter short-circuits conjunctions on the first False operand
(``Evaluator._eval_binary``); incremental evaluation must stop at the
same conjunct to raise — or not raise — exactly where full evaluation
would.
"""

from __future__ import annotations

from typing import Optional

from ...records import Record
from ...relational.compiled import compile_batch_predicate, layout_of
from ...sql import ast


class CounterConjunct(Record):
    """``[not] exists`` over a base table, maintained as a support count."""

    table: str
    binding: str
    where: Optional[ast.Expression]
    negated: bool

    @property
    def view_key(self):
        """Views are shared across rules by (table, binding, predicate
        structure) — AST nodes are frozen records, so structurally
        equal WHERE clauses land on the same maintained counter."""
        return (self.table, self.binding, self.where)


class DeltaConjunct(Record):
    """A conjunct over transition tables, delegated to the evaluator
    per consideration (inherently O(delta))."""

    node: ast.Expression


class MaintenancePlan(Record):
    """One rule's classified condition: conjuncts in evaluation order."""

    conjuncts: tuple


def _unwrap_negations(node):
    """Strip ``not`` wrappers; returns (inner node, negation parity).

    Safe for exists-shaped conjuncts only: ``EXISTS`` never evaluates to
    UNKNOWN, so Kleene NOT degenerates to plain boolean negation.
    """
    negated = False
    while isinstance(node, ast.UnaryOp) and node.op == "not":
        negated = not negated
        node = node.operand
    return node, negated


def _select_is_simple(select):
    """The subset of SELECT whose result-set *emptiness* we can reason
    about row-by-row."""
    return (
        select.union is None
        and not select.distinct
        and not select.group_by
        and select.having is None
        and not select.order_by
        and select.limit is None
    )


def _items_are_star(select, binding):
    if len(select.items) != 1:
        return False
    item = select.items[0]
    if not isinstance(item, ast.Star):
        return False
    return item.qualifier is None or item.qualifier == binding


def classify_conjunct(conjunct, database):
    """One conjunct's classification, or None when unmaintainable."""
    node, negated = _unwrap_negations(conjunct)
    if not isinstance(node, ast.Exists):
        return None
    negated ^= node.negated
    select = node.select
    if len(select.tables) >= 1 and all(
        isinstance(ref, ast.TransitionTableRef) for ref in select.tables
    ):
        # Transition tables resolve from the rule's trans-info — already
        # proportional to the delta. Delegate the *original* conjunct
        # (negation wrappers included) so value and error behaviour are
        # the interpreter's own.
        return DeltaConjunct(node=conjunct)
    if len(select.tables) != 1:
        return None
    ref = select.tables[0]
    if not isinstance(ref, ast.BaseTableRef):
        return None
    if not _select_is_simple(select):
        return None
    binding = ref.binding_name
    if not _items_are_star(select, binding):
        return None
    if not database.catalog.has_table(ref.table):
        return None
    where = select.where
    if where is not None:
        columns = database.schema(ref.table).column_names
        layout = layout_of([(binding, columns)])
        # Compilation doubles as the static analysis: subqueries,
        # aggregates and outer-scope column references all lower to
        # interpreter-fallback kernels, which report needs_scope.
        if compile_batch_predicate(where, layout).needs_scope:
            return None
    return CounterConjunct(
        table=ref.table, binding=binding, where=where, negated=negated
    )


def classify_condition(condition, database):
    """A :class:`MaintenancePlan` for ``condition``, or None when any
    conjunct is unmaintainable (the whole condition then falls back to
    full re-evaluation — mixing paths inside one condition would change
    where evaluation errors surface)."""
    conjuncts = []
    for conjunct in ast.conjuncts(condition):
        classified = classify_conjunct(conjunct, database)
        if classified is None:
            return None
        conjuncts.append(classified)
    return MaintenancePlan(conjuncts=tuple(conjuncts))
