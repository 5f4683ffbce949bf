"""Condition-aware refinement of the triggering graph.

The syntactic triggering graph (:mod:`.triggering`) draws an edge
R1 → R2 whenever R1's action *may* produce an effect matching one of
R2's basic transition predicates. That is sound but coarse: it reports a
"potential loop" for every cycle even when R2's condition can never be
true after R1's action.

This module prunes edges it can *prove* dead, in the style of
Baralis & Widom's condition-based triggering analysis:

* **constant-folded contradictions** — R2's condition contains a
  conjunct that folds to FALSE (or NULL) under three-valued logic with
  no assumptions at all;
* **self-disactivating updates** — R1's action assigns constants (e.g.
  ``update t set c = 0``) and substituting those constants into R2's
  condition conjuncts over the matching transition table
  (``exists (select * from new updated t.c where c > 0)``) folds the
  condition to FALSE;
* **constant inserts** — R1 inserts literal rows and every inserted row
  refutes R2's condition over ``inserted t`` (unlisted columns insert
  NULL, exactly as the evaluator does);
* **unpopulatable transition views** (effect-based, PR 10) — R2's
  condition requires, as a top-level conjunct, a non-negated
  ``exists (select ... from <one transition table>)`` whose transition
  view *no write effect of R1's action can populate* (e.g. the conjunct
  selects from ``deleted u`` but R1 only inserts; or from
  ``new updated t.c`` but R1's updates never assign ``c`` — the
  engine's ``updated t.c`` views contain only handles whose column
  ``c`` was assigned). When R1's firing alone produced the transition,
  that view is empty, the exists is false, and the conjunction cannot
  hold — independent of any predicate folding.

Soundness: an edge is removed only when **every** operation of R1 that
could match R2's predicates provably yields an unsatisfiable condition.
Anything statically unknown — expressions, subqueries, external actions,
old-value references — keeps the edge. Refinement never adds edges, so
every execution the refined graph omits is an execution that cannot
happen.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...records import Record
from ...relational.expressions import contains_aggregate
from ...sql import ast
from ..effects.sets import SchemaLookup, writes_can_populate
from .context import LintRule, describe_transition

#: Sentinel for "not statically known" — distinct from SQL NULL (None).
UNKNOWN = object()


# ---------------------------------------------------------------------------
# three-valued constant folding

def constant_fold(expr: object,
                  resolve: Optional[Callable[[ast.ColumnRef], object]] = None,
                  ) -> object:
    """Fold ``expr`` to True/False/None (SQL NULL) or :data:`UNKNOWN`.

    ``resolve`` maps column references to known constants (UNKNOWN when
    it cannot). Comparisons follow SQL three-valued logic: NULL operands
    yield NULL; AND/OR are Kleene connectives, with UNKNOWN absorbing
    whenever the result genuinely depends on the unknown operand.
    """
    if expr is None:
        return True
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return resolve(expr) if resolve is not None else UNKNOWN
    if isinstance(expr, ast.UnaryOp):
        operand = constant_fold(expr.operand, resolve)
        if expr.op == "not":
            if operand is UNKNOWN:
                return UNKNOWN
            if operand is None:
                return None
            return not operand
        if operand is UNKNOWN or operand is None:
            return operand
        try:
            return -operand if expr.op == "-" else +operand
        except TypeError:
            return UNKNOWN
    if isinstance(expr, ast.BinaryOp):
        return _fold_binary(expr, resolve)
    if isinstance(expr, ast.IsNull):
        operand = constant_fold(expr.operand, resolve)
        if operand is UNKNOWN:
            return UNKNOWN
        is_null = operand is None
        return not is_null if expr.negated else is_null
    if isinstance(expr, ast.Between):
        operand = constant_fold(expr.operand, resolve)
        low = constant_fold(expr.low, resolve)
        high = constant_fold(expr.high, resolve)
        if UNKNOWN in (operand, low, high):
            return UNKNOWN
        if None in (operand, low, high):
            return None
        try:
            result = low <= operand <= high
        except TypeError:
            return UNKNOWN
        return (not result) if expr.negated else result
    if isinstance(expr, ast.InList):
        operand = constant_fold(expr.operand, resolve)
        if operand is UNKNOWN:
            return UNKNOWN
        if operand is None:
            return None
        saw_null = False
        saw_unknown = False
        for item in expr.items:
            value = constant_fold(item, resolve)
            if value is UNKNOWN:
                saw_unknown = True
            elif value is None:
                saw_null = True
            elif value == operand:
                return not expr.negated
        if saw_unknown:
            return UNKNOWN
        result = None if saw_null else False
        if expr.negated:
            return None if result is None else not result
        return result
    return UNKNOWN


def _fold_binary(expr: ast.BinaryOp,
                 resolve: Optional[Callable[[ast.ColumnRef], object]],
                 ) -> object:
    op = expr.op
    if op == "and":
        left = constant_fold(expr.left, resolve)
        right = constant_fold(expr.right, resolve)
        if left is False or right is False:
            return False
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        if left is None or right is None:
            return None
        return True
    if op == "or":
        left = constant_fold(expr.left, resolve)
        right = constant_fold(expr.right, resolve)
        if left is True or right is True:
            return True
        if left is UNKNOWN or right is UNKNOWN:
            return UNKNOWN
        if left is None or right is None:
            return None
        return False

    left = constant_fold(expr.left, resolve)
    right = constant_fold(expr.right, resolve)
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    if left is None or right is None:
        return None
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right if right != 0 else None
        if op == "%":
            return left % right if right != 0 else None
        if op == "||":
            return str(left) + str(right)
    except TypeError:
        return UNKNOWN
    return UNKNOWN


def provably_false(value: object) -> bool:
    """Is a folded condition value one a rule condition cannot pass?

    SQL conditions select on TRUE only, so both FALSE and NULL refute.
    """
    return value is False or value is None


def condition_provably_false(condition: object) -> bool:
    """Does the condition fold to FALSE/NULL with no assumptions at all?"""
    if condition is None:
        return False
    return any(
        provably_false(constant_fold(conjunct))
        for conjunct in ast.conjuncts(condition)
    )


# ---------------------------------------------------------------------------
# constant-effect scenarios

class _Scenario(Record):
    """One way a provider operation can populate a transition table:
    a column → constant binding (values may be :data:`UNKNOWN`)."""

    values: tuple  # of (column, value) pairs; hashability not needed

    def get(self, column: str) -> object:
        for name, value in self.values:
            if name == column:
                return value
        return UNKNOWN


def _update_scenarios(action: ast.OperationBlock, table: str,
                      column: Optional[str]) -> Optional[list[_Scenario]]:
    """Scenarios for ``new updated table[.column]`` produced by the
    provider's updates. None when some matching update is too dynamic
    to bound (e.g. assigns an expression we cannot fold)."""
    scenarios = []
    for operation in action.operations:
        if not isinstance(operation, ast.Update):
            continue
        if operation.table != table:
            continue
        assigned = {a.column for a in operation.assignments}
        if column is not None and column not in assigned:
            continue  # does not match the narrowed predicate
        pairs = []
        for assignment in operation.assignments:
            value = constant_fold(assignment.expression)
            pairs.append((assignment.column, value))
        # Columns the update does not assign keep their old (statically
        # unknown) values — _Scenario.get already defaults to UNKNOWN.
        scenarios.append(_Scenario(tuple(pairs)))
    return scenarios


def _insert_scenarios(action: ast.OperationBlock, table: str,
                      schema: object) -> Optional[list[_Scenario]]:
    """Scenarios for ``inserted table``: one per literal inserted row.
    None when an insert-select matches (rows unbounded statically)."""
    scenarios: list[_Scenario] = []
    for operation in action.operations:
        if isinstance(operation, ast.InsertSelect) \
                and operation.table == table:
            return None
        if not isinstance(operation, ast.InsertValues):
            continue
        if operation.table != table:
            continue
        if operation.columns:
            named = list(operation.columns)
        elif schema is not None:
            named = list(schema.column_names)
        else:
            named = None
        for row in operation.rows:
            if named is None or len(named) != len(row):
                return None  # cannot map values to columns
            pairs = [
                (column, constant_fold(value))
                for column, value in zip(named, row)
            ]
            if schema is not None:
                # Unlisted columns are inserted as NULL (evaluator rule).
                listed = {column for column, _ in pairs}
                pairs.extend(
                    (column, None)
                    for column in schema.column_names
                    if column not in listed
                )
            scenarios.append(_Scenario(tuple(pairs)))
    return scenarios


# ---------------------------------------------------------------------------
# the edge test

def _transition_conjunct_target(conjunct: object,
                                ) -> Optional[tuple[ast.Select,
                                                    ast.TransitionTableRef]]:
    """If ``conjunct`` is ``exists (select ... from <one transition
    table> ...)`` and that select is empty whenever the transition
    table is — no aggregate (``select count(*)`` yields a row over no
    input), no grouping, no union — return the select and its
    transition reference."""
    if not isinstance(conjunct, ast.Exists) or conjunct.negated:
        return None
    select = conjunct.select
    if len(select.tables) != 1 or select.union is not None \
            or select.group_by or select.having is not None:
        return None
    table_ref = select.tables[0]
    if not isinstance(table_ref, ast.TransitionTableRef) or any(
        isinstance(item, ast.SelectItem)
        and contains_aggregate(item.expression)
        for item in select.items
    ):
        return None
    return select, table_ref


def required_views(condition: object) -> list[ast.TransitionTableRef]:
    """The transition tables the condition needs a row from: it holds
    only if none of them is empty."""
    targets = map(_transition_conjunct_target, ast.conjuncts(condition))
    return [target[1] for target in targets if target is not None]


def _conjunct_refuted(select: ast.Select, table_ref: ast.TransitionTableRef,
                      scenario: _Scenario) -> bool:
    """Does the scenario make the exists-conjunct provably empty?"""

    binding = table_ref.binding_name

    def resolve(ref: ast.ColumnRef) -> object:
        if ref.qualifier is None or ref.qualifier == binding:
            return scenario.get(ref.column)
        return UNKNOWN

    return provably_false(constant_fold(select.where, resolve))


def _predicate_discharged(provider: LintRule, consumer: LintRule,
                          predicate: ast.BasicTransitionPredicate,
                          schema_lookup: SchemaLookup) -> bool:
    """Can we prove that triggering ``consumer`` via ``predicate`` from
    ``provider``'s action always leaves the condition false?"""
    condition = consumer.condition
    if condition is None:
        return False
    action = provider.action
    if not isinstance(action, ast.OperationBlock):
        return False

    if predicate.kind is ast.TransitionPredicateKind.UPDATED:
        scenarios = _update_scenarios(action, predicate.table,
                                      predicate.column)
        wanted_kind = ast.TransitionKind.NEW_UPDATED
    elif predicate.kind is ast.TransitionPredicateKind.INSERTED:
        scenarios = _insert_scenarios(action, predicate.table,
                                      schema_lookup(predicate.table))
        wanted_kind = ast.TransitionKind.INSERTED
    else:
        return False  # deleted/selected carry no constant new values

    if scenarios is None or not scenarios:
        return False

    for scenario in scenarios:
        refuted = False
        for conjunct in ast.conjuncts(condition):
            target = _transition_conjunct_target(conjunct)
            if target is None:
                continue
            select, table_ref = target
            if table_ref.kind is not wanted_kind:
                continue
            if table_ref.table != predicate.table:
                continue
            if table_ref.column != predicate.column:
                continue
            if _conjunct_refuted(select, table_ref, scenario):
                refuted = True
                break
        if not refuted:
            return False
    return True


def _effects_discharged(provider: LintRule,
                        consumer: LintRule) -> Optional[str]:
    """Effect-based discharge: a required exists-conjunct of the
    consumer selects from a transition view the provider's write set
    provably cannot populate (see module docstring). Returns the proof
    text, or None when no conjunct discharges."""
    for table_ref in required_views(consumer.condition):
        if not writes_can_populate(provider.effects.writes, table_ref):
            return (
                f"action of {provider.name!r} cannot populate the "
                f"'{describe_transition(table_ref)}' view required "
                f"by the condition of {consumer.name!r}"
            )
    return None


def edge_realizable(provider: LintRule, consumer: LintRule,
                    schema_lookup: SchemaLookup = lambda table: None,
                    ) -> tuple[bool, Optional[str]]:
    """Can ``provider``'s action actually trigger ``consumer``?

    Returns ``(True, None)`` when the edge must be kept, or
    ``(False, reason)`` when it is provably dead. Conservative: any
    static uncertainty keeps the edge.
    """
    if provider.is_external:
        return True, None

    if condition_provably_false(consumer.condition):
        return False, (
            f"condition of {consumer.name!r} is constant-false"
        )

    effect_proof = _effects_discharged(provider, consumer)
    if effect_proof is not None:
        return False, effect_proof

    matching = [
        predicate for predicate in consumer.predicates
        if provider.effects.can_satisfy(predicate)
    ]
    if not matching:
        return True, None  # should not happen for a syntactic edge

    for predicate in matching:
        if not _predicate_discharged(provider, consumer, predicate,
                                     schema_lookup):
            return True, None
    return False, (
        f"every effect of {provider.name!r} folds the condition of "
        f"{consumer.name!r} to false"
    )
