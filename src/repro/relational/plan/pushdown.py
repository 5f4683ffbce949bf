"""Conjunct analysis: pushdown filters, hash-join keys, residual.

A WHERE clause is split into its top-level AND-conjuncts, and each
conjunct is classified against the FROM clause's bindings:

* **single-binding** — every column reference resolves (unambiguously,
  by the naive evaluator's own scoping rules) to one binding: the
  conjunct is pushed down to that binding's scan and filters rows before
  any product is formed;
* **equi-join** — ``<expr over bindings L> = <expr over bindings R>``
  with L and R disjoint: a hash-join key candidate;
* **residual** — everything else (subqueries, outer-scope references,
  ambiguous unqualified columns, constants): evaluated against the full
  combined scope, exactly where the naive evaluator would evaluate the
  whole WHERE.

Classification is conservative: Kleene AND is ``True`` iff every
conjunct is ``True``, so filtering early on any subset of conjuncts
keeps exactly the combinations the full WHERE keeps. Anything not
*obviously* safe stays in the residual, so plans never depend on clever
analysis for correctness.

The module also hosts the indexed-equality candidate computation the
DML executor narrows its identification scan with.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ...sql import ast
from ...sql.ast import conjuncts
from ...sql.params import constant

#: what a prunable conjunct compares its column with: a literal, or the
#: parameter a cached statement's literal was lifted to
_CONSTANTS = (ast.Literal, ast.Param)


#: comparison ops usable for index lookups / zone pruning, mapped to
#: their mirror when the literal sits on the left (``5 < col`` ≡
#: ``col > 5``)
_FLIPPED_OPS = {
    "=": "=",
    "<>": "<>",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


def _prunable_triple(conjunct: ast.Expression, binding_names: Any,
                     schema: Any) -> Optional[tuple[str, str, Any]]:
    """If ``conjunct`` is ``col op literal`` (either side) on this
    table with a non-NULL literal, return ``(column, op, operand)`` with
    the op normalized to the column-on-the-left form; otherwise None.
    ``operand`` is the literal or parameter node:
    :func:`repro.sql.params.constant` gives its value under a binding.

    Shared by the indexable-equality computation and zone-map
    prune-spec extraction.
    """
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    op = _FLIPPED_OPS.get(conjunct.op)
    if op is None:
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(right, ast.ColumnRef) and isinstance(left, _CONSTANTS):
        left, right = right, left
    else:
        op = conjunct.op
    if not isinstance(left, ast.ColumnRef) or not isinstance(right, _CONSTANTS):
        return None
    if type(right) is ast.Literal and right.value is None:
        return None  # col op NULL is never True; let 3VL handle it
    if left.qualifier is not None and left.qualifier not in binding_names:
        return None
    if not schema.has_column(left.column):
        return None
    return left.column, op, right


def _indexable_pair(conjunct: ast.Expression, binding_names: Any,
                    schema: Any) -> Optional[tuple[str, Any]]:
    """If ``conjunct`` is ``col = literal`` on this table, return
    ``(column, operand)``; otherwise None."""
    triple = _prunable_triple(conjunct, binding_names, schema)
    if triple is None or triple[1] != "=":
        return None
    column, _, operand = triple
    return column, operand


def index_candidates(where: Optional[ast.Expression], table: Any,
                     binding_names: Any,
                     params: Sequence[Any] = ()) -> Optional[list[int]]:
    """Handles possibly matching ``where`` via index lookups, ascending,
    or None.

    ``table`` is the :class:`~repro.relational.table.Table` being
    scanned; ``binding_names`` are the names the table is known by in the
    predicate's scope (its own name, plus an alias if any); ``params``
    binds the statement's parameters. When several indexable conjuncts
    exist, their candidates are intersected.

    Returning handles S guarantees every matching tuple is in S (the
    full predicate still runs on S); returning None means "no index
    applies".
    """
    if where is None:
        return None
    candidates = None
    for conjunct in conjuncts(where):
        pair = _indexable_pair(conjunct, binding_names, table.schema)
        if pair is None:
            continue
        column, operand = pair
        index = table.index_on(column)
        if index is None:
            continue
        found = index.lookup(constant(operand, params))
        candidates = found if candidates is None else intersect(
            candidates, found)
        if not candidates:
            return []
    return candidates


def intersect(candidates: list[int], found: list[int]) -> list[int]:
    """The handles of ``candidates`` that ``found`` holds too, in
    ``candidates``' (ascending) order."""
    members = set(found)
    return [handle for handle in candidates if handle in members]


# ---------------------------------------------------------------------------
# conjunct classification for multi-table plans


_SUBQUERY_NODES = (
    ast.InSelect,
    ast.Exists,
    ast.QuantifiedComparison,
    ast.ScalarSelect,
)


def referenced_bindings(
    expression: ast.Expression,
    binding_columns: dict[str, tuple[str, ...]],
) -> Optional[set[str]]:
    """The set of binding names a conjunct's column references resolve to.

    ``binding_columns`` maps each FROM binding name to its column-name
    tuple. Returns ``None`` when the conjunct cannot be attributed safely:
    it contains a subquery, an outer-scope or unknown reference, or an
    unqualified column matching several bindings (which the naive
    evaluator reports as ambiguous — the residual must reproduce that).
    """
    names: set[str] = set()
    for node in ast.iter_expressions(expression):
        if isinstance(node, _SUBQUERY_NODES):
            return None
        if not isinstance(node, ast.ColumnRef):
            continue
        if node.qualifier is not None:
            if node.qualifier not in binding_columns:
                return None  # outer-scope (correlated) or unknown qualifier
            names.add(node.qualifier)
        else:
            owners = [
                name
                for name, columns in binding_columns.items()
                if node.column in columns
            ]
            if len(owners) != 1:
                return None  # outer-scope reference or ambiguity
            names.add(owners[0])
    return names


class ClassifiedWhere:
    """The outcome of classifying a WHERE against a FROM clause.

    Attributes:
        pushed: ``{binding_name: [conjunct, ...]}`` single-binding filters.
        joins: ``[(left_expr, left_bindings, right_expr, right_bindings)]``
            equi-join candidates (both sides attributed, disjoint).
        residual: conjuncts that must see the full combined scope.
    """

    def __init__(self) -> None:
        self.pushed: dict[str, list[ast.Expression]] = {}
        self.joins: list[tuple[ast.Expression, frozenset[str],
                               ast.Expression, frozenset[str]]] = []
        self.residual: list[ast.Expression] = []


def classify_where(
    where: Optional[ast.Expression],
    binding_columns: dict[str, tuple[str, ...]],
) -> ClassifiedWhere:
    """Classify every top-level conjunct of ``where``.

    ``binding_columns`` maps binding name -> column-name tuple for the
    FROM clause being planned. Returns a :class:`ClassifiedWhere`.
    """
    classified = ClassifiedWhere()
    if where is None:
        return classified
    for conjunct in conjuncts(where):
        owners = referenced_bindings(conjunct, binding_columns)
        if owners is None:
            classified.residual.append(conjunct)
            continue
        if len(owners) == 1:
            classified.pushed.setdefault(next(iter(owners)), []).append(
                conjunct
            )
            continue
        join = _equi_join_sides(conjunct, binding_columns)
        if join is not None:
            classified.joins.append(join)
        else:
            classified.residual.append(conjunct)
    return classified


def _equi_join_sides(
    conjunct: ast.Expression,
    binding_columns: dict[str, tuple[str, ...]],
) -> Optional[tuple[ast.Expression, frozenset[str],
                    ast.Expression, frozenset[str]]]:
    """If ``conjunct`` is ``left = right`` with each side attributed to a
    disjoint non-empty binding set, return the 4-tuple
    ``(left_expr, left_bindings, right_expr, right_bindings)``."""
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
        return None
    left_owners = referenced_bindings(conjunct.left, binding_columns)
    right_owners = referenced_bindings(conjunct.right, binding_columns)
    if not left_owners or not right_owners:
        return None
    if left_owners & right_owners:
        return None
    return conjunct.left, frozenset(left_owners), conjunct.right, frozenset(
        right_owners
    )
