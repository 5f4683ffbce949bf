"""Totality analysis and zone-map prune specs.

Plans are built from the statement text and the catalog alone
(:mod:`.builder`): FROM-order joins, written conjunct order, every
usable index key. This module supplies the two analyses that need the
catalog's column kinds:

* **totality** — :func:`expression_kind`, a static proof that an
  expression *cannot raise* on any row, and its value kind. Typed
  kernels, hash-join kind checks and the error-identity guarantee of
  docs/semantics.md §8 stand on it;
* **zone-map prune specs** — :func:`prune_specs`, the ``col op
  literal`` conjuncts a batch filter may test against a storage zone's
  ``(min, max)`` before running any kernel (docs/semantics.md §15).

Why totality gates pruning
--------------------------

Pruning skips every row of a zone where one conjunct is false. That is
invisible only if no sibling conjunct could have raised on a skipped
row, so specs are emitted only when *every* conjunct of the filter is
provably total. When the proof fails, nothing is pruned: the filter
degrades to the plain scan, never to different semantics.
"""

from __future__ import annotations

from typing import Any, Optional

from ...errors import CatalogError
from ...sql import ast
from ..types import SqlType
from .pushdown import _prunable_triple

#: value kinds: "n" numeric, "s" string, "b" boolean, "?" = provably
#: NULL (total, comparable with anything). ``None`` (not a kind) means
#: "not provably total".
KIND_OF_TYPE = {
    SqlType.INTEGER: "n",
    SqlType.FLOAT: "n",
    SqlType.VARCHAR: "s",
    SqlType.BOOLEAN: "b",
}

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def _kind_of_value(value: Any) -> Optional[str]:
    if value is None:
        return "?"
    if isinstance(value, bool):
        return "b"
    if isinstance(value, (int, float)):
        return "n"
    if isinstance(value, str):
        return "s"
    return None


def _compatible(a: Any, b: Any) -> bool:
    """Two kinds that can meet in a comparison without a type error."""
    return a == b or a == "?" or b == "?"


def _combine(a: str, b: str) -> str:
    return a if a != "?" else b


# ---------------------------------------------------------------------------
# kind environments


def kind_layers(database: Any, table_refs: Any) -> Any:
    """The (single-layer) kind environment of a FROM clause:
    ``({binding: {column: kind}},)``. Returns None when a referenced
    table is unknown (the plan will raise at resolution; nothing is
    provable)."""
    layer = _scope_layer(database, table_refs)
    if layer is None:
        return None
    return (layer,)


def _scope_layer(database: Any,
                 table_refs: Any) -> Optional[dict[str, dict[str, str]]]:
    layer: dict[str, dict[str, str]] = {}
    for ref in table_refs:
        try:
            schema = database.schema(ref.table)
        except CatalogError:
            return None
        name = ref.binding_name
        if name in layer:
            return None  # duplicate binding: the builder raises anyway
        layer[name] = {
            column.name: KIND_OF_TYPE[column.sql_type]
            for column in schema.columns
        }
    return layer


def _column_kind(node: Any, layers: Any) -> Optional[str]:
    """Resolve a ColumnRef's kind through the layered scopes, innermost
    first — mirroring the evaluator's scope rules. None when the
    reference is unknown, outer-scope-ambiguous, or multiply owned
    (those raise, or resolve in ways this analysis won't guess)."""
    if node.qualifier is not None:
        for layer in layers:
            scope = layer.get(node.qualifier)
            if scope is not None:
                return scope.get(node.column)
        return None
    for layer in layers:
        owners = [
            columns[node.column]
            for columns in layer.values()
            if node.column in columns
        ]
        if len(owners) == 1:
            return owners[0]
        if len(owners) > 1:
            return None  # ambiguous: the evaluator raises
    return None


# ---------------------------------------------------------------------------
# totality analysis


def expression_kind(node: Any, layers: Any, database: Any,
                    memo: Optional[dict] = None) -> Optional[str]:
    """The expression's value kind if it is provably *total* (cannot
    raise on any row), else None.

    Deliberately conservative: division/modulo by anything but a
    nonzero numeric literal (zero divisors), scalar function calls,
    unresolvable or ambiguous columns, and any subquery shape not
    covered below all return None. A None verdict only costs an
    optimization — a typed kernel or a zone prune is not used.

    ``memo`` (``id(node)`` → verdict, for nodes of one tree under one
    kind environment) makes a pass that asks about every node of a
    tree analyse each node once.
    """
    if layers is None:
        return None
    if memo is None:
        memo = {}
    key = id(node)
    if key not in memo:
        memo[key] = _analyse(node, layers, database, memo)
    return memo[key]


def _analyse(node: Any, layers: Any, database: Any,
             memo: dict) -> Optional[str]:
    """One node's verdict, its subexpressions' read through ``memo``."""
    if isinstance(node, ast.Literal):
        return _kind_of_value(node.value)
    if isinstance(node, ast.Param):
        return node.kind  # all a cached statement knows of the literal
    if isinstance(node, ast.ColumnRef):
        return _column_kind(node, layers)
    if isinstance(node, ast.UnaryOp):
        kind = expression_kind(node.operand, layers, database, memo)
        if node.op == "not":
            return "b" if kind in ("b", "?") else None
        return "n" if kind in ("n", "?") else None  # unary +/-
    if isinstance(node, ast.BinaryOp):
        return _binary_kind(node, layers, database, memo)
    if isinstance(node, ast.IsNull):
        if expression_kind(node.operand, layers, database, memo) is None:
            return None
        return "b"
    if isinstance(node, ast.Between):
        kinds = [
            expression_kind(part, layers, database, memo)
            for part in (node.operand, node.low, node.high)
        ]
        if None in kinds:
            return None
        operand, low, high = kinds
        if _compatible(operand, low) and _compatible(operand, high) and (
            _compatible(low, high)
        ):
            return "b"
        return None
    if isinstance(node, ast.Like):
        for part in (node.operand, node.pattern):
            if expression_kind(part, layers, database, memo) \
                    not in ("s", "?"):
                return None
        return "b"
    if isinstance(node, ast.InList):
        operand = expression_kind(node.operand, layers, database, memo)
        if operand is None:
            return None
        for item in node.items:
            kind = expression_kind(item, layers, database, memo)
            if kind is None or not _compatible(operand, kind):
                return None
        return "b"
    if isinstance(node, ast.CaseExpression):
        return _case_kind(node, layers, database, memo)
    if isinstance(node, ast.Exists):
        return "b" if _select_total(node.select, layers, database, memo) \
            else None
    if isinstance(node, (ast.InSelect, ast.QuantifiedComparison)):
        operand = expression_kind(node.operand, layers, database, memo)
        if operand is None:
            return None
        item_kind = _single_item_kind(node.select, layers, database, memo)
        if item_kind is None or not _compatible(operand, item_kind):
            return None
        return "b"
    if isinstance(node, ast.ScalarSelect):
        return _scalar_select_kind(node.select, layers, database, memo)
    return None  # FunctionCall (scalar or stray aggregate), Star, unknown


def _binary_kind(node: Any, layers: Any, database: Any,
                 memo: dict) -> Optional[str]:
    left = expression_kind(node.left, layers, database, memo)
    if left is None:
        return None
    right = expression_kind(node.right, layers, database, memo)
    if right is None:
        return None
    op = node.op
    if op in ("and", "or"):
        if left in ("b", "?") and right in ("b", "?"):
            return "b"
        return None
    divisor = node.right
    if op in ("+", "-", "*") or (
        # only a nonzero numeric literal divisor cannot raise
        op in ("/", "%") and isinstance(divisor, ast.Literal)
        and type(divisor.value) in (int, float) and divisor.value != 0
    ):
        if left in ("n", "?") and right in ("n", "?"):
            return "n"
        return None
    if op == "||":
        if left in ("s", "?") and right in ("s", "?"):
            return "s"
        return None
    if op in _COMPARISONS:
        return "b" if _compatible(left, right) else None
    return None  # "/" and "%" by anything else: zero divisors raise


def _case_kind(node: Any, layers: Any, database: Any,
               memo: dict) -> Optional[str]:
    result = "?"
    for condition, value in node.branches:
        if expression_kind(condition, layers, database, memo) \
                not in ("b", "?"):
            return None
        kind = expression_kind(value, layers, database, memo)
        if kind is None or not _compatible(result, kind):
            return None
        result = _combine(result, kind)
    if node.default is not None:
        kind = expression_kind(node.default, layers, database, memo)
        if kind is None or not _compatible(result, kind):
            return None
        result = _combine(result, kind)
    return result


def _subquery_layers(select: Any, layers: Any, database: Any) -> Any:
    """The kind environment inside a subquery: its own FROM bindings
    shadow the outer layers."""
    layer = _scope_layer(database, select.tables)
    if layer is None:
        return None
    return (layer,) + tuple(layers)


def _plain_select_shape(select: Any) -> bool:
    """True for the only subquery shape the analysis covers: a single
    arm with no grouping, ordering, or dedup (each of those adds
    evaluation machinery — comparisons, single-row checks — with its
    own failure modes)."""
    return (
        select.union is None
        and not select.group_by
        and select.having is None
        and not select.order_by
        and not select.distinct
    )


def _select_total(select: Any, layers: Any, database: Any,
                  memo: dict) -> bool:
    """Totality of a subquery evaluated for EXISTS (row production only)."""
    from ..expressions import contains_aggregate

    if not _plain_select_shape(select):
        return False
    inner = _subquery_layers(select, layers, database)
    if inner is None:
        return False
    if select.where is not None and expression_kind(
        select.where, inner, database, memo
    ) not in ("b", "?"):
        return False
    for item in select.items:
        if isinstance(item, ast.Star):
            continue
        if contains_aggregate(item.expression):
            return False
        if expression_kind(item.expression, inner, database, memo) is None:
            return False
    return True


def _single_item_kind(select: Any, layers: Any, database: Any,
                      memo: dict) -> Optional[str]:
    """Kind of the single output column of an IN/quantified subquery,
    when the subquery is total; else None."""
    if len(select.items) != 1 or isinstance(select.items[0], ast.Star):
        return None
    if not _select_total(select, layers, database, memo):
        return None
    inner = _subquery_layers(select, layers, database)
    return expression_kind(select.items[0].expression, inner, database,
                           memo)


_AGGREGATES = ("count", "sum", "avg", "min", "max")


def _scalar_select_kind(select: Any, layers: Any, database: Any,
                        memo: dict) -> Optional[str]:
    """A scalar select is total only in its always-one-row form: a
    single ungrouped aggregate item (``(select count(*) from t ...)``).
    The plain single-column form raises on multi-row results, which no
    static analysis can exclude."""
    if not _plain_select_shape(select):
        return None
    if len(select.items) != 1 or isinstance(select.items[0], ast.Star):
        return None
    expr = select.items[0].expression
    if not isinstance(expr, ast.FunctionCall):
        return None
    name = expr.name.lower()
    if name not in _AGGREGATES:
        return None
    inner = _subquery_layers(select, layers, database)
    if inner is None:
        return None
    if select.where is not None and expression_kind(
        select.where, inner, database, memo
    ) not in ("b", "?"):
        return None
    if name == "count":
        if expr.args and not isinstance(expr.args[0], ast.Star):
            if expression_kind(expr.args[0], inner, database, memo) is None:
                return None
        return "n"
    if len(expr.args) != 1 or isinstance(expr.args[0], ast.Star):
        return None
    kind = expression_kind(expr.args[0], inner, database, memo)
    if kind is None:
        return None
    if name in ("sum", "avg"):
        return "n" if kind in ("n", "?") else None
    return kind  # min/max preserve their argument's kind


# ---------------------------------------------------------------------------
# zone-map prune specs


def prune_specs(database: Any, table_ref: Any, binding: str,
                pushed: Any, layers: Any) -> tuple[Any, ...]:
    """Zone-map prune specs for one leaf's pushed filter.

    Each spec is ``(column_position, op, operand)`` for a total
    ``col op literal`` conjunct whose literal (or parameter) kind
    matches the column's declared kind exactly (zone bounds compare
    against the value with plain Python operators — a kind mismatch
    must disable pruning, not raise inside the kernel). Specs are only emitted when *every*
    conjunct of the filter is total: pruning skips rows where one total
    conjunct is false, which is invisible unless a sibling conjunct
    could have raised on a skipped row.
    """
    if not pushed or not isinstance(table_ref, ast.BaseTableRef):
        return ()
    for conjunct in pushed:
        if expression_kind(conjunct, layers, database) not in ("b", "?"):
            return ()
    schema = database.schema(table_ref.table)
    names = {binding, table_ref.table}
    specs: list[tuple[int, str, Any]] = []
    for conjunct in pushed:
        triple = _prunable_triple(conjunct, names, schema)
        if triple is None:
            continue
        column, op, operand = triple
        column_kind = KIND_OF_TYPE[schema.column(column).sql_type]
        if expression_kind(operand, layers, database) != column_kind:
            continue
        specs.append((schema.column_position(column), op, operand))
    return tuple(specs)
