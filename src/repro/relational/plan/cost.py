"""The cost model: cardinality, selectivity, totality, and ordering.

The paper's thesis (§1) is that set-oriented rule processing lets the
rule system inherit ordinary relational optimization. Pushdown, hash
joins and index lookups are *syntactic* (:mod:`.pushdown`,
:mod:`.builder`); this module is the *statistics-driven* half on top of
the live per-table statistics of :mod:`repro.relational.stats`:

* **cardinality** estimates for leaves (row counts, index bucket
  probes) and joins (the classic ``|L|*|R| / max(ndv_l, ndv_r)``);
* **selectivity** estimates for ``col op literal`` conjuncts (1/NDV for
  equality, min/max interpolation for ranges, null fractions for
  ``IS NULL``);
* **totality analysis** — a static proof that an expression *cannot
  raise* — which gates every reordering decision;
* conjunct ordering (cheapest-and-most-selective first) for plan
  filters and compiled rule conditions;
* selective index-key choice and zone-map prune-spec extraction.

Why totality gates reordering
-----------------------------

The optimizer invariance guarantee (docs/semantics.md §15) promises that
statistics change *cost only*: values, errors, and fired-rule sequences
are identical to those of the FROM-order, written-conjunct-order plan
(``tests/reference/syntactic_planner.py``). Values are safe
because 3VL ``AND`` is commutative and join output is re-sorted into
FROM enumeration order (see ``RestoreOrder``); errors are the hazard.
Reordering two conjuncts where one can raise (``x / 0``, a cross-kind
comparison, an ambiguous column) can change *which* error surfaces
first, or whether it surfaces at all. So every reorder is gated on a
conservative proof that each moved expression is *total*: it evaluates
to a value (possibly NULL/Unknown) on every row without raising. When
the proof fails, the syntactic order is kept — the optimizer degrades
to the written order, never to different semantics.

Why there is no index-lookup → scan demotion
--------------------------------------------

An :class:`~repro.relational.plan.nodes.IndexLookup` emits candidates
in sorted-handle order; a :class:`~repro.relational.plan.nodes.Scan`
emits live-insertion order. The two orders coincide on fresh tables but
diverge after transaction undo (an undone delete re-inserts the old
handle at the *end* of the live order). Demoting a useless index lookup
to a scan would therefore change result order relative to the
syntactic plan. Instead the cost model performs *selective key choice*: among the
indexable equality conjuncts it keeps only the keys whose estimated
buckets are worth intersecting (always at least the best one). Any
subset of keys yields a candidate *superset*, still sorted by handle
and still re-filtered by the pushed conjuncts — identical survivors in
identical order, whatever the statistics said.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Optional, Sequence

from ...errors import CatalogError
from ...sql import ast
from ...sql.params import constant
from ..types import SqlType
from .pushdown import _SUBQUERY_NODES, _prunable_triple, conjuncts

#: estimated rows of a transition-table leaf (their true size is only
#: known at run time; transitions are typically small relative to base
#: tables, and the guess only steers join order among *base* tables)
TRANSITION_ROW_GUESS = 8.0

#: NDV assumed for join keys whose statistics cannot be resolved
#: (computed keys, transition-table columns)
DEFAULT_NDV = 10

#: selectivity assumed for conjuncts the estimator has no model for
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: selectivity clamp bounds — estimates never reach exactly 0 (an
#: empty-looking estimate must not zero out a whole join subtree)
MIN_SELECTIVITY = 0.0005

#: per-subquery-node surcharge in :func:`conjunct_cost` (a subquery is
#: a nested scan; vastly more expensive than any scalar node)
SUBQUERY_COST = 50

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


def expression_kind(node: Any, layers: Any,
                    database: Any) -> Optional[str]:
    """The expression's value kind if it is provably *total* (cannot
    raise on any row), else None.

    Deliberately conservative: division/modulo (zero divisors), scalar
    function calls, unresolvable or ambiguous columns, and any subquery
    shape not covered below all return None. A None verdict only costs
    an optimization — the syntactic order is kept.
    """
    if layers is None:
        return None
    if isinstance(node, ast.Literal):
        return _kind_of_value(node.value)
    if isinstance(node, ast.Param):
        return node.kind  # all a cached statement knows of the literal
    if isinstance(node, ast.ColumnRef):
        return _column_kind(node, layers)
    if isinstance(node, ast.UnaryOp):
        kind = expression_kind(node.operand, layers, database)
        if node.op == "not":
            return "b" if kind in ("b", "?") else None
        return "n" if kind in ("n", "?") else None  # unary +/-
    if isinstance(node, ast.BinaryOp):
        return _binary_kind(node, layers, database)
    if isinstance(node, ast.IsNull):
        if expression_kind(node.operand, layers, database) is None:
            return None
        return "b"
    if isinstance(node, ast.Between):
        kinds = [
            expression_kind(part, layers, database)
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
            if expression_kind(part, layers, database) not in ("s", "?"):
                return None
        return "b"
    if isinstance(node, ast.InList):
        operand = expression_kind(node.operand, layers, database)
        if operand is None:
            return None
        for item in node.items:
            kind = expression_kind(item, layers, database)
            if kind is None or not _compatible(operand, kind):
                return None
        return "b"
    if isinstance(node, ast.CaseExpression):
        return _case_kind(node, layers, database)
    if isinstance(node, ast.Exists):
        return "b" if _select_total(node.select, layers, database) else None
    if isinstance(node, (ast.InSelect, ast.QuantifiedComparison)):
        operand = expression_kind(node.operand, layers, database)
        if operand is None:
            return None
        item_kind = _single_item_kind(node.select, layers, database)
        if item_kind is None or not _compatible(operand, item_kind):
            return None
        return "b"
    if isinstance(node, ast.ScalarSelect):
        return _scalar_select_kind(node.select, layers, database)
    return None  # FunctionCall (scalar or stray aggregate), Star, unknown


def _binary_kind(node: Any, layers: Any, database: Any) -> Optional[str]:
    left = expression_kind(node.left, layers, database)
    if left is None:
        return None
    right = expression_kind(node.right, layers, database)
    if right is None:
        return None
    op = node.op
    if op in ("and", "or"):
        if left in ("b", "?") and right in ("b", "?"):
            return "b"
        return None
    if op in ("+", "-", "*"):
        if left in ("n", "?") and right in ("n", "?"):
            return "n"
        return None
    if op in ("/", "%"):
        return None  # zero divisors raise at run time
    if op == "||":
        if left in ("s", "?") and right in ("s", "?"):
            return "s"
        return None
    if op in _COMPARISONS:
        return "b" if _compatible(left, right) else None
    return None


def _case_kind(node: Any, layers: Any, database: Any) -> Optional[str]:
    result = "?"
    for condition, value in node.branches:
        if expression_kind(condition, layers, database) not in ("b", "?"):
            return None
        kind = expression_kind(value, layers, database)
        if kind is None or not _compatible(result, kind):
            return None
        result = _combine(result, kind)
    if node.default is not None:
        kind = expression_kind(node.default, layers, database)
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


def _select_total(select: Any, layers: Any, database: Any) -> bool:
    """Totality of a subquery evaluated for EXISTS (row production only)."""
    from ..expressions import contains_aggregate

    if not _plain_select_shape(select):
        return False
    inner = _subquery_layers(select, layers, database)
    if inner is None:
        return False
    if select.where is not None and expression_kind(
        select.where, inner, database
    ) not in ("b", "?"):
        return False
    for item in select.items:
        if isinstance(item, ast.Star):
            continue
        if contains_aggregate(item.expression):
            return False
        if expression_kind(item.expression, inner, database) is None:
            return False
    return True


def _single_item_kind(select: Any, layers: Any,
                      database: Any) -> Optional[str]:
    """Kind of the single output column of an IN/quantified subquery,
    when the subquery is total; else None."""
    if len(select.items) != 1 or isinstance(select.items[0], ast.Star):
        return None
    if not _select_total(select, layers, database):
        return None
    inner = _subquery_layers(select, layers, database)
    return expression_kind(select.items[0].expression, inner, database)


_AGGREGATES = ("count", "sum", "avg", "min", "max")


def _scalar_select_kind(select: Any, layers: Any,
                        database: Any) -> Optional[str]:
    """A scalar select is total only in its always-one-row form: a
    single ungrouped aggregate item (``(select count(*) from t ...)``).
    The plain single-column form raises on multi-row results, which no
    static analysis over statistics can exclude."""
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
        select.where, inner, database
    ) not in ("b", "?"):
        return None
    if name == "count":
        if expr.args and not isinstance(expr.args[0], ast.Star):
            if expression_kind(expr.args[0], inner, database) is None:
                return None
        return "n"
    if len(expr.args) != 1 or isinstance(expr.args[0], ast.Star):
        return None
    kind = expression_kind(expr.args[0], inner, database)
    if kind is None:
        return None
    if name in ("sum", "avg"):
        return "n" if kind in ("n", "?") else None
    return kind  # min/max preserve their argument's kind


# ---------------------------------------------------------------------------
# cardinality and selectivity


def source_rows(database: Any, table_ref: Any) -> float:
    """Estimated rows of one FROM leaf before filtering."""
    if isinstance(table_ref, ast.BaseTableRef):
        return float(database.table(table_ref.table).stats.row_count)
    return TRANSITION_ROW_GUESS


def column_ndv(database: Any, table_ref: Any, column: str) -> int:
    """Estimated NDV of one leaf column: an index's exact ``key_count``
    when one covers the column, the live statistics otherwise."""
    if not isinstance(table_ref, ast.BaseTableRef):
        return DEFAULT_NDV
    table = database.table(table_ref.table)
    if not table.schema.has_column(column):
        return DEFAULT_NDV
    index = table.index_on(column)
    if index is not None:
        return max(index.key_count, 1)
    return max(table.stats.ndv(table.schema.column_position(column)), 1)


def key_ndv(database: Any, expr: Any, refs_by_binding: Any,
            binding_columns: Any) -> int:
    """NDV of one join-key expression (column refs only; computed keys
    fall back to :data:`DEFAULT_NDV`)."""
    if not isinstance(expr, ast.ColumnRef):
        return DEFAULT_NDV
    binding = expr.qualifier
    if binding is None:
        owners = [
            name
            for name, columns in binding_columns.items()
            if expr.column in columns
        ]
        if len(owners) != 1:
            return DEFAULT_NDV
        binding = owners[0]
    ref = refs_by_binding.get(binding)
    if ref is None:
        return DEFAULT_NDV
    return column_ndv(database, ref, expr.column)


def _clamp(selectivity: float) -> float:
    return min(1.0, max(MIN_SELECTIVITY, selectivity))


def conjunct_selectivity(database: Any, table_ref: Any, conjunct: Any,
                         params: Sequence[Any] = ()) -> float:
    """Estimated fraction of one leaf's rows satisfying ``conjunct``
    with its parameters bound by ``params``."""
    if table_ref is None or not isinstance(table_ref, ast.BaseTableRef):
        return DEFAULT_SELECTIVITY
    table = database.table(table_ref.table)
    schema = table.schema
    stats = table.stats
    rows = stats.row_count
    names = {table_ref.binding_name, table_ref.table}
    if isinstance(conjunct, ast.IsNull) and isinstance(
        conjunct.operand, ast.ColumnRef
    ):
        column = conjunct.operand
        if (
            (column.qualifier is None or column.qualifier in names)
            and schema.has_column(column.column)
            and rows
        ):
            fraction = (
                stats.column(schema.column_position(column.column)).nulls
                / rows
            )
            return _clamp(1.0 - fraction if conjunct.negated else fraction)
        return DEFAULT_SELECTIVITY
    triple = _prunable_triple(conjunct, names, schema)
    if triple is None or rows == 0:
        return DEFAULT_SELECTIVITY
    column, op, operand = triple
    value = constant(operand, params)
    position = schema.column_position(column)
    column_stats = stats.column(position)
    non_null = max(rows - column_stats.nulls, 0)
    if op == "=":
        return _clamp(1.0 / column_ndv(database, table_ref, column))
    if op == "<>":
        return _clamp(1.0 - 1.0 / column_ndv(database, table_ref, column))
    low, high = column_stats.minimum, column_stats.maximum
    if (
        _kind_of_value(value) == "n"
        and _kind_of_value(low) == "n"
        and _kind_of_value(high) == "n"
        and high > low
    ):
        fraction = min(1.0, max(0.0, (value - low) / (high - low)))
        if op in (">", ">="):
            fraction = 1.0 - fraction
        return _clamp(fraction * (non_null / rows))
    return DEFAULT_SELECTIVITY


def filter_selectivity(database: Any, table_ref: Any, conjunct_list: Any,
                       params: Sequence[Any] = ()) -> float:
    """Combined selectivity under the independence assumption."""
    result = 1.0
    for conjunct in conjunct_list:
        result *= conjunct_selectivity(
            database, table_ref, conjunct, params
        )
    return result


# ---------------------------------------------------------------------------
# conjunct ordering


def conjunct_cost(conjunct: Any) -> int:
    """Relative evaluation cost: node count, with a steep surcharge per
    subquery (each is a nested scan)."""
    total = 0
    for node in ast.iter_expressions(conjunct):
        total += 1
        if isinstance(node, _SUBQUERY_NODES):
            total += SUBQUERY_COST
    return total


def order_conjuncts(database: Any, conjunct_list: Any, layers: Any,
                    table_ref: Any = None,
                    params: Sequence[Any] = ()) -> Optional[list[Any]]:
    """Cheapest-and-most-selective-first ordering of AND-ed conjuncts.

    Classic rank ``cost / (1 - selectivity)``: a cheap conjunct that
    rejects most rows evaluates first, an expensive one that rejects
    nothing evaluates last. The sort is stable, so equal ranks keep the
    syntactic order. Returns the reordered list, or None when any
    conjunct fails the totality proof (reordering could then change
    which error surfaces first — see the module docstring).
    """
    if len(conjunct_list) < 2:
        return None
    for conjunct in conjunct_list:
        if expression_kind(conjunct, layers, database) not in ("b", "?"):
            return None

    def rank(conjunct: Any) -> float:
        selectivity = conjunct_selectivity(
            database, table_ref, conjunct, params
        )
        return conjunct_cost(conjunct) / max(1.0 - selectivity, 1e-3)

    return sorted(conjunct_list, key=rank)


def order_condition(database: Any, condition: Any) -> Any:
    """A rule condition with its top-level conjuncts cost-ordered.

    Returns ``condition`` itself (same object — compiled-program caches
    key on node identity) when nothing changes: fewer than two
    conjuncts, a failed totality proof, or an already-optimal order.
    Rule conditions evaluate in an empty scope (no FROM), so the kind
    environment is empty — every column reference must come from a
    subquery's own bindings to prove total.
    """
    parts = list(conjuncts(condition))
    ranked = order_conjuncts(database, parts, (), None)
    if ranked is None or ranked == parts:
        return condition
    database.optimizer_stats.conditions_reordered += 1
    return reduce(lambda left, right: ast.BinaryOp("and", left, right), ranked)


# ---------------------------------------------------------------------------
# index-key choice and zone-map prune specs


def select_index_keys(candidates: Any, rows: Any,
                      params: Sequence[Any] = ()) -> tuple[Any, float]:
    """Choose which indexable equality keys are worth intersecting.

    ``candidates`` is a list of ``(index, column, operand)``, the
    operands literals or parameters bound by ``params``; ``rows`` the
    table's estimated row count. Keeps the smallest estimated bucket
    always, plus any other key whose bucket is under half the table
    (intersecting a near-table-sized bucket costs more than letting the
    pushed filter — which re-runs regardless — reject the rows). Returns
    ``(keys, scanned)``: the ``(index_name, column, operand)`` tuples in
    candidate order and the estimated candidate count. Dropping keys is
    always safe: any key subset yields a candidate superset, re-filtered
    by the same pushed conjuncts (see the module docstring on demotion).
    """
    if not candidates:
        return (), float(rows)
    counts = [
        index.count(constant(operand, params))
        for index, _, operand in candidates
    ]
    best = min(counts)
    keys = tuple(
        (index.name, column, operand)
        for (index, column, operand), count in zip(candidates, counts)
        if count == best or count * 2 <= rows
    )
    return keys, float(best)


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
