"""``build_plan()``: one select arm's AST → a logical plan.

A plan is a function of the statement text and the catalog alone.
Planning decisions, in order:

1. classify the WHERE's top-level conjuncts (pushdown / equi-join /
   residual — see :mod:`~repro.relational.plan.pushdown`);
2. give every FROM item a leaf: an :class:`~repro.relational.plan.nodes
   .IndexLookup` intersecting every pushed ``col = literal`` conjunct
   that hits an existing sorted index (base tables only), else a full
   :class:`~repro.relational.plan.nodes.Scan`; pushed conjuncts become
   a per-leaf :class:`~repro.relational.plan.nodes.Filter` in written
   order (they *always* re-run, even when an index served candidates,
   so index contents can never change results), with zone-map prune
   specs attached over base tables (:func:`~repro.relational.plan.cost
   .prune_specs`);
3. join the leaves left-deep in FROM order: a
   :class:`~repro.relational.plan.nodes.HashJoin` when an unused
   equi-conjunct connects the tables joined so far to the next one,
   else a :class:`~repro.relational.plan.nodes.Product`;
4. wrap the residual conjuncts (if any, in written order) in a
   top-level Filter, then add the result chain (Project/Aggregate,
   Distinct, Sort, Limit) mirroring the select's clauses.

``tests/reference/syntactic_planner.py`` builds the same source tree
without the prune specs and is the differential oracle for zone
pruning. Table contents never enter a decision, so a cached plan is
dropped only when the catalog moves (see
:mod:`~repro.relational.plan.cache`), and one plan serves every
binding of a cached statement: its index keys and prune specs hold the
parameter, not its value, and are resolved when the plan runs.
"""

from __future__ import annotations

from typing import Any

from ...errors import ExecutionError
from ...sql import ast
from . import cost
from .nodes import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    IndexLookup,
    Limit,
    Plan,
    Product,
    Project,
    Scan,
    SingleRow,
    Sort,
)
from .pushdown import _indexable_pair, classify_where


def build_plan(database: Any, select: ast.Select) -> Plan:
    """Build a :class:`Plan` for one select arm (``select.union`` is the
    caller's concern — each arm is planned and cached separately)."""
    binding_columns: dict[str, tuple[str, ...]] = {}
    for table_ref in select.tables:
        name = table_ref.binding_name
        if name in binding_columns:
            raise ExecutionError(
                f"duplicate table name or alias {name!r} in FROM clause; "
                "use aliases to distinguish"
            )
        binding_columns[name] = tuple(
            database.schema(table_ref.table).column_names
        )

    classified = classify_where(select.where, binding_columns)
    source = _build_source(database, select, binding_columns, classified)
    root = _build_result_chain(select, source)
    return Plan(select, source, root, binding_columns)


def _index_keys(database: Any, table_ref: Any, binding: str,
                pushed: Any) -> tuple[tuple[str, str, Any], ...]:
    """The ``(index_name, column, operand)`` keys of a leaf's pushed
    equality conjuncts that existing sorted indexes serve, in written
    order."""
    table = database.table(table_ref.table)
    keys: list[tuple[str, str, Any]] = []
    for conjunct in pushed:
        pair = _indexable_pair(
            conjunct, {binding, table_ref.table}, table.schema
        )
        if pair is None:
            continue
        column, operand = pair
        index = table.index_on(column)
        if index is not None:
            keys.append((index.name, column, operand))
    return tuple(keys)


def _connecting_keys(joins: Any, used_joins: list[bool], joined: set[str],
                     new_binding: str) -> tuple[list[Any], list[Any]]:
    """Equi-join keys connecting the already-joined bindings to
    ``new_binding``; marks the conjuncts it consumes as used."""
    left_keys: list[Any] = []
    right_keys: list[Any] = []
    for position, (left_expr, left_bindings, right_expr,
                   right_bindings) in enumerate(joins):
        if used_joins[position]:
            continue
        if left_bindings <= joined and right_bindings == {new_binding}:
            left_keys.append(left_expr)
            right_keys.append(right_expr)
        elif right_bindings <= joined and left_bindings == {new_binding}:
            left_keys.append(right_expr)
            right_keys.append(left_expr)
        else:
            continue
        used_joins[position] = True
    return left_keys, right_keys


def _with_residual(source: Any, classified: Any, used_joins: Any) -> Any:
    """Wrap the residual filter (plus never-connected equi-join
    conjuncts demoted back to plain equalities) around ``source``."""
    residual = list(classified.residual)
    for used, join in zip(used_joins, classified.joins):
        if not used:
            left_expr, _, right_expr, _ = join
            residual.append(ast.BinaryOp("=", left_expr, right_expr))
    if not residual:
        return source
    return Filter(source, tuple(residual), residual=True)


def _build_source(database: Any, select: Any, binding_columns: Any,
                  classified: Any) -> Any:
    used_joins = [False] * len(classified.joins)
    if not select.tables:
        return _with_residual(SingleRow(), classified, used_joins)

    layers = cost.kind_layers(database, select.tables)
    joined: set[str] = set()
    source: Any = None
    for table_ref in select.tables:
        binding = table_ref.binding_name
        leaf = _leaf(database, table_ref, binding, binding_columns[binding],
                     tuple(classified.pushed.get(binding, ())), layers)
        if source is None:
            source = leaf
        else:
            left_keys, right_keys = _connecting_keys(
                classified.joins, used_joins, joined, binding
            )
            if left_keys:
                source = HashJoin(source, leaf, tuple(left_keys),
                                  tuple(right_keys))
            else:
                source = Product(source, leaf)
        joined.add(binding)
    return _with_residual(source, classified, used_joins)


def _leaf(database: Any, table_ref: Any, binding: str,
          columns: tuple[str, ...], pushed: tuple[Any, ...],
          layers: Any) -> Any:
    """One FROM item's leaf: an index lookup on every indexed equality
    key of its pushed conjuncts (base tables only), else a scan, under
    a filter of the pushed conjuncts in written order with their
    zone-map prune specs."""
    leaf: Any = None
    if isinstance(table_ref, ast.BaseTableRef):
        keys = _index_keys(database, table_ref, binding, pushed)
        if keys:
            leaf = IndexLookup(table_ref, binding, columns, keys)
    if leaf is None:
        leaf = Scan(table_ref, binding, columns)
    if not pushed:
        return leaf
    specs = cost.prune_specs(database, table_ref, binding, pushed, layers)
    return Filter(leaf, pushed, prune_specs=specs)


# ---------------------------------------------------------------------------
# the result chain


def _build_result_chain(select: Any, source: Any) -> Any:
    from ..expressions import contains_aggregate

    items = _output_names(select)
    grouped = bool(select.group_by) or any(
        isinstance(item, ast.SelectItem) and contains_aggregate(item.expression)
        for item in select.items
    ) or (select.having is not None and contains_aggregate(select.having))
    root: Any
    if grouped:
        root = Aggregate(source, items, select.group_by, select.having)
    else:
        root = Project(source, items)
    if select.distinct:
        root = Distinct(root)
    if select.order_by:
        root = Sort(root, select.order_by)
    if select.limit is not None:
        root = Limit(root, select.limit)
    return root


def _output_names(select: Any) -> tuple[str, ...]:
    """Output column labels for explain (``*`` kept symbolic)."""
    names: list[str] = []
    for position, item in enumerate(select.items):
        if isinstance(item, ast.Star):
            names.append(f"{item.qualifier}.*" if item.qualifier else "*")
        elif item.alias:
            names.append(item.alias)
        elif isinstance(item.expression, ast.ColumnRef):
            names.append(item.expression.column)
        else:
            names.append(f"col{position + 1}")
    return tuple(names)
