"""``build_plan()``: one select arm's AST → a logical plan.

Planning decisions, in order:

1. classify the WHERE's top-level conjuncts (pushdown / equi-join /
   residual — see :mod:`~repro.relational.plan.pushdown`);
2. give every FROM item a leaf: an :class:`~repro.relational.plan.nodes
   .IndexLookup` when a pushed ``col = literal`` conjunct hits an
   existing sorted index (base tables only; keys chosen by estimated
   bucket size), else a full :class:`~repro.relational.plan.nodes.Scan`;
   pushed conjuncts become a per-leaf
   :class:`~repro.relational.plan.nodes.Filter` (they *always* re-run,
   even when an index served candidates, so index contents can never
   change results), sorted cheapest-and-most-selective first when every
   moved conjunct is provably total, with zone-map prune specs attached
   over base tables;
3. join the leaves greedily by estimated output size: a
   :class:`~repro.relational.plan.nodes.HashJoin` when an unused
   equi-conjunct connects the tables joined so far to the next one, else
   a :class:`~repro.relational.plan.nodes.Product`; a
   :class:`~repro.relational.plan.nodes.RestoreOrder` node restores the
   FROM enumeration order whenever the join order left it;
4. wrap the residual conjuncts (if any, ordered like pushed ones) in a
   top-level Filter, then add the result chain (Project/Aggregate,
   Distinct, Sort, Limit) mirroring the select's clauses.

Estimates come from :mod:`~repro.relational.plan.cost`, and every source
node carries ``est_rows`` for EXPLAIN. All tie-breaking is
strict-improvement-only over FROM-position iteration order, so on absent
statistics (empty tables) the tree is the *syntactic* one: FROM order,
written conjunct order, every index key. ``tests/reference/
syntactic_planner.py`` builds that tree unconditionally and is the
differential oracle for everything statistics decide. Plans depend on
table statistics, which is why the statement cache drops them when
``database.stats_epoch`` moves (see :mod:`~repro.relational.plan.cache`).

A cached statement's literals are parameters: every estimate here is
made with ``params``, the binding that met the cache miss, and the plan
then serves every other binding — its index keys and prune specs hold
the parameter, not its value, and are resolved when the plan runs.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

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
    RestoreOrder,
    Scan,
    SingleRow,
    Sort,
)
from .pushdown import _indexable_pair, classify_where


def build_plan(database: Any, select: ast.Select,
               params: Sequence[Any] = ()) -> Plan:
    """Build a :class:`Plan` for one select arm (``select.union`` is the
    caller's concern — each arm is planned and cached separately),
    costed with its parameters bound by ``params``."""
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
    source = _build_source(
        database, select, binding_columns, classified, params
    )
    root = _build_result_chain(select, source)
    return Plan(select, source, root, binding_columns)


def _index_candidates(database: Any, table_ref: Any, binding: str,
                      pushed: Any) -> list[tuple[Any, str, Any]]:
    """The ``(index, column, operand)`` candidates a leaf's pushed
    equality conjuncts could serve through existing sorted indexes."""
    table = database.table(table_ref.table)
    candidates: list[tuple[Any, str, Any]] = []
    for conjunct in pushed:
        pair = _indexable_pair(
            conjunct, {binding, table_ref.table}, table.schema
        )
        if pair is None:
            continue
        column, operand = pair
        index = table.index_on(column)
        if index is not None:
            candidates.append((index, column, operand))
    return candidates


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


def _with_residual(source: Any, classified: Any, used_joins: Any,
                   ordered: Optional[Callable[[list[Any]], Any]] = None) -> Any:
    """Wrap the residual filter (plus never-connected equi-join
    conjuncts demoted back to plain equalities) around ``source``."""
    residual = list(classified.residual)
    for used, join in zip(used_joins, classified.joins):
        if not used:
            left_expr, _, right_expr, _ = join
            residual.append(ast.BinaryOp("=", left_expr, right_expr))
    if not residual:
        return source
    if ordered is not None:
        residual = ordered(residual)
    return Filter(source, tuple(residual), residual=True)


def _build_source(database: Any, select: Any, binding_columns: Any,
                  classified: Any, params: Sequence[Any]) -> Any:
    optimizer = database.optimizer_stats
    optimizer.plans_costed += 1
    layers = cost.kind_layers(database, select.tables)

    if not select.tables:
        source = SingleRow()
        used_joins = [False] * len(classified.joins)
        return _with_residual(source, classified, used_joins)

    leaves: list[Any] = []       # Filter-wrapped (or bare) leaves, FROM order
    leaf_ests: list[Any] = []    # estimated output rows per leaf
    leaf_total: list[bool] = []  # are ALL of the leaf's pushed conjuncts total?
    refs_by_binding: dict[str, Any] = {}
    for table_ref in select.tables:
        binding = table_ref.binding_name
        refs_by_binding[binding] = table_ref
        pushed = tuple(classified.pushed.get(binding, ()))
        leaf, est, total = _cost_leaf(
            database, table_ref, binding, binding_columns[binding],
            pushed, layers, optimizer, params,
        )
        leaves.append(leaf)
        leaf_ests.append(est)
        leaf_total.append(total)

    order = list(range(len(leaves)))
    if len(leaves) > 1 and _reorder_safe(
        database, classified.joins, leaf_total, layers
    ):
        order = _greedy_join_order(
            database, select, classified.joins, refs_by_binding,
            binding_columns, leaf_ests,
        )
        if order != list(range(len(leaves))):
            optimizer.joins_reordered += 1

    used_joins = [False] * len(classified.joins)
    joined: set[str] = set()
    source: Any = None
    current_est: Any = 1.0
    for position in order:
        table_ref = select.tables[position]
        binding = table_ref.binding_name
        leaf = leaves[position]
        if source is None:
            source = leaf
            current_est = leaf_ests[position]
        else:
            current_est = _join_estimate(
                database, classified.joins, refs_by_binding,
                binding_columns, joined, current_est, binding,
                leaf_ests[position],
            )[0]
            left_keys, right_keys = _connecting_keys(
                classified.joins, used_joins, joined, binding
            )
            if left_keys:
                source = HashJoin(source, leaf, tuple(left_keys),
                                  tuple(right_keys),
                                  est_rows=current_est)
            else:
                source = Product(source, leaf, est_rows=current_est)
        joined.add(binding)

    if order != list(range(len(leaves))):
        positions = tuple(order.index(k) for k in range(len(leaves)))
        source = RestoreOrder(source, positions, est_rows=current_est)

    def ordered_residual(residual: list[Any]) -> Any:
        ranked = cost.order_conjuncts(
            database, residual, layers, None, params
        )
        if ranked is None or ranked == residual:
            return residual
        optimizer.conjuncts_reordered += 1
        return ranked

    return _with_residual(source, classified, used_joins, ordered_residual)


def _cost_leaf(database: Any, table_ref: Any, binding: str,
               columns: tuple[str, ...], pushed: Any, layers: Any,
               optimizer: Any,
               params: Sequence[Any]) -> tuple[Any, Any, bool]:
    """One FROM item's leaf under the cost model: selective index keys,
    ordered pushed conjuncts, zone-map prune specs, and an estimate.
    Returns ``(node, est_rows, all_pushed_total)``."""
    pushed = tuple(pushed)
    base_rows = cost.source_rows(database, table_ref)
    scanned = base_rows
    leaf: Any = None
    key_conjunct_ids: set[int] = set()
    if isinstance(table_ref, ast.BaseTableRef):
        candidates = _index_candidates(database, table_ref, binding, pushed)
        keys, scanned = cost.select_index_keys(
            candidates, base_rows, params
        )
        if keys:
            leaf = IndexLookup(table_ref, binding, columns, keys,
                               est_rows=scanned)
            kept = {(name, column) for name, column, _ in keys}
            for conjunct in pushed:
                pair = _indexable_pair(
                    conjunct, {binding, table_ref.table},
                    database.table(table_ref.table).schema,
                )
                if pair is not None and any(
                    column == pair[0] for _, column in kept
                ):
                    key_conjunct_ids.add(id(conjunct))
    if leaf is None:
        leaf = Scan(table_ref, binding, columns, est_rows=base_rows)

    total = all(
        cost.expression_kind(conjunct, layers, database) in ("b", "?")
        for conjunct in pushed
    )
    if pushed:
        # the index bucket already accounts for its key conjuncts; only
        # the remaining ones narrow the estimate further
        est = scanned * cost.filter_selectivity(
            database, table_ref,
            [c for c in pushed if id(c) not in key_conjunct_ids], params,
        )
        ordered = cost.order_conjuncts(database, list(pushed), layers,
                                       table_ref, params)
        if ordered is not None and ordered != list(pushed):
            optimizer.conjuncts_reordered += 1
            pushed = tuple(ordered)
        specs = cost.prune_specs(database, table_ref, binding, pushed,
                                 layers)
        leaf = Filter(leaf, pushed, prune_specs=specs, est_rows=est)
    else:
        est = scanned
    return leaf, est, total


def _reorder_safe(database: Any, joins: Any, leaf_total: list[bool],
                  layers: Any) -> bool:
    """Joining leaves out of FROM order changes which leaf's pushed
    filters evaluate first, and moves join conjuncts between hash keys
    and the residual — safe only when none of them can raise."""
    if not all(leaf_total):
        return False
    for left_expr, _, right_expr, _ in joins:
        equality = ast.BinaryOp("=", left_expr, right_expr)
        if cost.expression_kind(equality, layers, database) not in ("b", "?"):
            return False
    return True


def _join_estimate(database: Any, joins: Any, refs_by_binding: Any,
                   binding_columns: Any, joined: Any, left_est: Any,
                   new_binding: str, right_est: Any) -> tuple[Any, bool]:
    """Estimated output of joining the tree built so far (bindings
    ``joined``, cardinality ``left_est``) with ``new_binding``. Returns
    ``(rows, connected)``; without a connecting equi-conjunct the
    estimate is the Cartesian product."""
    est = left_est * right_est
    connected = False
    for left_expr, left_bindings, right_expr, right_bindings in joins:
        if (left_bindings <= joined and right_bindings == {new_binding}) or (
            right_bindings <= joined and left_bindings == {new_binding}
        ):
            ndv_left = cost.key_ndv(
                database, left_expr, refs_by_binding, binding_columns
            )
            ndv_right = cost.key_ndv(
                database, right_expr, refs_by_binding, binding_columns
            )
            est /= max(ndv_left, ndv_right, 1)
            connected = True
    return est, connected


def _greedy_join_order(database: Any, select: Any, joins: Any,
                       refs_by_binding: Any, binding_columns: Any,
                       leaf_ests: list[Any]) -> list[Any]:
    """Greedy join ordering by estimated output size.

    First the best ordered pair over all pairs, then repeatedly the
    remaining leaf whose join to the tree-so-far is estimated smallest.
    Candidates are iterated in FROM-position order and only a *strictly*
    better estimate displaces the incumbent, so full ties (e.g. empty
    tables, no statistics yet) reproduce the FROM order — and therefore
    the syntactic plan, exactly.
    """
    n = len(leaf_ests)
    bindings = [ref.binding_name for ref in select.tables]

    best_pair: Any = None
    best_est: Any = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            est, _ = _join_estimate(
                database, joins, refs_by_binding, binding_columns,
                {bindings[i]}, leaf_ests[i], bindings[j], leaf_ests[j],
            )
            if best_est is None or est < best_est:
                best_est = est
                best_pair = (i, j)
    order = list(best_pair)
    joined = {bindings[i] for i in order}
    current_est = best_est

    remaining = [k for k in range(n) if k not in order]
    while remaining:
        best_k: Any = None
        best_est = None
        for k in remaining:
            est, _ = _join_estimate(
                database, joins, refs_by_binding, binding_columns,
                joined, current_est, bindings[k], leaf_ests[k],
            )
            if best_est is None or est < best_est:
                best_est = est
                best_k = k
        order.append(best_k)
        joined.add(bindings[best_k])
        current_est = best_est
        remaining.remove(best_k)
    return order


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
