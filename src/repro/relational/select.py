"""Select evaluation: a planned FROM/WHERE under a shared projection.

The paper's semantics are defined over query *results*, not plans (§4).
Each select arm compiles to a logical plan
(:mod:`repro.relational.plan`) — per-table conjunct pushdown, index
lookups, hash equi-joins — kept with its statement in the database's
statement cache and reused across rule consideration rounds and
across the literals of a repeated statement shape; :meth:`_SelectExecutor._planned_scopes`
is the one seam between FROM/WHERE and the projection/aggregation back
end below it.

The auditable reference — the FROM product with the whole WHERE
evaluated per combination — lives in ``tests/reference/naive_select.py``
and plugs in at that seam; the planned path must return the same
columns, rows, order and touched handles (the plan-invariance guarantee,
``docs/semantics.md`` §8).

Table resolution is pluggable: :class:`BaseTableResolver` serves ordinary
tables; the rule engine supplies a resolver that additionally serves the
paper's logical *transition tables* (``inserted t``, ``deleted t``,
``old/new updated t[.c]``) out of per-rule transition information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ExecutionError
from ..sql import ast
from ..sql.params import bind
from .compiled import (
    BatchContext,
    batch_program_for,
    layout_of,
    program_for,
    run_batch_programs,
)
from .expressions import (
    EmptyGroupScope,
    Evaluator,
    GroupScope,
    Scope,
    contains_aggregate,
)
from .types import sort_key


@dataclass
class SelectResult:
    """The outcome of evaluating a select: output column names and rows.

    ``touched`` is populated only when handle tracking was requested (the
    §5.1 ``selected`` extension): a list of ``(table_name, handle)`` pairs
    for base-table tuples that participated in some surviving FROM-product
    combination of the top-level select.
    """

    columns: list
    rows: list
    touched: Optional[list] = None

    def as_dicts(self):
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self):
        """The single value of a 1x1 result.

        Raises:
            ExecutionError: if the result is not exactly one row/column.
        """
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]

    def column(self, name=None):
        """All values of one output column (the only one by default)."""
        if name is None:
            if len(self.columns) != 1:
                raise ExecutionError(
                    "column() without a name requires a single-column result"
                )
            index = 0
        else:
            try:
                index = self.columns.index(name)
            except ValueError:
                raise ExecutionError(f"no output column named {name!r}") from None
        return [row[index] for row in self.rows]


class BaseTableResolver:
    """Serves FROM-clause references against database tables only.

    Returns ``(columns, rows)`` — the column-name tuple and a list of row
    value tuples. Transition-table references are rejected; the rule
    engine swaps in :class:`repro.core.transition_tables.TransitionTableResolver`
    when evaluating rule conditions and actions.
    """

    def __init__(self, database):
        self.database = database

    def resolve(self, table_ref):
        if isinstance(table_ref, ast.BaseTableRef):
            if self.database.on_table_read is not None:
                self.database.on_table_read(table_ref.table)
            table = self.database.table(table_ref.table)
            return table.schema.column_names, table.rows()
        if isinstance(table_ref, ast.TransitionTableRef):
            raise ExecutionError(
                f"transition table '{table_ref.kind.value} {table_ref.table}' "
                "is only available inside a production rule"
            )
        raise ExecutionError(
            f"unsupported table reference {type(table_ref).__name__}"
        )

    def resolve_batch(self, table_ref):
        """``(columns, batch)`` for a base-table reference, sharing the
        table's live column lists; None sends the caller to the
        row-at-a-time :meth:`resolve` (whose errors then surface)."""
        if isinstance(table_ref, ast.BaseTableRef):
            if self.database.on_table_read is not None:
                self.database.on_table_read(table_ref.table)
            table = self.database.table(table_ref.table)
            return table.schema.column_names, table.batch()
        return None


def evaluate_select(database, select, resolver=None, outer=None,
                    collect_handles=False, bound=None):
    """Evaluate a :class:`repro.sql.ast.Select`; returns :class:`SelectResult`.

    ``outer`` is the enclosing scope for correlated subqueries (None for a
    top-level query). With ``collect_handles=True``, the result's
    ``touched`` lists the (table, handle) pairs of base-table tuples that
    survived the top-level WHERE — used by the §5.1 ``selected``
    transition-effect extension. ``bound`` names the cached statement
    ``select`` is part of and the values of its parameters (None: the
    select is a statement of its own, literals in place).
    """
    if resolver is None:
        resolver = BaseTableResolver(database)
    if bound is None:
        bound = database.statements.bound_node(select)
    executor = _SelectExecutor(database, resolver, collect_handles, bound)
    result = executor.run(select, outer)
    if collect_handles:
        result.touched = executor.touched
    return result


class _SelectExecutor:
    """One select evaluation (shared by top-level queries and subqueries)."""

    def __init__(self, database, resolver, collect_handles, bound):
        self.database = database
        self.resolver = resolver
        self.evaluator = Evaluator(database, resolver, bound)
        self.collect_handles = collect_handles
        self.touched = []

    def run(self, select, outer):
        result = self._run_single(select, outer)
        if select.union is not None:
            other = self.run(select.union, outer)
            if len(other.columns) != len(result.columns):
                raise ExecutionError(
                    f"UNION arms have different arities: {len(result.columns)} "
                    f"vs {len(other.columns)}"
                )
            rows = result.rows + other.rows
            if not select.union_all:
                rows = list(dict.fromkeys(rows))
            return SelectResult(result.columns, rows)
        return result

    # ------------------------------------------------------------------

    def _run_single(self, select, outer):
        stats = self.database.planner_stats
        bindings, scopes, batch = self._planned_scopes(select, outer, stats)

        if self.collect_handles:
            seen = set(self.touched)
            if batch is not None:
                if batch.handles is not None and batch.label is not None:
                    handles = batch.handles
                    label = batch.label
                    for slot in batch.sel:
                        pair = (label, handles[slot])
                        if pair not in seen:
                            seen.add(pair)
                            self.touched.append(pair)
            else:
                for scope in scopes:
                    for pair in getattr(scope, "touched_pairs", ()):
                        if pair not in seen:
                            seen.add(pair)
                            self.touched.append(pair)

        grouped = bool(select.group_by) or self._has_aggregates(select)
        if grouped:
            if batch is not None:
                # group/aggregate evaluation needs per-row scopes (the
                # GroupScope machinery); the batch still serves the
                # grouping keys below
                from .plan.executor import scopes_from_batch

                scopes = scopes_from_batch(bindings, batch, outer)
            columns, projected = self._project_grouped(
                select, scopes, bindings, outer, batch=batch
            )
        elif batch is not None:
            columns, projected = self._project_plain_batch(
                select, batch, bindings, outer
            )
        else:
            columns, projected = self._project_plain(select, scopes, bindings)

        if select.distinct:
            seen = {}
            for row, keys in projected:
                if row not in seen:
                    seen[row] = keys
            projected = list(seen.items())

        if select.order_by:
            projected.sort(key=lambda pair: pair[1])

        rows = [row for row, _ in projected]
        if select.limit is not None:
            rows = rows[: select.limit]
        stats.rows_returned += len(rows)
        return SelectResult(columns, rows)

    # ------------------------------------------------------------------
    # FROM/WHERE handling

    def _planned_scopes(self, select, outer, stats):
        """Compile (or fetch) the arm's plan and run its source pipeline;
        returns ``(bindings, scopes, batch)``. The surviving scopes are
        exactly the post-WHERE combinations of the FROM product
        (plan-invariance guarantee). Under vectorized evaluation a
        single-binding pipeline comes back as a still-columnar batch
        (scopes None) for the projection paths to consume directly."""
        from .plan.executor import execute_source_batched

        plan = self.database.statements.plan_for(
            select, self.database, stats, self.evaluator.bound
        )
        return execute_source_batched(
            plan,
            self.database,
            self.resolver,
            self.evaluator,
            outer,
            collect_handles=self.collect_handles,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # projection

    @staticmethod
    def _has_aggregates(select):
        for item in select.items:
            if isinstance(item, ast.SelectItem) and contains_aggregate(
                item.expression
            ):
                return True
        if select.having is not None and contains_aggregate(select.having):
            return True
        return False

    def _expand_items(self, select, bindings):
        """Expand ``*``/``t.*`` into explicit column references.

        ``bindings`` is a list of (binding_name, columns) pairs — a
        function of the catalog, so the statement's cache entry keeps
        the expansion (dropped with its programs when the schema
        moves): the nodes made here are what projection programs are
        compiled for, and a new node is a new program.
        """
        statement = self.evaluator.statement
        items = statement.star_items.get(id(select))
        if items is None:
            items = self._expanded(select, bindings)
            statement.star_items[id(select)] = items
        return items

    @staticmethod
    def _expanded(select, bindings):
        if not any(isinstance(item, ast.Star) for item in select.items):
            return select.items
        items = []
        for item in select.items:
            if isinstance(item, ast.Star):
                targets = bindings
                if item.qualifier is not None:
                    targets = [
                        binding for binding in bindings if binding[0] == item.qualifier
                    ]
                    if not targets:
                        raise ExecutionError(
                            f"unknown table or alias {item.qualifier!r} in "
                            f"{item.qualifier}.*"
                        )
                for name, columns in targets:
                    for column in columns:
                        items.append(
                            ast.SelectItem(ast.ColumnRef(column, qualifier=name))
                        )
            else:
                items.append(item)
        if not items:
            raise ExecutionError("select list is empty")
        return items

    @staticmethod
    def _output_name(item, position):
        if item.alias:
            return item.alias
        if isinstance(item.expression, ast.ColumnRef):
            return item.expression.column
        return f"col{position + 1}"

    def _project_plain(self, select, scopes, bindings):
        items = self._expand_items(select, bindings)
        columns = [self._output_name(item, i) for i, item in enumerate(items)]
        if getattr(self.database, "enable_compiled_eval", False) and scopes:
            return columns, self._project_plain_compiled(
                select, scopes, bindings, items
            )
        projected = []
        for scope in scopes:
            row = tuple(
                self.evaluator.evaluate(item.expression, scope) for item in items
            )
            keys = self._order_keys(select, scope)
            projected.append((row, keys))
        return columns, projected

    def _project_plain_compiled(self, select, scopes, bindings, items):
        """Projection through compiled item/order programs. The scopes are
        materialized either way (subquery fallbacks and the §5.1 handle
        tracking need them), so programs get both the aligned row tuples
        and the scope — column slots index the former, fallback subtrees
        resolve through the latter."""
        layout = layout_of(bindings)
        database = self.database
        evaluator = self.evaluator
        statement = evaluator.statement
        item_programs = [
            program_for(database, item.expression, layout,
                        statement=statement)
            for item in items
        ]
        order_programs = [
            program_for(database, order.expression, layout,
                        statement=statement)
            for order in select.order_by
        ]
        descending = [order.descending for order in select.order_by]
        projected = []
        for scope in scopes:
            rows = scope.rows
            row = tuple(
                program.fn(rows, scope, evaluator)
                for program in item_programs
            )
            if order_programs:
                keys = []
                for program, desc in zip(order_programs, descending):
                    key = sort_key(program.fn(rows, scope, evaluator))
                    keys.append(_Reversed(key) if desc else key)
                keys = tuple(keys)
            else:
                keys = ()
            projected.append((row, keys))
        return projected

    def _batch_context(self, bindings, batch, outer):
        """A kernel context for projection/grouping over a surviving
        batch; fallback scopes mirror the row path's combination scopes."""
        (name, columns), = bindings
        row_of = batch.row

        def scope_for(slot):
            scope = Scope(parent=outer)
            scope.bind(name, columns, row_of(slot))
            return scope

        return BatchContext(
            batch.cols, scope_for, self.evaluator,
            self.database.vectorized_stats,
        )

    def _project_plain_batch(self, select, batch, bindings, outer):
        """Projection as column slices: every select item and order key
        compiles to one batch kernel gathering its output column over
        the surviving selection vector."""
        items = self._expand_items(select, bindings)
        columns = [self._output_name(item, i) for i, item in enumerate(items)]
        database = self.database
        layout = layout_of(bindings)
        statement = self.evaluator.statement
        programs = [
            batch_program_for(database, item.expression, layout,
                              statement=statement)
            for item in items
        ]
        order_programs = [
            batch_program_for(database, order.expression, layout,
                              statement=statement)
            for order in select.order_by
        ]
        descending = [order.descending for order in select.order_by]
        vstats = database.vectorized_stats
        vstats.batches_scanned += 1
        value_lists, err = run_batch_programs(
            programs + order_programs,
            self._batch_context(bindings, batch, outer),
            batch.sel,
        )
        if err is not None:
            raise err
        item_count = len(programs)
        item_lists = value_lists[:item_count]
        order_lists = value_lists[item_count:]
        projected = []
        for p in range(len(batch.sel)):
            row = tuple(values[p] for values in item_lists)
            if order_lists:
                keys = []
                for values, desc in zip(order_lists, descending):
                    key = sort_key(values[p])
                    keys.append(_Reversed(key) if desc else key)
                keys = tuple(keys)
            else:
                keys = ()
            projected.append((row, keys))
        return columns, projected

    def _project_grouped(self, select, scopes, bindings, outer, batch=None):
        items = self._expand_items(select, bindings)
        self._validate_grouped_items(select, items)
        columns = [self._output_name(item, i) for i, item in enumerate(items)]

        if select.group_by:
            groups = {}
            if batch is not None:
                # grouping keys gather as key columns off the batch; the
                # aggregate items below stay interpreted over the
                # materialized member scopes (they need the GroupScope)
                layout = layout_of(bindings)
                programs = [
                    batch_program_for(self.database, expr, layout,
                                      statement=self.evaluator.statement)
                    for expr in select.group_by
                ]
                self.database.vectorized_stats.batches_scanned += 1
                key_lists, err = run_batch_programs(
                    programs,
                    self._batch_context(bindings, batch, outer),
                    batch.sel,
                )
                if err is not None:
                    raise err
                for p, scope in enumerate(scopes):
                    key = tuple(values[p] for values in key_lists)
                    groups.setdefault(key, []).append(scope)
            elif getattr(self.database, "enable_compiled_eval", False) and scopes:
                # grouping keys are per-input-row expressions, so they
                # compile like filter predicates; the aggregate items
                # below stay interpreted (they need the GroupScope)
                layout = layout_of(bindings)
                programs = [
                    program_for(self.database, expr, layout,
                                statement=self.evaluator.statement)
                    for expr in select.group_by
                ]
                for scope in scopes:
                    rows = scope.rows
                    key = tuple(
                        program.fn(rows, scope, self.evaluator)
                        for program in programs
                    )
                    groups.setdefault(key, []).append(scope)
            else:
                for scope in scopes:
                    key = tuple(
                        self.evaluator.evaluate(expr, scope)
                        for expr in select.group_by
                    )
                    groups.setdefault(key, []).append(scope)
            group_scopes = [
                GroupScope(members, parent=outer) for members in groups.values()
            ]
        elif scopes:
            group_scopes = [GroupScope(scopes, parent=outer)]
        else:
            names = [name for name, _ in bindings]
            group_scopes = [EmptyGroupScope(names, parent=outer)]

        if select.having is not None:
            group_scopes = [
                scope
                for scope in group_scopes
                if self.evaluator.evaluate_predicate(select.having, scope) is True
            ]

        projected = []
        for scope in group_scopes:
            row = tuple(
                self.evaluator.evaluate(item.expression, scope) for item in items
            )
            keys = self._order_keys(select, scope)
            projected.append((row, keys))
        return columns, projected

    def _validate_grouped_items(self, select, items):
        """Non-aggregate select items in a grouped query must be grouping
        expressions (standard SQL restriction, enforced to catch mistakes
        early rather than silently using a representative row)."""
        group_exprs = set(select.group_by)
        for item in items:
            expression = item.expression
            if contains_aggregate(expression):
                continue
            if expression in group_exprs:
                continue
            if isinstance(expression, ast.ColumnRef) and any(
                isinstance(group, ast.ColumnRef)
                and group.column == expression.column
                for group in group_exprs
            ):
                continue
            if isinstance(expression, (ast.Literal, ast.Param)):
                continue
            # two parameters are the same expression when the literals
            # they stand for are: compare (and report) as written
            params = self.evaluator.params
            expression = bind(expression, params)
            if params and expression in {
                bind(group, params) for group in group_exprs
            }:
                continue
            raise ExecutionError(
                "non-aggregate select item must appear in GROUP BY: "
                f"{expression!r}"
            )

    def _order_keys(self, select, scope):
        if not select.order_by:
            return ()
        keys = []
        for order in select.order_by:
            value = self.evaluator.evaluate(order.expression, scope)
            key = sort_key(value)
            if order.descending:
                key = _Reversed(key)
            keys.append(key)
        return tuple(keys)


class _Reversed:
    """Wraps a sort key to invert its ordering (for ORDER BY ... DESC)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key
