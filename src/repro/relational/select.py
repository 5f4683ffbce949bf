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

Over a batch, projection is batch kernels and grouping a reduction
over column vectors; over scopes (the row path, restored join orders,
the reference) the interpreter projects, and its ``GroupScope`` groups
— the fallback and the oracle.

Table resolution is pluggable: :class:`BaseTableResolver` serves ordinary
tables; the rule engine supplies a resolver that additionally serves the
paper's logical *transition tables* (``inserted t``, ``deleted t``,
``old/new updated t[.c]``) out of per-rule transition information.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any, Optional

from ..errors import ExecutionError, ReproError
from ..records import Record
from ..sql import ast
from ..sql.params import bind
from .batch import entry_pairs
from .compiled import (
    BatchContext,
    Raised,
    batch_context,
    batch_program_for,
    layout_of,
    run_batch_expressions,
    run_batch_filter,
)
from .expressions import (
    EmptyGroupScope,
    Evaluator,
    GroupScope,
    Scope,
    aggregate_calls,
    contains_aggregate,
    reduce_aggregate,
)
from .plan.nodes import Aggregate
from .types import sort_key

#: projected output: ``(row, order keys)`` per result row
Projected = list[tuple[tuple[Any, ...], tuple[Any, ...]]]


class SelectResult(Record, frozen=False):
    """The outcome of evaluating a select: output column names and rows.

    ``touched`` is populated only when handle tracking was requested (the
    §5.1 ``selected`` extension): a list of ``(table_name, handle)`` pairs
    for base-table tuples that participated in some surviving FROM-product
    combination of the top-level select.
    """

    columns: list[str]
    rows: list[tuple[Any, ...]]
    touched: Optional[list[tuple[str, int]]] = None

    def __init__(self, columns: list[str], rows: list[tuple[Any, ...]],
                 touched: Optional[list[tuple[str, int]]] = None):
        self.columns = columns
        self.rows = rows
        self.touched = touched

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
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

    def column(self, name: Optional[str] = None) -> list[Any]:
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

    def __init__(self, database: Any) -> None:
        self.database = database

    def resolve(self, table_ref: Any) -> tuple[Any, Any]:
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

    def resolve_batch(self, table_ref: Any) -> Optional[tuple[Any, Any]]:
        """``(columns, batch)`` for a base-table reference, sharing the
        table's live column lists; None sends the caller to the
        row-at-a-time :meth:`resolve` (whose errors then surface)."""
        if isinstance(table_ref, ast.BaseTableRef):
            if self.database.on_table_read is not None:
                self.database.on_table_read(table_ref.table)
            table = self.database.table(table_ref.table)
            return table.schema.column_names, table.batch()
        return None


def evaluate_select(database: Any, select: ast.Select,
                    resolver: Any = None, outer: Any = None,
                    collect_handles: bool = False,
                    bound: Any = None) -> SelectResult:
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

    def __init__(self, database: Any, resolver: Any, collect_handles: bool,
                 bound: Any) -> None:
        self.database = database
        self.resolver = resolver
        self.evaluator = Evaluator(database, resolver, bound)
        self.collect_handles = collect_handles
        self.touched: list[tuple[str, int]] = []
        #: the running arm's plan (None under the reference seam)
        self.plan: Any = None

    def run(self, select: ast.Select, outer: Any) -> SelectResult:
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

    def _run_single(self, select: ast.Select, outer: Any) -> SelectResult:
        counters = self.database.counters
        self.plan = None
        bindings, scopes, batch = self._planned_scopes(select, outer, counters)

        if self.collect_handles:
            seen = set(self.touched)
            combinations: Iterable[Any] = (
                entry_pairs(batch) if batch is not None else (
                    getattr(scope, "touched_pairs", ()) for scope in scopes
                )
            )
            for pairs in combinations:
                for pair in pairs:
                    if pair is not None and pair not in seen:
                        seen.add(pair)
                        self.touched.append(pair)

        grouped = bool(select.group_by) or self._has_aggregates(select)
        if grouped and batch is not None:
            columns, projected = self._project_grouped_batch(
                select, batch, bindings, outer
            )
        elif grouped:
            columns, projected = self._project_grouped(
                select, scopes, bindings, outer
            )
        elif batch is not None:
            columns, projected = self._project_plain_batch(
                select, batch, bindings, outer
            )
        else:
            columns, projected = self._project_plain(select, scopes, bindings)

        if select.distinct:
            distinct: dict[tuple[Any, ...], tuple[Any, ...]] = {}
            for row, keys in projected:
                if row not in distinct:
                    distinct[row] = keys
            projected = list(distinct.items())

        if select.order_by:
            projected.sort(key=lambda pair: pair[1])

        rows = [row for row, _ in projected]
        if select.limit is not None:
            rows = rows[: select.limit]
        counters.rows_returned += len(rows)
        return SelectResult(columns, rows)

    # ------------------------------------------------------------------
    # FROM/WHERE handling

    def _planned_scopes(self, select: ast.Select, outer: Any,
                        counters: Any) -> tuple[Any, Any, Any]:
        """Compile (or fetch) the arm's plan and run its source pipeline;
        returns ``(bindings, scopes, batch)``. The surviving scopes are
        exactly the post-WHERE combinations of the FROM product
        (plan-invariance guarantee). Under vectorized evaluation a
        batchable pipeline — one binding, or hash joins and products over
        batchable inputs — comes back still columnar (scopes None) for the
        projection and grouping paths to consume directly."""
        # looked up per call: the e2e tracer wraps the module attribute
        from .plan.executor import execute_source_batched

        plan = self.database.statements.plan_for(
            select, self.database, self.evaluator.bound
        )
        self.plan = plan
        return execute_source_batched(
            plan, self.database, self.resolver, self.evaluator, outer,
            collect_handles=self.collect_handles, stats=counters,
        )

    # ------------------------------------------------------------------
    # projection

    @staticmethod
    def _has_aggregates(select: ast.Select) -> bool:
        for item in select.items:
            if isinstance(item, ast.SelectItem) and contains_aggregate(
                item.expression
            ):
                return True
        return contains_aggregate(select.having)

    def _expand_items(self, select: ast.Select,
                      bindings: Sequence[tuple[str, Any]]) -> Any:
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
    def _expanded(select: ast.Select,
                  bindings: Sequence[tuple[str, Any]]) -> Any:
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
    def _output_name(item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expression, ast.ColumnRef):
            return item.expression.column
        return f"col{position + 1}"

    def _output_names(self, items: Sequence[ast.SelectItem]) -> list[str]:
        return [self._output_name(item, i) for i, item in enumerate(items)]

    def _project_plain(self, select: ast.Select, scopes: list[Any],
                       bindings: Sequence[tuple[str, Any]]
                       ) -> tuple[list[str], Projected]:
        items = self._expand_items(select, bindings)
        return self._output_names(items), self._project_scopes(
            select, items, scopes
        )

    def _project_scopes(self, select: ast.Select,
                        items: Sequence[ast.SelectItem],
                        scopes: Iterable[Any]) -> Projected:
        """The interpreter's projection: items, then order keys, one
        scope (combination or group) at a time."""
        projected = []
        for scope in scopes:
            row = tuple(
                self.evaluator.evaluate(item.expression, scope) for item in items
            )
            keys = self._order_keys(select, scope)
            projected.append((row, keys))
        return projected

    def _batch_context(self, bindings: Sequence[tuple[str, Any]], batch: Any,
                       outer: Any) -> BatchContext:
        """A kernel context for projection/grouping over a surviving
        batch; fallback scopes mirror the row path's combination scopes."""
        return batch_context(
            batch, bindings, outer, self.evaluator,
            self.database.counters,
        )

    def _project_plain_batch(self, select: ast.Select, batch: Any,
                             bindings: Sequence[tuple[str, Any]], outer: Any
                             ) -> tuple[list[str], Projected]:
        """Projection as column slices: every select item and order key
        compiles to one batch kernel gathering its output column over
        the surviving selection vector."""
        items = self._expand_items(select, bindings)
        return self._output_names(items), self._project_batch(
            select, items, layout_of(bindings),
            self._batch_context(bindings, batch, outer), batch.sel,
        )

    def _project_batch(self, select: ast.Select,
                       items: Sequence[ast.SelectItem], layout: Any,
                       ctx: BatchContext, sel: Sequence[int]) -> Projected:
        """Items then order keys as batch kernels over ``sel``, in the
        row path's error order (row-major)."""
        value_lists = run_batch_expressions(
            self.database, [item.expression for item in items]
            + [order.expression for order in select.order_by],
            layout, ctx, sel,
        )
        item_lists = value_lists[:len(items)]
        order_lists = value_lists[len(items):]
        descending = [order.descending for order in select.order_by]
        projected = []
        for p in range(len(sel)):
            row = tuple(values[p] for values in item_lists)
            keys: tuple[Any, ...] = ()
            if order_lists:
                keys = tuple(
                    _order_key(values[p], desc)
                    for values, desc in zip(order_lists, descending)
                )
            projected.append((row, keys))
        return projected

    # ------------------------------------------------------------------
    # grouping

    def _project_grouped_batch(self, select: ast.Select, batch: Any,
                               bindings: Sequence[tuple[str, Any]],
                               outer: Any) -> tuple[list[str], Projected]:
        """Grouping as a reduction (``SUMMARIZE … ADD``): a group id per
        position, one argument vector per aggregate call reduced per
        group by :func:`reduce_aggregate` in member order, then HAVING,
        items and order keys as kernels over the *group batch* — each
        group's first member, so a plain column reads the representative
        row as ``GroupScope`` does and an aggregate call reads its
        reduced column."""
        items = self._expand_items(select, bindings)
        self._validate_grouped_items(select, items, bindings)
        columns = self._output_names(items)
        counters = self.database.counters
        sel = batch.sel
        if not sel and not select.group_by:
            # no member, no representative: the interpreter's empty
            # group answers (count 0, other aggregates NULL)
            names = [name for name, _ in bindings]
            return columns, self._project_groups(
                select, items, [EmptyGroupScope(names, parent=outer)]
            )
        counters.grouped_batches += 1
        self._mark_grouping("columnar")
        layout = layout_of(bindings)
        ctx = self._batch_context(bindings, batch, outer)
        gids, reps = self._group_ids(select, layout, ctx, sel)

        aggregates = {
            id(call): self._reduce(call, layout, ctx, sel, gids, reps)
            for expression in [item.expression for item in items]
            + [select.having] + [order.expression for order in select.order_by]
            for call in aggregate_calls(expression)
        }

        members: dict[int, list[int]] = {}
        member_scope = ctx.scope_for

        def group_scope_for(rep: int) -> GroupScope:
            # a fallback subtree over a group sees the interpreter's
            # GroupScope of the members, as on the row path
            if not members:
                for entry, gid in zip(sel, gids):
                    members.setdefault(reps[gid], []).append(entry)
            return GroupScope(
                [member_scope(entry) for entry in members[rep]], parent=outer
            )

        group_ctx = BatchContext(
            ctx.cols, group_scope_for, self.evaluator, counters,
            slots=ctx.slots, aggregates=aggregates,
        )
        kept: Sequence[int] = reps
        if select.having is not None:
            kept = run_batch_filter(
                self.database, (select.having,), layout, group_ctx, reps
            )
        return columns, self._project_batch(
            select, items, layout, group_ctx, kept
        )

    def _group_ids(self, select: ast.Select, layout: Any, ctx: BatchContext,
                   sel: Sequence[int]) -> tuple[list[int], list[int]]:
        """``(gids, reps)``: the group id of each selected position and
        each group's first member (one group without GROUP BY)."""
        if not select.group_by:
            return [0] * len(sel), [sel[0]]
        key_lists = run_batch_expressions(
            self.database, select.group_by, layout, ctx, sel
        )
        # one key column groups by its values: the same equality (and
        # hash) a one-tuple key has
        keys: Iterable[Any] = (
            key_lists[0] if len(key_lists) == 1 else zip(*key_lists)
        )
        group_of: dict[Any, int] = {}
        gids: list[int] = []
        reps: list[int] = []
        for entry, key in zip(sel, keys):
            gid = group_of.get(key)
            if gid is None:
                gid = group_of[key] = len(reps)
                reps.append(entry)
            gids.append(gid)
        return gids, reps

    def _reduce(self, call: ast.FunctionCall, layout: Any, ctx: BatchContext,
                sel: Sequence[int], gids: list[int],
                reps: list[int]) -> dict[int, Any]:
        """One aggregate call's column over the groups: group
        representative → value, or :class:`Raised` with the error the
        interpreter meets first evaluating the call for that group (its
        first failing member, in member order)."""
        if call.name == "count" and call.args \
                and isinstance(call.args[0], ast.Star):
            counts = Counter(gids)
            return {rep: counts[gid] for gid, rep in enumerate(reps)}
        if len(call.args) != 1:
            return dict.fromkeys(reps, Raised(ExecutionError(
                f"aggregate {call.name}() takes exactly 1 argument"
            )))
        program = batch_program_for(
            self.database, call.args[0], layout,
            statement=self.evaluator.statement,
        )
        self.database.counters.batches_scanned += 1
        buckets: list[list[Any]] = [[] for _ in reps]
        failed: dict[int, ReproError] = {}
        # the argument runs over every position once; after an error it
        # resumes past the failing position, skipping failed groups
        pending: Sequence[int] = range(len(sel))
        domain: Sequence[int] = sel
        while True:
            values, err = program.fn(ctx, domain)
            for k, value in zip(pending, values):
                if value is not None:
                    buckets[gids[k]].append(value)
            if err is None:
                break
            failed[gids[pending[len(values)]]] = err
            pending = [k for k in pending[len(values) + 1:]
                       if gids[k] not in failed]
            if not pending:
                break
            domain = [sel[k] for k in pending]
        column: dict[int, Any] = {}
        for gid, rep in enumerate(reps):
            if gid in failed:
                column[rep] = Raised(failed[gid])
                continue
            try:
                column[rep] = reduce_aggregate(call, buckets[gid])
            except ReproError as error:
                column[rep] = Raised(error)
        return column

    def _mark_grouping(self, mode: str) -> None:
        """Record on the plan's Aggregate node how grouping last ran."""
        node = None if self.plan is None else self.plan.root
        while node is not None and not isinstance(node, Aggregate):
            node = getattr(node, "child", None)
        if node is not None:
            node.mode = mode

    def _project_grouped(self, select: ast.Select, scopes: list[Any],
                         bindings: Sequence[tuple[str, Any]], outer: Any
                         ) -> tuple[list[str], Projected]:
        """Grouping over combination scopes through the interpreter's
        ``GroupScope`` — the row path's back end and the oracle the
        columnar reduction is held to."""
        items = self._expand_items(select, bindings)
        self._validate_grouped_items(select, items, bindings)
        columns = self._output_names(items)

        group_scopes: list[Scope]
        if select.group_by:
            groups: dict[tuple[Any, ...], list[Any]] = {}
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
        return columns, self._project_groups(select, items, group_scopes)

    def _project_groups(self, select: ast.Select,
                        items: Sequence[ast.SelectItem],
                        group_scopes: list[Scope]) -> Projected:
        """HAVING over every group, then items and order keys per
        surviving group, by the interpreter."""
        self.database.counters.group_scope_fallbacks += 1
        self._mark_grouping("GroupScope")
        if select.having is not None:
            group_scopes = [
                scope
                for scope in group_scopes
                if self.evaluator.evaluate_predicate(select.having, scope) is True
            ]
        return self._project_scopes(select, items, group_scopes)

    def _validate_grouped_items(self, select: ast.Select,
                                items: Sequence[ast.SelectItem],
                                bindings: Sequence[tuple[str, Any]]) -> None:
        """Non-aggregate select items in a grouped query must be grouping
        expressions (standard SQL restriction, enforced to catch mistakes
        early rather than silently using a representative row). A column
        reference matches a grouped one of the same name unless the two
        resolve to different FROM bindings (``y.b`` is not ``x.b``)."""
        group_exprs = set(select.group_by)
        grouped_refs = [
            group for group in group_exprs if isinstance(group, ast.ColumnRef)
        ]
        for item in items:
            expression = item.expression
            if contains_aggregate(expression):
                continue
            if expression in group_exprs:
                continue
            if isinstance(expression, ast.ColumnRef) and any(
                group.column == expression.column
                and _same_binding(group, expression, bindings)
                for group in grouped_refs
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

    def _order_keys(self, select: ast.Select, scope: Any) -> tuple[Any, ...]:
        return tuple(
            _order_key(self.evaluator.evaluate(order.expression, scope),
                       order.descending)
            for order in select.order_by
        )


def _owner(ref: ast.ColumnRef,
           bindings: Sequence[tuple[str, Any]]) -> Optional[str]:
    """The FROM binding ``ref`` resolves to, or None when it resolves to
    none of them (outer, ambiguous or unknown)."""
    if ref.qualifier is not None:
        return ref.qualifier if any(
            name == ref.qualifier for name, _ in bindings
        ) else None
    owners = [name for name, columns in bindings if ref.column in columns]
    return owners[0] if len(owners) == 1 else None


def _same_binding(group: ast.ColumnRef, item: ast.ColumnRef,
                  bindings: Sequence[tuple[str, Any]]) -> bool:
    group_owner = _owner(group, bindings)
    item_owner = _owner(item, bindings)
    return group_owner is None or item_owner is None \
        or group_owner == item_owner


def _order_key(value: Any, descending: bool) -> Any:
    key = sort_key(value)
    return _Reversed(key) if descending else key


class _Reversed:
    """Wraps a sort key to invert its ordering (for ORDER BY ... DESC)."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: Any) -> bool:
        return other.key < self.key

    def __eq__(self, other: Any) -> bool:
        return self.key == other.key
