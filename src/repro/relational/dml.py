"""Execution of insert/delete/update operations with affected sets.

Section 2.1 of the paper defines, for each SQL operation, an *affected
set* — the tuple handles (plus columns, for updates) the operation
touched. Those per-operation records are the raw material for transition
effects (Section 2.2) and for the per-rule transition information of the
Figure 1 algorithm, so this module returns them from every execution.

Semantics implemented exactly as the paper specifies:

* ``delete``/``update`` first *identify* the qualifying tuples against the
  pre-operation state, then mutate — an update's assignment expressions
  see the old tuple values, and a predicate cannot observe the operation's
  own partial effects;
* ``insert ... (select ...)`` fully evaluates the select before inserting
  (so inserting a table into itself cannot loop);
* an update's affected set records the tuple and column "regardless of
  whether a value is actually changed".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from ..sql import ast
from .expressions import Scope
from .select import BaseTableResolver, evaluate_select


# ---------------------------------------------------------------------------
# per-operation effect records (the paper's "affected sets", with the old
# values Figure 1's trans-info needs)


@dataclass(frozen=True)
class InsertEffect:
    """Affected set of an insert: handles of the new tuples."""

    table: str
    handles: tuple

    @property
    def kind(self):
        return "insert"

    @property
    def rows_affected(self):
        return len(self.handles)


@dataclass(frozen=True)
class DeleteEffect:
    """Affected set of a delete: handles plus each tuple's final row value
    (the value just before this deletion — Figure 1's ``old-state``)."""

    table: str
    entries: tuple  # of (handle, old_row)

    @property
    def kind(self):
        return "delete"

    @property
    def rows_affected(self):
        return len(self.entries)


@dataclass(frozen=True)
class UpdateEffect:
    """Affected set of an update: per tuple, the updated columns and the
    row value just before this update (Figure 1's ``old-state`` value)."""

    table: str
    columns: tuple  # column names assigned by this update
    entries: tuple  # of (handle, old_row)

    @property
    def kind(self):
        return "update"

    @property
    def rows_affected(self):
        return len(self.entries)


@dataclass(frozen=True)
class SelectEffect:
    """§5.1 extension: tuples/columns read by a standalone select."""

    entries: tuple  # of (table, handle, columns)

    @property
    def kind(self):
        return "select"

    @property
    def rows_affected(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# the executor


class DmlExecutor:
    """Executes the operations of an operation block, one at a time.

    ``resolver`` supplies FROM-clause resolution for any embedded selects;
    the rule engine passes a transition-table-aware resolver when running
    rule actions. ``outer_scope`` (optional) gives embedded expressions an
    enclosing scope — unused by plain SQL but kept for symmetry.
    """

    def __init__(self, database, resolver=None, track_selects=False):
        self.database = database
        self.resolver = resolver or BaseTableResolver(database)
        self.track_selects = track_selects
        from .expressions import Evaluator  # local to avoid cycle at import
        self._evaluator = Evaluator(database, self.resolver)

    # -- public API -------------------------------------------------------

    def execute_operation(self, operation):
        """Execute one operation; returns its effect record (or None for a
        select when select tracking is off)."""
        if isinstance(operation, ast.InsertValues):
            return self._execute_insert_values(operation)
        if isinstance(operation, ast.InsertSelect):
            return self._execute_insert_select(operation)
        if isinstance(operation, ast.Delete):
            return self._execute_delete(operation)
        if isinstance(operation, ast.Update):
            return self._execute_update(operation)
        if isinstance(operation, ast.SelectOperation):
            return self._execute_select_operation(operation)
        raise ExecutionError(
            f"unsupported operation {type(operation).__name__}"
        )

    def execute_block(self, block):
        """Execute all operations of a block; returns the effect list."""
        effects = []
        for operation in block.operations:
            effect = self.execute_operation(operation)
            if effect is not None:
                effects.append(effect)
        return effects

    # -- inserts ------------------------------------------------------------

    def _execute_insert_values(self, operation):
        schema = self.database.schema(operation.table)
        evaluate = self._evaluator.evaluate
        scope = Scope()  # binds no row, so one serves every value
        handles = []
        for row_exprs in operation.rows:
            # a bulk load is all literals: read them without the dispatch
            values = [
                expr.value if type(expr) is ast.Literal
                else evaluate(expr, scope)
                for expr in row_exprs
            ]
            full_row = self._arrange_columns(schema, operation.columns, values)
            handles.append(self.database.insert_row(operation.table, full_row))
        return InsertEffect(operation.table, tuple(handles))

    def _execute_insert_select(self, operation):
        schema = self.database.schema(operation.table)
        result = evaluate_select(self.database, operation.select, self.resolver)
        # Materialize fully before inserting: the paper's insert-with-select
        # first evaluates the embedded select, then inserts each tuple.
        handles = []
        for row in result.rows:
            full_row = self._arrange_columns(schema, operation.columns, row)
            handles.append(self.database.insert_row(operation.table, full_row))
        return InsertEffect(operation.table, tuple(handles))

    @staticmethod
    def _arrange_columns(schema, columns, values):
        if not columns:
            if len(values) != schema.arity:
                raise ExecutionError(
                    f"insert into {schema.name!r} expects {schema.arity} "
                    f"values, got {len(values)}"
                )
            return tuple(values)
        if len(columns) != len(values):
            raise ExecutionError(
                f"insert into {schema.name!r} names {len(columns)} columns "
                f"but provides {len(values)} values"
            )
        full_row = [None] * schema.arity
        for column, value in zip(columns, values):
            full_row[schema.column_position(column)] = value
        return tuple(full_row)

    # -- delete ---------------------------------------------------------------

    def _execute_delete(self, operation):
        matched = self._matching_tuples(operation.table, operation.where)
        entries = []
        for handle, row in matched:
            self.database.delete_row(operation.table, handle)
            entries.append((handle, row))
        return DeleteEffect(operation.table, tuple(entries))

    # -- update ---------------------------------------------------------------

    def _execute_update(self, operation):
        schema = self.database.schema(operation.table)
        columns = tuple(
            assignment.column for assignment in operation.assignments
        )
        for column in columns:
            schema.column_position(column)  # raises early on unknown column
        matched = self._matching_tuples(operation.table, operation.where)

        # Evaluate every assignment against the pre-update state first,
        # then apply — expressions must not see sibling tuples' new values.
        planned = []
        for handle, row in matched:
            scope = Scope()
            scope.bind(operation.table, schema.column_names, row)
            new_values = {
                assignment.column: self._evaluator.evaluate(
                    assignment.expression, scope
                )
                for assignment in operation.assignments
            }
            planned.append((handle, row, new_values))

        entries = []
        for handle, old_row, new_values in planned:
            self.database.update_row(operation.table, handle, new_values)
            entries.append((handle, old_row))
        return UpdateEffect(operation.table, columns, tuple(entries))

    # -- select (§5.1 extension) ----------------------------------------------

    def _execute_select_operation(self, operation):
        result = evaluate_select(
            self.database,
            operation.select,
            self.resolver,
            collect_handles=self.track_selects,
        )
        self.last_select_result = result
        if not self.track_selects:
            return None
        referenced = _referenced_columns(operation.select, self.database)
        entries = []
        for table, handle in result.touched or ():
            schema = self.database.schema(table)
            columns = referenced.get(table)
            if not columns:
                columns = set(schema.column_names)
            entries.append((table, handle, tuple(sorted(columns))))
        return SelectEffect(tuple(entries))

    # -- shared ---------------------------------------------------------------

    def _matching_tuples(self, table_name, where):
        """Identify qualifying (handle, row) pairs against the current state.

        Identification happens *before* any mutation, per §2.1. An
        indexed-equality conjunct (``col = literal``) narrows the scan to
        the index's candidates; the full predicate still decides.
        """
        from .plan.pushdown import index_candidates

        if self.database.on_table_read is not None:
            self.database.on_table_read(table_name)
        table = self.database.table(table_name)
        schema = table.schema
        if where is None:
            return table.items()
        candidates = index_candidates(where, table, {table_name})
        columns = schema.column_names
        from .compiled import vectorized_enabled

        if vectorized_enabled(self.database):
            from .compiled import BatchContext, run_batch_filter

            if candidates is None:
                batch = table.batch()
            else:
                batch = table.batch_for_handles(sorted(candidates))
            row_of = batch.row

            def scope_for(slot):
                scope = Scope()
                scope.bind(table_name, columns, row_of(slot))
                return scope

            ctx = BatchContext(
                batch.cols,
                scope_for,
                self._evaluator,
                self.database.vectorized_stats,
            )
            sel = run_batch_filter(
                self.database,
                (where,),
                ((table_name, columns),),
                ctx,
                batch.sel,
                table=table_name,
            )
            handles_col = batch.handles
            tuples = batch.tuples
            return [(handles_col[slot], tuples[slot]) for slot in sel]
        if candidates is None:
            pairs = table.items()
        else:
            pairs = [(handle, table.get(handle)) for handle in sorted(candidates)]
        matched = []
        if getattr(self.database, "enable_compiled_eval", False):
            from .compiled import program_for

            program = program_for(
                self.database, where, ((table_name, columns),), predicate=True
            )
            needs_scope = program.needs_scope
            evaluator = self._evaluator
            for handle, row in pairs:
                scope = None
                if needs_scope:
                    scope = Scope()
                    scope.bind(table_name, columns, row)
                if program.fn((row,), scope, evaluator) is True:
                    matched.append((handle, row))
            return matched
        for handle, row in pairs:
            scope = Scope()
            scope.bind(table_name, columns, row)
            if self._evaluator.evaluate_predicate(where, scope) is True:
                matched.append((handle, row))
        return matched


def _referenced_columns(select, database):
    """Map table name -> set of column names referenced at the top level of
    ``select`` (approximation used for the S effect component)."""
    referenced = {}
    alias_to_table = {}
    for table_ref in select.tables:
        if isinstance(table_ref, ast.BaseTableRef):
            alias_to_table[table_ref.binding_name] = table_ref.table
    for expression in _top_level_expressions(select):
        for node in ast.iter_expressions(expression):
            if isinstance(node, ast.ColumnRef):
                if node.qualifier is not None:
                    table = alias_to_table.get(node.qualifier)
                    if table is not None:
                        referenced.setdefault(table, set()).add(node.column)
                else:
                    for table in alias_to_table.values():
                        if database.schema(table).has_column(node.column):
                            referenced.setdefault(table, set()).add(node.column)
    return referenced


def _top_level_expressions(select):
    for item in select.items:
        if isinstance(item, ast.SelectItem):
            yield item.expression
    if select.where is not None:
        yield select.where
    yield from select.group_by
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expression
