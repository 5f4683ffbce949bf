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

from ..errors import ExecutionError
from ..records import Record
from ..sql import ast
from .compiled import (
    batch_context,
    batch_program_for,
    run_batch_filter,
    run_batch_programs,
)
from .expressions import Evaluator, Scope
from .plan.pushdown import index_candidates
from .select import BaseTableResolver, evaluate_select


# ---------------------------------------------------------------------------
# per-operation effect records (the paper's "affected sets", with the old
# values Figure 1's trans-info needs)


class InsertEffect(Record):
    """Affected set of an insert: handles of the new tuples."""

    table: str
    handles: tuple

    def __init__(self, table, handles):
        setter = object.__setattr__
        setter(self, "table", table)
        setter(self, "handles", handles)

    @property
    def rows_affected(self):
        return len(self.handles)


class DeleteEffect(Record):
    """Affected set of a delete: handles plus each tuple's final row value
    (the value just before this deletion — Figure 1's ``old-state``)."""

    table: str
    entries: tuple  # of (handle, old_row)

    def __init__(self, table, entries):
        setter = object.__setattr__
        setter(self, "table", table)
        setter(self, "entries", entries)

    @property
    def rows_affected(self):
        return len(self.entries)


class UpdateEffect(Record):
    """Affected set of an update: per tuple, the updated columns and the
    row value just before this update (Figure 1's ``old-state`` value)."""

    table: str
    columns: tuple  # column names assigned by this update
    entries: tuple  # of (handle, old_row)

    def __init__(self, table, columns, entries):
        setter = object.__setattr__
        setter(self, "table", table)
        setter(self, "columns", columns)
        setter(self, "entries", entries)

    @property
    def rows_affected(self):
        return len(self.entries)


class SelectEffect(Record):
    """§5.1 extension: tuples/columns read by a standalone select."""

    entries: tuple  # of (table, handle, columns)

    def __init__(self, entries):
        object.__setattr__(self, "entries", entries)

    @property
    def rows_affected(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# the executor


class DmlExecutor:
    """Executes the operations of an operation block, one at a time.

    ``resolver`` supplies FROM-clause resolution for any embedded selects;
    the rule engine passes a transition-table-aware resolver when running
    rule actions. ``bound`` names the cached statement the operations
    belong to and the values of its parameters (see
    :class:`repro.relational.plan.cache.Bound`; None: every expression
    evaluated is a statement of its own, literals in place).
    """

    def __init__(self, database, resolver=None, track_selects=False,
                 bound=None):
        self.database = database
        self.resolver = resolver or BaseTableResolver(database)
        self.track_selects = track_selects
        self._evaluator = Evaluator(database, self.resolver, bound)

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
        rows = operation.rows
        if type(rows) is ast.LiteralRows:
            # all literals: the parsed value matrix goes in as one set
            return self._insert(operation, rows.values)
        if type(rows) is ast.Param:  # the same, of a cached statement
            return self._insert(
                operation, self._evaluator.params[rows.index]
            )
        # Rows holding expressions are evaluated and inserted in order:
        # a subquery in a later row sees the earlier rows.
        evaluate = self._evaluator.evaluate
        scope = Scope()  # binds no row, so one serves every value
        handles = []
        for row_exprs in rows:
            values = tuple(
                expr.value if type(expr) is ast.Literal
                else evaluate(expr, scope)
                for expr in row_exprs
            )
            handles += self._insert(operation, (values,)).handles
        return InsertEffect(operation.table, tuple(handles))

    def _execute_insert_select(self, operation):
        # Materialize fully before inserting: the paper's insert-with-select
        # first evaluates the embedded select, then inserts its tuples.
        result = evaluate_select(
            self.database, operation.select, self.resolver,
            bound=self._evaluator.bound,
        )
        return self._insert(operation, result.rows)

    def _insert(self, operation, rows):
        """Insert ``rows`` (value sequences in the operation's column
        order) as one set; returns the :class:`InsertEffect`."""
        table = operation.table
        schema = self.database.schema(table)
        names = operation.columns
        expected = len(names) if names else schema.arity
        malformed = None
        for position, row in enumerate(rows):
            if len(row) != expected:
                # the rows before it go in first, so that a bad value
                # among them is what gets reported
                malformed, rows = row, rows[:position]
                break
        handles = ()
        if rows:
            columns = list(zip(*rows))
            if names:
                nulls = (None,) * len(rows)
                named, columns = columns, [nulls] * schema.arity
                for name, values in zip(names, named):
                    columns[schema.column_position(name)] = values
            handles = tuple(self.database.insert_rows(table, columns))
        if malformed is not None:
            if names:
                raise ExecutionError(
                    f"insert into {table!r} names {len(names)} columns "
                    f"but provides {len(malformed)} values"
                )
            raise ExecutionError(
                f"insert into {table!r} expects {schema.arity} "
                f"values, got {len(malformed)}"
            )
        return InsertEffect(table, handles)

    # -- delete ---------------------------------------------------------------

    def _execute_delete(self, operation):
        handles, _ = self._matching(operation.table, operation.where)
        rows = self.database.delete_rows(operation.table, handles)
        return DeleteEffect(operation.table, tuple(zip(handles, rows)))

    # -- update ---------------------------------------------------------------

    def _execute_update(self, operation):
        table_name = operation.table
        schema = self.database.schema(table_name)
        assignments = operation.assignments
        columns = tuple(assignment.column for assignment in assignments)
        for column in columns:
            schema.column_position(column)  # raises early on unknown column
        handles, batch = self._matching(table_name, operation.where)

        # Evaluate every assignment against the pre-update state first,
        # then apply — expressions must not see sibling tuples' new values.
        expressions = [assignment.expression for assignment in assignments]
        if not handles:
            vectors = ()
        elif self.database.enable_vectorized_eval:
            vectors = self._assignment_vectors(schema, batch, expressions)
        else:
            names = schema.column_names
            evaluate = self._evaluator.evaluate
            planned = []
            for row in batch.rows():
                scope = Scope()
                scope.bind(table_name, names, row)
                planned.append([
                    evaluate(expression, scope) for expression in expressions
                ])
            vectors = zip(*planned)
        # a column assigned twice takes its last value
        assigned = dict(zip(columns, vectors))
        old_rows = self.database.assign_columns(
            table_name, handles, list(assigned), list(assigned.values())
        )
        return UpdateEffect(table_name, columns, tuple(zip(handles, old_rows)))

    def _assignment_vectors(self, schema, batch, expressions):
        """One value vector per expression over the matched tuples
        ``batch`` selects (in the table ``schema`` describes), through
        batch kernels; the error raised is the one evaluating tuple by
        tuple, expression by expression, meets first."""
        database = self.database
        table_name = schema.name
        layout = ((table_name, schema.column_names),)
        ctx = batch_context(batch, layout, None, self._evaluator,
                            database.counters)
        programs = [
            batch_program_for(database, expression, layout, table=table_name,
                              statement=self._evaluator.statement)
            for expression in expressions
        ]
        vectors, error = run_batch_programs(programs, ctx, batch.sel)
        if error is not None:
            raise error
        return vectors

    # -- select (§5.1 extension) ----------------------------------------------

    def _execute_select_operation(self, operation):
        result = evaluate_select(
            self.database,
            operation.select,
            self.resolver,
            collect_handles=self.track_selects,
            bound=self._evaluator.bound,
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

    def _matching(self, table_name, where):
        """Identify the qualifying tuples against the current state:
        ``(handles, batch)`` — their handles in scan order, and a batch
        over the table's storage selecting exactly them.

        Identification happens *before* any mutation, per §2.1. An
        indexed-equality conjunct (``col = literal``) narrows the scan to
        the index's candidates; the full predicate still decides.
        """
        if self.database.on_table_read is not None:
            self.database.on_table_read(table_name)
        table = self.database.table(table_name)
        candidates = None if where is None else index_candidates(
            where, table, {table_name}, self._evaluator.params
        )
        if candidates is None:
            batch = table.batch()
        else:
            batch = table.batch_for_handles(candidates)
        if where is not None:
            batch = batch.with_sel(self._matching_slots(batch, table, where))
        return list(map(batch.handles.__getitem__, batch.sel)), batch

    def _matching_slots(self, batch, table, where):
        """The slots of ``batch`` whose row satisfies ``where``."""
        table_name = table.schema.name
        columns = table.schema.column_names
        if self.database.enable_vectorized_eval:
            layout = ((table_name, columns),)
            ctx = batch_context(batch, layout, None, self._evaluator,
                                self.database.counters)
            return run_batch_filter(
                self.database, (where,), layout, ctx, batch.sel,
                table=table_name,
            )
        matched = []
        for slot, row in zip(batch.sel, batch.rows()):
            scope = Scope()
            scope.bind(table_name, columns, row)
            if self._evaluator.evaluate_predicate(where, scope) is True:
                matched.append(slot)
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
