"""Schema-resolution pass: names, types and arities against the catalog.

Finds the semantic errors that previously surfaced only when a rule
first fired: unknown tables and columns (RPL001/RPL002), ambiguous bare
column references (RPL003), comparisons between incomparable types
(RPL004), insert arity mismatches (RPL005) and assignments or insert
values whose static type cannot satisfy the column's declared type
(RPL006).

Resolution follows the evaluator's scope rules: a select's FROM clause
opens a scope; subqueries see their own scope first, then the enclosing
scopes (correlated references); a bare column is ambiguous when two
tables of the *same* scope level supply it. Transition tables resolve to
the schema of their underlying base table. Type inference is
conservative: a finding is only emitted when both sides' types are
statically known — unknown stays silent, so the pass cannot produce
false positives from inference gaps.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...relational.types import SqlType
from ...sql import ast
from ...sql.spans import span_of
from .base import register_pass
from .context import LintContext
from .diagnostics import Diagnostic, make

_PASS = "schema"

_NUMERIC = frozenset({SqlType.INTEGER, SqlType.FLOAT})

_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})


class _Scope:
    """One FROM-clause scope level: binding name → schema (None when the
    table itself was unknown, which suppresses cascading column errors)."""

    def __init__(self) -> None:
        self.bindings: dict[str, object] = {}
        self.has_unknown = False

    def bind(self, name: str, schema: object) -> None:
        self.bindings[name] = schema
        if schema is None:
            self.has_unknown = True


def _type_group(sql_type: SqlType) -> str:
    if sql_type in _NUMERIC:
        return "numeric"
    if sql_type is SqlType.VARCHAR:
        return "text"
    return "boolean"


def _comparable(left: SqlType, right: SqlType) -> bool:
    return _type_group(left) == _type_group(right)


def _assignable(column_type: SqlType, value_type: SqlType) -> bool:
    """Can a value of ``value_type`` be stored in ``column_type``?

    Mirrors :func:`repro.relational.types.coerce_value`: numeric widths
    interconvert (FLOAT→INTEGER only for integral values, which statics
    cannot rule out), everything else must match groups exactly.
    """
    return _type_group(column_type) == _type_group(value_type)


@register_pass(_PASS, scope="rule",
               description="resolve names, types and arities")
def run(context: LintContext) -> Iterable[Diagnostic]:
    out: list[Diagnostic] = []
    for rule in context.scoped_rules():
        checker = _Checker(context, rule.name, out)
        if rule.condition is not None:
            checker.check_expression(rule.condition, [])
        if isinstance(rule.action, ast.OperationBlock):
            for operation in rule.action.operations:
                checker.check_operation(operation)
    if context.only_rule is None:
        for statement, _span in context.statements:
            if isinstance(statement, ast.OperationBlock):
                checker = _Checker(context, None, out)
                for operation in statement.operations:
                    checker.check_operation(operation)
    return out


class _Checker:
    """Resolution/typing walker for one rule (or workload statement)."""

    def __init__(self, context: LintContext, rule: Optional[str],
                 out: list[Diagnostic]) -> None:
        self.context = context
        self.rule = rule
        self.out = out

    def emit(self, code: str, message: str, node: object = None,
             hint: Optional[str] = None) -> None:
        self.out.append(make(
            code, message, span=span_of(node) if node is not None else None,
            rule=self.rule, hint=hint, pass_name=_PASS,
        ))

    # ------------------------------------------------------------------
    # scopes

    def _open_scope(self, select: ast.Select) -> _Scope:
        scope = _Scope()
        for table_ref in select.tables:
            if isinstance(table_ref, ast.BaseTableRef):
                schema = self.context.schema(table_ref.table)
                if schema is None:
                    self.emit(
                        "RPL001",
                        f"unknown table {table_ref.table!r}",
                        table_ref,
                        hint="create the table first, or fix the name",
                    )
                scope.bind(table_ref.binding_name, schema)
            elif isinstance(table_ref, ast.TransitionTableRef):
                schema = self.context.schema(table_ref.table)
                if schema is None:
                    self.emit(
                        "RPL001",
                        "unknown table "
                        f"{table_ref.table!r} in transition-table reference",
                        table_ref,
                    )
                elif (
                    table_ref.column is not None
                    and not schema.has_column(table_ref.column)
                ):
                    self.emit(
                        "RPL002",
                        f"table {table_ref.table!r} has no column "
                        f"{table_ref.column!r}",
                        table_ref,
                    )
                scope.bind(table_ref.binding_name, schema)
        return scope

    def _resolve_column(self, ref: ast.ColumnRef,
                        scopes: list[_Scope]) -> Optional[SqlType]:
        """Resolve a column reference; emits RPL001/RPL002/RPL003.

        Returns the column's type when resolution succeeds uniquely.
        """
        if ref.qualifier is not None:
            for scope in scopes:
                if ref.qualifier in scope.bindings:
                    schema = scope.bindings[ref.qualifier]
                    if schema is None:
                        return None  # table itself already reported
                    if not schema.has_column(ref.column):
                        self.emit(
                            "RPL002",
                            f"table {schema.name!r} has no column "
                            f"{ref.column!r}",
                            ref,
                        )
                        return None
                    return schema.column(ref.column).sql_type
            self.emit(
                "RPL001",
                f"unknown table or alias {ref.qualifier!r}",
                ref,
                hint="qualify with a table listed in the FROM clause",
            )
            return None

        saw_unknown = False
        for scope in scopes:
            matches = [
                schema for schema in scope.bindings.values()
                if schema is not None and schema.has_column(ref.column)
            ]
            if len(matches) > 1:
                names = sorted({schema.name for schema in matches})
                self.emit(
                    "RPL003",
                    f"column {ref.column!r} is ambiguous: it exists in "
                    f"{', '.join(names)}",
                    ref,
                    hint="qualify the reference, e.g. "
                         f"{names[0]}.{ref.column}",
                )
                return None
            if matches:
                return matches[0].column(ref.column).sql_type
            saw_unknown = saw_unknown or scope.has_unknown
        if not saw_unknown:
            self.emit(
                "RPL002",
                f"unknown column {ref.column!r}",
                ref,
            )
        return None

    # ------------------------------------------------------------------
    # expressions

    def check_expression(self, expr: object,
                         scopes: list[_Scope]) -> Optional[SqlType]:
        """Resolve and type one expression; returns its static type."""
        if expr is None or isinstance(expr, ast.Star):
            return None
        if isinstance(expr, ast.Literal):
            return self._literal_type(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr, scopes)
        if isinstance(expr, ast.UnaryOp):
            operand = self.check_expression(expr.operand, scopes)
            if expr.op == "not":
                return SqlType.BOOLEAN
            return operand if operand in _NUMERIC else None
        if isinstance(expr, ast.BinaryOp):
            left = self.check_expression(expr.left, scopes)
            right = self.check_expression(expr.right, scopes)
            if expr.op in _COMPARISON_OPS:
                if left is not None and right is not None and not _comparable(
                    left, right
                ):
                    self.emit(
                        "RPL004",
                        f"cannot compare {left.value} with {right.value} "
                        f"(operator {expr.op!r})",
                        expr,
                    )
                return SqlType.BOOLEAN
            if expr.op in ("and", "or"):
                return SqlType.BOOLEAN
            if expr.op == "||":
                return SqlType.VARCHAR
            # arithmetic
            if left is SqlType.INTEGER and right is SqlType.INTEGER \
                    and expr.op != "/":
                return SqlType.INTEGER
            if left in _NUMERIC and right in _NUMERIC:
                return SqlType.FLOAT
            return None
        if isinstance(expr, ast.IsNull):
            self.check_expression(expr.operand, scopes)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Between):
            operand = self.check_expression(expr.operand, scopes)
            for bound in (expr.low, expr.high):
                bound_type = self.check_expression(bound, scopes)
                if operand is not None and bound_type is not None \
                        and not _comparable(operand, bound_type):
                    self.emit(
                        "RPL004",
                        f"cannot compare {operand.value} with "
                        f"{bound_type.value} (BETWEEN bound)",
                        bound,
                    )
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Like):
            operand = self.check_expression(expr.operand, scopes)
            self.check_expression(expr.pattern, scopes)
            if operand is not None and operand is not SqlType.VARCHAR:
                self.emit(
                    "RPL004",
                    f"LIKE requires a varchar operand, got {operand.value}",
                    expr,
                )
            return SqlType.BOOLEAN
        if isinstance(expr, ast.InList):
            operand = self.check_expression(expr.operand, scopes)
            for item in expr.items:
                item_type = self.check_expression(item, scopes)
                if operand is not None and item_type is not None \
                        and not _comparable(operand, item_type):
                    self.emit(
                        "RPL004",
                        f"cannot compare {operand.value} with "
                        f"{item_type.value} (IN list item)",
                        item,
                    )
            return SqlType.BOOLEAN
        if isinstance(expr, ast.InSelect):
            self.check_expression(expr.operand, scopes)
            self.check_select(expr.select, scopes)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Exists):
            self.check_select(expr.select, scopes)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.QuantifiedComparison):
            self.check_expression(expr.operand, scopes)
            self.check_select(expr.select, scopes)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.ScalarSelect):
            return self.check_select(expr.select, scopes)
        if isinstance(expr, ast.FunctionCall):
            arg_types = [
                self.check_expression(arg, scopes) for arg in expr.args
            ]
            return self._function_type(expr.name, arg_types)
        if isinstance(expr, ast.CaseExpression):
            result: Optional[SqlType] = None
            for condition, value in expr.branches:
                self.check_expression(condition, scopes)
                value_type = self.check_expression(value, scopes)
                result = result or value_type
            if expr.default is not None:
                default_type = self.check_expression(expr.default, scopes)
                result = result or default_type
            return result
        return None

    def check_select(self, select: ast.Select,
                     outer: list[_Scope]) -> Optional[SqlType]:
        """Check a select; returns the type of its single output column
        when there is exactly one (for scalar-subquery typing)."""
        scope = self._open_scope(select)
        scopes = [scope] + outer
        item_type: Optional[SqlType] = None
        for item in select.items:
            if isinstance(item, ast.SelectItem):
                item_type = self.check_expression(item.expression, scopes)
            elif isinstance(item, ast.Star) and item.qualifier is not None:
                if not any(
                    item.qualifier in level.bindings for level in scopes
                ):
                    self.emit(
                        "RPL001",
                        f"unknown table or alias {item.qualifier!r}",
                        item,
                    )
        self.check_expression(select.where, scopes)
        for expr in select.group_by:
            self.check_expression(expr, scopes)
        self.check_expression(select.having, scopes)
        for order in select.order_by:
            self.check_expression(order.expression, scopes)
        if select.union is not None:
            self.check_select(select.union, outer)
        if len(select.items) == 1 and isinstance(
            select.items[0], ast.SelectItem
        ):
            return item_type
        return None

    # ------------------------------------------------------------------
    # operations

    def check_operation(self, operation: object) -> None:
        if isinstance(operation, ast.InsertValues):
            self._check_insert_values(operation)
        elif isinstance(operation, ast.InsertSelect):
            self._check_insert_select(operation)
        elif isinstance(operation, ast.Delete):
            self._check_delete(operation)
        elif isinstance(operation, ast.Update):
            self._check_update(operation)
        elif isinstance(operation, ast.SelectOperation):
            self.check_select(operation.select, [])

    def _target_schema(self, operation: object, table: str) -> object:
        schema = self.context.schema(table)
        if schema is None:
            self.emit("RPL001", f"unknown table {table!r}", operation)
        return schema

    def _check_column_list(self, operation: object, schema: object,
                           columns: tuple) -> bool:
        ok = True
        for column in columns:
            if not schema.has_column(column):
                self.emit(
                    "RPL002",
                    f"table {schema.name!r} has no column {column!r}",
                    operation,
                )
                ok = False
        return ok

    def _check_insert_values(self, operation: ast.InsertValues) -> None:
        schema = self._target_schema(operation, operation.table)
        if schema is None:
            for row in operation.rows:
                for value in row:
                    self.check_expression(value, [])
            return
        if operation.columns:
            if not self._check_column_list(operation, schema,
                                           operation.columns):
                return
            expected = len(operation.columns)
            target_types = [
                schema.column(name).sql_type for name in operation.columns
            ]
        else:
            expected = schema.arity
            target_types = [column.sql_type for column in schema.columns]
        for row in operation.rows:
            if len(row) != expected:
                self.emit(
                    "RPL005",
                    f"insert into {operation.table!r} expects {expected} "
                    f"value(s), got {len(row)}",
                    row[0] if row else operation,
                )
                continue
            for target, value in zip(target_types, row):
                value_type = self.check_expression(value, [])
                if value_type is not None and not _assignable(
                    target, value_type
                ):
                    self.emit(
                        "RPL006",
                        f"{value_type.value} value cannot be stored in a "
                        f"{target.value} column of {operation.table!r}",
                        value,
                    )

    def _check_insert_select(self, operation: ast.InsertSelect) -> None:
        schema = self._target_schema(operation, operation.table)
        self.check_select(operation.select, [])
        if schema is None:
            return
        if operation.columns and not self._check_column_list(
            operation, schema, operation.columns
        ):
            return
        expected = len(operation.columns) if operation.columns \
            else schema.arity
        if any(isinstance(item, ast.Star) for item in operation.select.items):
            return  # output arity depends on source schemas; skip
        produced = len(operation.select.items)
        if produced != expected:
            self.emit(
                "RPL005",
                f"insert into {operation.table!r} expects {expected} "
                f"column(s), the select produces {produced}",
                operation.select,
            )

    def _check_delete(self, operation: ast.Delete) -> None:
        schema = self._target_schema(operation, operation.table)
        scope = _Scope()
        scope.bind(operation.table, schema)
        self.check_expression(operation.where, [scope])

    def _check_update(self, operation: ast.Update) -> None:
        schema = self._target_schema(operation, operation.table)
        scope = _Scope()
        scope.bind(operation.table, schema)
        for assignment in operation.assignments:
            value_type = self.check_expression(assignment.expression, [scope])
            if schema is None:
                continue
            if not schema.has_column(assignment.column):
                self.emit(
                    "RPL002",
                    f"table {operation.table!r} has no column "
                    f"{assignment.column!r}",
                    assignment,
                )
                continue
            target = schema.column(assignment.column).sql_type
            if value_type is not None and not _assignable(target, value_type):
                self.emit(
                    "RPL006",
                    f"{value_type.value} value cannot be stored in "
                    f"{target.value} column "
                    f"{operation.table}.{assignment.column}",
                    assignment.expression,
                )
        self.check_expression(operation.where, [scope])

    # ------------------------------------------------------------------
    # typing helpers

    @staticmethod
    def _literal_type(value: object) -> Optional[SqlType]:
        if value is None:
            return None
        if isinstance(value, bool):
            return SqlType.BOOLEAN
        if isinstance(value, int):
            return SqlType.INTEGER
        if isinstance(value, float):
            return SqlType.FLOAT
        if isinstance(value, str):
            return SqlType.VARCHAR
        return None

    @staticmethod
    def _function_type(name: str,
                       arg_types: list[Optional[SqlType]]) -> Optional[SqlType]:
        if name in ("count", "length"):
            return SqlType.INTEGER
        if name in ("sum", "avg", "round"):
            return SqlType.FLOAT
        if name in ("upper", "lower", "substr", "trim", "replace"):
            return SqlType.VARCHAR
        if name in ("min", "max", "abs", "coalesce", "nullif"):
            return arg_types[0] if arg_types else None
        if name == "mod":
            return SqlType.INTEGER
        return None
