"""The one scoped, typed walk over a rule: scopes → types → effects.

:class:`RuleWalk` visits a rule's condition and action (or a workload
statement) exactly once. Column references resolve to catalog
:class:`~repro.relational.types.SqlType`\\ s through the scope rules
the evaluator applies — a select's FROM clause opens a scope;
subqueries see their own scope first, then the enclosing ones
(correlated references); a bare column is ambiguous when two tables of
the *same* scope level supply it; transition tables resolve to the
schema of their base table. Each resolution yields, together:

* the **schema diagnostics** (pass tag ``schema``): unknown tables and
  columns (RPL001/RPL002), ambiguous bare references (RPL003),
  comparisons between incomparable types (RPL004), insert arity
  mismatches (RPL005), values whose static type cannot satisfy the
  column's declared type (RPL006);
* the **type diagnostics** (pass tag ``types``): arithmetic or string
  concatenation over an operand that can never be numeric/string
  (RPL401), incoherent CASE branches (RPL402), ``IN (select ...)`` /
  quantified comparison against an incomparable subquery column
  (RPL403), subqueries producing the wrong number of columns (RPL404),
  a float-typed value stored into an INTEGER column (RPL405);
* the rule's :class:`~repro.analysis.effects.sets.RuleEffects`: the
  column-level reads are charged where a reference resolves, the
  table-level scans where a scope opens, the writes per operation.

Typing is conservative: a finding is only emitted when both sides'
types are statically known — unknown stays silent, so inference gaps
cannot produce false positives. The walk stamps nothing on the AST:
execution never reads it. Where typing needs to know that a value is
provably NULL (a CASE branch), it asks the one totality analysis,
:func:`repro.relational.plan.cost.expression_kind`.
"""

from __future__ import annotations

from typing import Any, Optional

from ...relational.plan.cost import KIND_OF_TYPE, expression_kind
from ...relational.types import SqlType
from ...sql import ast
from ...sql.spans import span_of
from ..effects.sets import ANY_COLUMN, RuleEffects, operation_writes
from ..lint.context import LintRule, table_schema
from ..lint.diagnostics import Diagnostic, make

_NUMERIC = frozenset({SqlType.INTEGER, SqlType.FLOAT})

_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})

_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})


def _group(sql_type: SqlType) -> str:
    if sql_type in _NUMERIC:
        return "numeric"
    if sql_type is SqlType.VARCHAR:
        return "text"
    return "boolean"


def _comparable(left: Optional[SqlType], right: Optional[SqlType]) -> bool:
    """False only when both types are known and their groups differ.
    Assignability is the same test: numeric widths interconvert
    (FLOAT→INTEGER only for integral values, which statics cannot rule
    out — RPL405's business), everything else must match groups."""
    return left is None or right is None or _group(left) == _group(right)


def _literal_type(value: object) -> Optional[SqlType]:
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.VARCHAR
    return None


def _function_type(name: str,
                   arg_types: list[Optional[SqlType]]) -> Optional[SqlType]:
    if name in ("count", "length", "mod"):
        return SqlType.INTEGER
    if name in ("sum", "avg", "round"):
        return SqlType.FLOAT
    if name in ("upper", "lower", "substr", "trim", "replace"):
        return SqlType.VARCHAR
    if name in ("min", "max", "abs", "coalesce", "nullif"):
        return arg_types[0] if arg_types else None
    return None


class Scope:
    """One FROM-clause scope level: binding name → schema (None when
    the table itself is unknown, which silences everything resolved
    through it) and → table name; ``base`` holds the bindings that are
    base tables rather than transition tables."""

    def __init__(self) -> None:
        self.bindings: dict[str, Any] = {}
        self.tables: dict[str, str] = {}
        self.base: set[str] = set()
        self.has_unknown = False

    def bind(self, name: str, table: str, schema: Any,
             base: bool = True) -> None:
        self.bindings[name] = schema
        self.tables[name] = table
        if base:
            self.base.add(name)
        if schema is None:
            self.has_unknown = True


class RuleWalk:
    """One walk over a rule (``rule`` names it in the diagnostics) or a
    workload statement (``rule`` None).

    ``expression`` returns the node's static :class:`SqlType` (None =
    unknown or provably NULL); diagnostics, effects and the base-table
    column reads of the condition (``base_reads``, RPL304's input)
    accumulate on the walk.
    """

    def __init__(self, database: Any, rule: Optional[str]) -> None:
        self.database = database
        self.rule = rule
        self.diagnostics: list[Diagnostic] = []
        self.reads: set[tuple[str, str]] = set()
        self.scans: set[str] = set()
        self.writes: set[tuple[str, str, str]] = set()
        self.selected: set[str] = set()
        #: True while the rule's condition is walked: RPL304 wants the
        #: condition's base-table column reads, with their nodes
        self.in_condition = False
        self.base_reads: list[tuple[str, str, ast.ColumnRef]] = []

    def schema(self, table: str) -> Any:
        return table_schema(self.database, table)

    def effects(self, opaque: bool = False) -> RuleEffects:
        return RuleEffects(
            frozenset(self.reads),
            None if opaque else frozenset(self.writes),
            frozenset(self.scans), frozenset(self.selected),
        )

    # ------------------------------------------------------------------
    # diagnostics

    def emit(self, code: str, message: str, node: object = None,
             hint: Optional[str] = None) -> None:
        self.diagnostics.append(make(
            code, message, span=span_of(node) if node is not None else None,
            rule=self.rule, hint=hint,
            pass_name="types" if code.startswith("RPL4") else "schema",
        ))

    # ------------------------------------------------------------------
    # scopes

    def _open_scope(self, select: ast.Select) -> Scope:
        scope = Scope()
        for table_ref in select.tables:
            schema = self.schema(table_ref.table)
            self.scans.add(table_ref.table)
            transition = isinstance(table_ref, ast.TransitionTableRef)
            if schema is None:
                self.emit(
                    "RPL001",
                    f"unknown table {table_ref.table!r}" + (
                        " in transition-table reference" if transition
                        else ""
                    ),
                    table_ref,
                    hint=None if transition
                    else "create the table first, or fix the name",
                )
            elif transition and table_ref.column is not None \
                    and not schema.has_column(table_ref.column):
                self.emit(
                    "RPL002",
                    f"table {table_ref.table!r} has no column "
                    f"{table_ref.column!r}",
                    table_ref,
                )
            scope.bind(table_ref.binding_name, table_ref.table, schema,
                       base=not transition)
        return scope

    def _target_scope(self, operation: Any) -> tuple[Scope, Any]:
        """The scope a ``delete``/``update`` evaluates in: its target,
        which it scans to find the qualifying tuples."""
        schema = self._target_schema(operation)
        self.scans.add(operation.table)
        scope = Scope()
        scope.bind(operation.table, operation.table, schema)
        return scope, schema

    def _charge(self, scope: Scope, binding: str,
                ref: ast.ColumnRef) -> SqlType:
        table = scope.tables[binding]
        self.reads.add((table, ref.column))
        if self.in_condition and binding in scope.base:
            self.base_reads.append((table, ref.column, ref))
        return scope.bindings[binding].column(ref.column).sql_type

    def _resolve_column(self, ref: ast.ColumnRef,
                        scopes: list[Scope]) -> Optional[SqlType]:
        """Resolve a column reference, innermost scope first: emits
        RPL001/RPL002/RPL003, charges the read, returns the column's
        type when resolution succeeds uniquely."""
        if ref.qualifier is not None:
            for scope in scopes:
                if ref.qualifier not in scope.bindings:
                    continue
                schema = scope.bindings[ref.qualifier]
                if schema is None:  # table itself already reported
                    self.reads.add(
                        (scope.tables[ref.qualifier], ANY_COLUMN)
                    )
                    return None
                if not schema.has_column(ref.column):
                    self.emit(
                        "RPL002",
                        f"table {schema.name!r} has no column "
                        f"{ref.column!r}",
                        ref,
                    )
                    return None
                return self._charge(scope, ref.qualifier, ref)
            self.emit(
                "RPL001",
                f"unknown table or alias {ref.qualifier!r}",
                ref,
                hint="qualify with a table listed in the FROM clause",
            )
            return None

        for scope in scopes:
            matches = [
                name for name, schema in scope.bindings.items()
                if schema is not None and schema.has_column(ref.column)
            ]
            for name, schema in scope.bindings.items():
                if schema is None:  # may own the column: charge it whole
                    self.reads.add((scope.tables[name], ANY_COLUMN))
            if len(matches) > 1:
                names = sorted({scope.tables[name] for name in matches})
                for name in matches:
                    self.reads.add((scope.tables[name], ref.column))
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
                return self._charge(scope, matches[0], ref)
            if scope.has_unknown:
                return None  # the unknown table may own it: stay silent
        self.emit("RPL002", f"unknown column {ref.column!r}", ref)
        return None

    # ------------------------------------------------------------------
    # expressions

    def expression(self, expr: object,
                   scopes: list[Scope]) -> Optional[SqlType]:
        """Resolve and type one expression."""
        if expr is None or isinstance(expr, ast.Star):
            return None
        if isinstance(expr, ast.Literal):
            return _literal_type(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr, scopes)
        if isinstance(expr, ast.UnaryOp):
            operand = self.expression(expr.operand, scopes)
            if expr.op == "not":
                return SqlType.BOOLEAN
            if operand is not None and operand not in _NUMERIC:
                self.emit(
                    "RPL401",
                    f"unary {expr.op!r} requires a numeric operand, got "
                    f"{operand.value}",
                    expr,
                    hint="negate a numeric expression, or drop the "
                         "operator",
                )
                operand = None
            return operand
        if isinstance(expr, ast.BinaryOp):
            return self._binary(
                expr, scopes, self.expression(expr.left, scopes),
                self.expression(expr.right, scopes),
            )
        if isinstance(expr, ast.IsNull):
            self.expression(expr.operand, scopes)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Between):
            operand = self.expression(expr.operand, scopes)
            for bound in (expr.low, expr.high):
                self._compare(operand, self.expression(bound, scopes),
                              "BETWEEN bound", bound)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Like):
            operand = self.expression(expr.operand, scopes)
            self.expression(expr.pattern, scopes)
            if operand is not None and operand is not SqlType.VARCHAR:
                self.emit(
                    "RPL004",
                    f"LIKE requires a varchar operand, got {operand.value}",
                    expr,
                )
            return SqlType.BOOLEAN
        if isinstance(expr, ast.InList):
            operand = self.expression(expr.operand, scopes)
            for item in expr.items:
                self._compare(operand, self.expression(item, scopes),
                              "IN list item", item)
            return SqlType.BOOLEAN
        if isinstance(expr, (ast.InSelect, ast.QuantifiedComparison)):
            construct = "IN" if isinstance(expr, ast.InSelect) \
                else f"{expr.op} {expr.quantifier}"
            operand = self.expression(expr.operand, scopes)
            item_type = self._single(
                expr.select, self.select(expr.select, scopes),
                f"{construct} (select ...)",
            )
            if not _comparable(operand, item_type):
                self.emit(
                    "RPL403",
                    f"cannot compare {operand.value} with the subquery's "
                    f"{item_type.value} column ({construct})",
                    expr,
                    hint="align the operand's type with the subquery's "
                         "output column",
                )
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Exists):
            self.select(expr.select, scopes)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.ScalarSelect):
            return self._single(
                expr.select, self.select(expr.select, scopes),
                "scalar subquery",
            )
        if isinstance(expr, ast.FunctionCall):
            return _function_type(
                expr.name,
                [self.expression(arg, scopes) for arg in expr.args],
            )
        if isinstance(expr, ast.CaseExpression):
            return self._case(expr, scopes)
        return None

    def _compare(self, left: Optional[SqlType], right: Optional[SqlType],
                 what: str, node: object) -> None:
        if not _comparable(left, right):
            self.emit(
                "RPL004",
                f"cannot compare {left.value} with {right.value} ({what})",
                node,
            )

    def _binary(self, expr: ast.BinaryOp, scopes: list[Scope],
                left: Optional[SqlType],
                right: Optional[SqlType]) -> Optional[SqlType]:
        op = expr.op
        if op in _COMPARISON_OPS:
            self._compare(left, right, f"operator {op!r}", expr)
            return SqlType.BOOLEAN
        if op in ("and", "or"):
            return SqlType.BOOLEAN
        sides = (("left", left), ("right", right))
        if op == "||":
            for side, side_type in sides:
                if side_type is not None and side_type is not SqlType.VARCHAR:
                    self.emit(
                        "RPL401",
                        f"'||' requires varchar operands, {side} side is "
                        f"{side_type.value}",
                        expr,
                        hint="concatenate strings only; cast or reformat "
                             "the value first",
                    )
            return SqlType.VARCHAR
        if op not in _ARITHMETIC_OPS:
            return None
        for side, side_type in sides:
            if side_type is not None and side_type not in _NUMERIC:
                self.emit(
                    "RPL401",
                    f"operator {op!r} requires numeric operands, "
                    f"{side} side is {side_type.value}",
                    expr,
                    hint="arithmetic raises at run time on "
                         "non-numeric values",
                )
        if left is SqlType.INTEGER and right is SqlType.INTEGER \
                and op != "/":
            return SqlType.INTEGER
        if left in _NUMERIC and right in _NUMERIC:
            return SqlType.FLOAT
        return None

    def _case(self, expr: ast.CaseExpression,
              scopes: list[Scope]) -> Optional[SqlType]:
        """A CASE's type is its branches' common type: incoherent
        branches (RPL402, one finding per CASE) or an untyped branch
        poison it — unless that branch is provably NULL (kind ``"?"``),
        which fits any result type. Without this, an unknown-typed
        branch (e.g. an inner incoherent CASE) would be skipped and the
        CASE could claim a type another branch violates at run time."""
        result: Optional[SqlType] = None
        sound = coherent = True
        branches = [(value, "branch") for _, value in expr.branches]
        if expr.default is not None:
            branches.append((expr.default, "ELSE branch"))
        for index, (value, label) in enumerate(branches):
            if index < len(expr.branches):
                self.expression(expr.branches[index][0], scopes)
            value_type = self.expression(value, scopes)
            if value_type is None:
                sound = sound and self._provably_null(value, scopes)
            elif result is None:
                result = value_type
            elif _group(result) != _group(value_type):
                if coherent:
                    self.emit(
                        "RPL402",
                        f"CASE {label} yields {value_type.value} but an "
                        f"earlier branch yields {result.value}",
                        expr,
                        hint="make every branch (and ELSE) yield one "
                             "comparable type",
                    )
                coherent = False
            elif value_type is SqlType.FLOAT:
                result = SqlType.FLOAT
        return result if sound and coherent else None

    def _provably_null(self, value: object, scopes: list[Scope]) -> bool:
        """The totality analysis' verdict ``"?"``: ``value`` yields NULL
        on every row. Nothing is provable under an unknown table, or
        without a database."""
        if self.database is None or any(s.has_unknown for s in scopes):
            return False
        layers = tuple(
            {
                name: {
                    column.name: KIND_OF_TYPE[column.sql_type]
                    for column in schema.columns
                }
                for name, schema in scope.bindings.items()
            }
            for scope in scopes
        )
        return expression_kind(value, layers, self.database) == "?"

    # ------------------------------------------------------------------
    # selects

    def select(self, select: ast.Select,
               outer: list[Scope]) -> list[Optional[SqlType]]:
        """Walk a select; returns the static type of each output item
        (None for ``*`` and untyped items)."""
        scopes = [self._open_scope(select)] + outer
        item_types: list[Optional[SqlType]] = []
        for item in select.items:
            if isinstance(item, ast.SelectItem):
                item_types.append(self.expression(item.expression, scopes))
                continue
            item_types.append(None)
            if item.qualifier is not None and not any(
                item.qualifier in level.bindings for level in scopes
            ):
                self.emit(
                    "RPL001",
                    f"unknown table or alias {item.qualifier!r}",
                    item,
                )
        self.expression(select.where, scopes)
        for expr in select.group_by:
            self.expression(expr, scopes)
        self.expression(select.having, scopes)
        for order in select.order_by:
            self.expression(order.expression, scopes)
        if select.union is not None:
            self.select(select.union, outer)
        return item_types

    def _single(self, select: ast.Select,
                item_types: list[Optional[SqlType]],
                construct: str) -> Optional[SqlType]:
        """The type of a subquery's one output column; RPL404 when it
        statically produces another number of columns (countable only
        without ``*`` items, whose arity depends on source schemas the
        select may not even resolve)."""
        if any(isinstance(item, ast.Star) for item in select.items):
            return None
        if len(item_types) != 1:
            self.emit(
                "RPL404",
                f"{construct} requires exactly one output column, the "
                f"subquery produces {len(item_types)}",
                select,
                hint="select a single expression in the subquery",
            )
            return None
        return item_types[0]

    # ------------------------------------------------------------------
    # operations

    def operation(self, operation: object) -> None:
        self.writes.update(operation_writes(operation, self.schema))
        if isinstance(operation, ast.InsertValues):
            self._insert_values(operation)
        elif isinstance(operation, ast.InsertSelect):
            self._insert_select(operation)
        elif isinstance(operation, ast.Delete):
            scope, _ = self._target_scope(operation)
            self.expression(operation.where, [scope])
        elif isinstance(operation, ast.Update):
            self._update(operation)
        elif isinstance(operation, ast.SelectOperation):
            self.selected.update(
                table_ref.table for table_ref in operation.select.tables
                if isinstance(table_ref, ast.BaseTableRef)
            )
            self.select(operation.select, [])

    def _target_schema(self, operation: Any) -> Any:
        schema = self.schema(operation.table)
        if schema is None:
            self.emit("RPL001", f"unknown table {operation.table!r}",
                      operation)
        return schema

    def _target_types(self, operation: Any,
                      schema: Any) -> Optional[list[SqlType]]:
        """The column types an insert fills, in order; None (after
        RPL001/RPL002) when the target or a listed column is unknown."""
        if schema is None:
            return None
        if not operation.columns:
            return [column.sql_type for column in schema.columns]
        known = True
        for column in operation.columns:
            if not schema.has_column(column):
                self.emit(
                    "RPL002",
                    f"table {schema.name!r} has no column {column!r}",
                    operation,
                )
                known = False
        if not known:
            return None
        return [schema.column(name).sql_type for name in operation.columns]

    def _store(self, target: SqlType, value_type: Optional[SqlType],
               value: object, where: str, column: str) -> None:
        """RPL006: a value of this static type can never be stored."""
        if _comparable(target, value_type):
            self._lossy(target, value_type, value, column)
        else:
            self.emit(
                "RPL006",
                f"{value_type.value} value cannot be stored in {where}",
                value,
            )

    def _lossy(self, target: SqlType, value_type: Optional[SqlType],
               value: object, column: str) -> None:
        """RPL405: a float-typed value into an INTEGER column raises at
        run time unless the value happens to be integral."""
        if value_type is SqlType.FLOAT and target is SqlType.INTEGER:
            self.emit(
                "RPL405",
                f"float value stored into integer column {column} may "
                "fail at run time (only integral floats coerce)",
                value,
                hint="round() the value, or widen the column to float",
            )

    def _insert_values(self, operation: ast.InsertValues) -> None:
        targets = self._target_types(
            operation, self._target_schema(operation)
        )
        table = operation.table
        for row in operation.rows:
            value_types = [self.expression(value, []) for value in row]
            if targets is None:
                continue
            if len(row) != len(targets):
                self.emit(
                    "RPL005",
                    f"insert into {table!r} expects {len(targets)} "
                    f"value(s), got {len(row)}",
                    row[0] if row else operation,
                )
                continue
            for target, value_type, value in zip(targets, value_types, row):
                self._store(
                    target, value_type, value,
                    f"a {target.value} column of {table!r}", f"of {table!r}",
                )

    def _insert_select(self, operation: ast.InsertSelect) -> None:
        schema = self._target_schema(operation)
        item_types = self.select(operation.select, [])
        targets = self._target_types(operation, schema)
        items = operation.select.items
        if targets is None or any(isinstance(i, ast.Star) for i in items):
            return  # output arity depends on source schemas; skip
        if len(items) != len(targets):
            self.emit(
                "RPL005",
                f"insert into {operation.table!r} expects {len(targets)} "
                f"column(s), the select produces {len(items)}",
                operation.select,
            )
            return
        for target, value_type, item in zip(targets, item_types, items):
            self._lossy(target, value_type, item.expression,
                        f"of {operation.table!r}")

    def _update(self, operation: ast.Update) -> None:
        scope, schema = self._target_scope(operation)
        table = operation.table
        for assignment in operation.assignments:
            value_type = self.expression(assignment.expression, [scope])
            if schema is None:
                continue
            if not schema.has_column(assignment.column):
                self.emit(
                    "RPL002",
                    f"table {table!r} has no column {assignment.column!r}",
                    assignment,
                )
                continue
            target = schema.column(assignment.column).sql_type
            self._store(
                target, value_type, assignment.expression,
                f"{target.value} column {table}.{assignment.column}",
                f"{table}.{assignment.column}",
            )
        self.expression(operation.where, [scope])


def walk_rule(rule: LintRule, database: Any) -> LintRule:
    """Walk ``rule`` once against ``database``'s schemas (None: a bare
    catalog, every table unknown), filling in its walk products
    (diagnostics, effects, base reads); returns it."""
    walk = RuleWalk(database, rule.name)
    walk.in_condition = True
    walk.expression(rule.condition, [])
    walk.in_condition = False
    if isinstance(rule.action, ast.OperationBlock):
        for operation in rule.action.operations:
            walk.operation(operation)
    rule.diagnostics = tuple(walk.diagnostics)
    rule.effects = walk.effects(opaque=rule.is_external)
    rule.base_reads = tuple(walk.base_reads)
    return rule
