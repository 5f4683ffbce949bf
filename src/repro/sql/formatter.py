"""Render AST nodes back to SQL text.

Used for error messages, ``repr`` of rules, the constraint compiler's
generated-rule inspection, and parser round-trip tests (``parse(format(x))
== x`` up to normalization).
"""

from __future__ import annotations

from typing import Any, Callable

from . import ast


def format_node(node: object) -> str:
    """Render any statement, operation, table reference or expression."""
    formatter = _FORMATTERS.get(type(node))
    if formatter is None:
        raise TypeError(f"cannot format node of type {type(node).__name__}")
    return formatter(node)


# ---------------------------------------------------------------------------
# expressions
#
# Parenthesization follows the parser's precedence levels exactly:
#   1 or, 2 and, 3 not, 4 comparison family (binary comparisons, IS NULL,
#   BETWEEN, LIKE, IN, quantified), 5 additive, 6 multiplicative,
#   7 unary +/-, 9 primary.
# A child is wrapped whenever its level is below what its context requires.

_OP_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}

_COMPARISON_LEVEL = 4
_ADDITIVE_LEVEL = 5
_UNARY_LEVEL = 7
_PRIMARY_LEVEL = 9


def _precedence(node: object) -> int:
    """The precedence level at which ``node``'s rendering binds."""
    if isinstance(node, ast.BinaryOp):
        return _OP_PRECEDENCE[node.op]
    if isinstance(node, ast.UnaryOp):
        return 3 if node.op == "not" else _UNARY_LEVEL
    if isinstance(
        node,
        (ast.IsNull, ast.Between, ast.Like, ast.InList, ast.InSelect,
         ast.QuantifiedComparison),
    ):
        return _COMPARISON_LEVEL
    # Literal, ColumnRef, FunctionCall, ScalarSelect, Exists, Case, Star:
    # self-delimiting
    return _PRIMARY_LEVEL


def _child(node: object, minimum: int) -> str:
    """Render ``node``, parenthesized if it binds looser than ``minimum``."""
    text = format_node(node)
    if _precedence(node) < minimum:
        return f"({text})"
    return text


def _format_literal(node: ast.Literal) -> str:
    value = node.value
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def _format_param(node: ast.Param) -> str:
    # an unbound template; repro.sql.params.bind gives the statement
    return f"?{node.index}"


def _format_column_ref(node: ast.ColumnRef) -> str:
    if node.qualifier:
        return f"{node.qualifier}.{node.column}"
    return node.column


def _format_star(node: ast.Star) -> str:
    if node.qualifier:
        return f"{node.qualifier}.*"
    return "*"


def _format_binary(node: ast.BinaryOp) -> str:
    level = _OP_PRECEDENCE[node.op]
    if node.op in ("and", "or"):
        # left-associative chains re-parse identically at equal level
        left = _child(node.left, level)
        right = _child(node.right, level + 1)
    elif level == _COMPARISON_LEVEL:
        # comparison chains are left-associative in the parser, but the
        # operands themselves are parsed at additive level
        left = _child(node.left, _COMPARISON_LEVEL)
        right = _child(node.right, _ADDITIVE_LEVEL)
    else:
        left = _child(node.left, level)
        right = _child(node.right, level + 1)
    return f"{left} {node.op} {right}"


def _format_unary(node: ast.UnaryOp) -> str:
    if node.op == "not":
        return f"not {_child(node.operand, _COMPARISON_LEVEL)}"
    return f"{node.op}{_child(node.operand, _PRIMARY_LEVEL)}"


def _format_is_null(node: ast.IsNull) -> str:
    keyword = "is not null" if node.negated else "is null"
    return f"{_child(node.operand, _COMPARISON_LEVEL)} {keyword}"


def _format_between(node: ast.Between) -> str:
    keyword = "not between" if node.negated else "between"
    return (
        f"{_child(node.operand, _COMPARISON_LEVEL)} {keyword} "
        f"{_child(node.low, _ADDITIVE_LEVEL)} and "
        f"{_child(node.high, _ADDITIVE_LEVEL)}"
    )


def _format_like(node: ast.Like) -> str:
    keyword = "not like" if node.negated else "like"
    return (
        f"{_child(node.operand, _COMPARISON_LEVEL)} {keyword} "
        f"{_child(node.pattern, _ADDITIVE_LEVEL)}"
    )


def _format_in_list(node: ast.InList) -> str:
    keyword = "not in" if node.negated else "in"
    items = ", ".join(format_node(item) for item in node.items)
    return f"{_child(node.operand, _COMPARISON_LEVEL)} {keyword} ({items})"


def _format_in_select(node: ast.InSelect) -> str:
    keyword = "not in" if node.negated else "in"
    return (
        f"{_child(node.operand, _COMPARISON_LEVEL)} {keyword} "
        f"({format_node(node.select)})"
    )


def _format_exists(node: ast.Exists) -> str:
    keyword = "not exists" if node.negated else "exists"
    return f"{keyword} ({format_node(node.select)})"


def _format_quantified(node: ast.QuantifiedComparison) -> str:
    return (
        f"{_child(node.operand, _COMPARISON_LEVEL)} {node.op} "
        f"{node.quantifier} ({format_node(node.select)})"
    )


def _format_scalar_select(node: ast.ScalarSelect) -> str:
    return f"({format_node(node.select)})"


def _format_function_call(node: ast.FunctionCall) -> str:
    args = ", ".join(format_node(arg) for arg in node.args)
    if node.distinct:
        args = f"distinct {args}"
    return f"{node.name}({args})"


def _format_case(node: ast.CaseExpression) -> str:
    parts = ["case"]
    for condition, value in node.branches:
        parts.append(f"when {format_node(condition)} then {format_node(value)}")
    if node.default is not None:
        parts.append(f"else {format_node(node.default)}")
    parts.append("end")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# table references


def _format_base_table_ref(node: ast.BaseTableRef) -> str:
    if node.alias:
        return f"{node.table} {node.alias}"
    return node.table


def _format_transition_table_ref(node: ast.TransitionTableRef) -> str:
    text = f"{node.kind.value} {node.table}"
    if node.column:
        text += f".{node.column}"
    if node.alias:
        text += f" {node.alias}"
    return text


# ---------------------------------------------------------------------------
# select


def _format_select_item(node: ast.SelectItem) -> str:
    text = format_node(node.expression)
    if node.alias:
        text += f" as {node.alias}"
    return text


def _format_select(node: ast.Select) -> str:
    parts = ["select"]
    if node.distinct:
        parts.append("distinct")
    parts.append(", ".join(format_node(item) for item in node.items))
    if node.tables:
        parts.append("from")
        parts.append(", ".join(format_node(table) for table in node.tables))
    if node.where is not None:
        parts.append(f"where {format_node(node.where)}")
    if node.group_by:
        parts.append(
            "group by " + ", ".join(format_node(expr) for expr in node.group_by)
        )
    if node.having is not None:
        parts.append(f"having {format_node(node.having)}")
    if node.order_by:
        orders: list[str] = []
        for order in node.order_by:
            text = format_node(order.expression)
            if order.descending:
                text += " desc"
            orders.append(text)
        parts.append("order by " + ", ".join(orders))
    if node.limit is not None:
        parts.append(f"limit {node.limit}")
    text = " ".join(parts)
    if node.union is not None:
        connective = "union all" if node.union_all else "union"
        text = f"{text} {connective} {format_node(node.union)}"
    return text


# ---------------------------------------------------------------------------
# operations


def _format_insert_values(node: ast.InsertValues) -> str:
    if isinstance(node.rows, ast.Param):
        rows = _format_param(node.rows)
    else:
        rows = ", ".join(
            "(" + ", ".join(format_node(value) for value in row) + ")"
            for row in node.rows
        )
    columns = ""
    if node.columns:
        columns = " (" + ", ".join(node.columns) + ")"
    return f"insert into {node.table}{columns} values {rows}"


def _format_insert_select(node: ast.InsertSelect) -> str:
    columns = ""
    if node.columns:
        columns = " (" + ", ".join(node.columns) + ")"
    return f"insert into {node.table}{columns} ({format_node(node.select)})"


def _format_delete(node: ast.Delete) -> str:
    text = f"delete from {node.table}"
    if node.where is not None:
        text += f" where {format_node(node.where)}"
    return text


def _format_update(node: ast.Update) -> str:
    assignments = ", ".join(
        f"{assignment.column} = {format_node(assignment.expression)}"
        for assignment in node.assignments
    )
    text = f"update {node.table} set {assignments}"
    if node.where is not None:
        text += f" where {format_node(node.where)}"
    return text


def _format_select_operation(node: ast.SelectOperation) -> str:
    return format_node(node.select)


def _format_operation_block(node: ast.OperationBlock) -> str:
    return ";\n".join(format_node(operation) for operation in node.operations)


# ---------------------------------------------------------------------------
# DDL and rules


def _format_column_def(node: ast.ColumnDef) -> str:
    return f"{node.name} {node.type_name}"


def _format_create_table(node: ast.CreateTable) -> str:
    columns = ", ".join(_format_column_def(column) for column in node.columns)
    return f"create table {node.name} ({columns})"


def _format_drop_table(node: ast.DropTable) -> str:
    return f"drop table {node.name}"


def _format_create_index(node: ast.CreateIndex) -> str:
    return f"create index {node.name} on {node.table} ({node.column})"


def _format_drop_index(node: ast.DropIndex) -> str:
    return f"drop index {node.name}"


def _format_basic_transition_predicate(node: ast.BasicTransitionPredicate) -> str:
    kind = node.kind
    if kind is ast.TransitionPredicateKind.INSERTED:
        return f"inserted into {node.table}"
    if kind is ast.TransitionPredicateKind.DELETED:
        return f"deleted from {node.table}"
    text = f"{kind.value} {node.table}"
    if node.column:
        text += f".{node.column}"
    return text


def _format_create_rule(node: ast.CreateRule) -> str:
    parts = [f"create rule {node.name}"]
    predicates = "\n   or ".join(
        _format_basic_transition_predicate(predicate)
        for predicate in node.predicates
    )
    parts.append(f"when {predicates}")
    if node.condition is not None:
        parts.append(f"if {format_node(node.condition)}")
    if isinstance(node.action, ast.RollbackAction):
        parts.append("then rollback")
    else:
        parts.append(f"then {format_node(node.action)}")
    return "\n".join(parts)


def _format_drop_rule(node: ast.DropRule) -> str:
    return f"drop rule {node.name}"


def _format_create_rule_priority(node: ast.CreateRulePriority) -> str:
    return f"create rule priority {node.higher} before {node.lower}"


def _format_assert_rules(node: ast.AssertRules) -> str:
    return "assert rules"


def _format_explain(node: ast.Explain) -> str:
    return f"explain {_format_select(node.select)}"


def _format_rollback_action(node: ast.RollbackAction) -> str:
    return "rollback"


_FORMATTERS: dict[type, Callable[[Any], str]] = {
    ast.Literal: _format_literal,
    ast.Param: _format_param,
    ast.ColumnRef: _format_column_ref,
    ast.Star: _format_star,
    ast.BinaryOp: _format_binary,
    ast.UnaryOp: _format_unary,
    ast.IsNull: _format_is_null,
    ast.Between: _format_between,
    ast.Like: _format_like,
    ast.InList: _format_in_list,
    ast.InSelect: _format_in_select,
    ast.Exists: _format_exists,
    ast.QuantifiedComparison: _format_quantified,
    ast.ScalarSelect: _format_scalar_select,
    ast.FunctionCall: _format_function_call,
    ast.CaseExpression: _format_case,
    ast.BaseTableRef: _format_base_table_ref,
    ast.TransitionTableRef: _format_transition_table_ref,
    ast.SelectItem: _format_select_item,
    ast.Select: _format_select,
    ast.InsertValues: _format_insert_values,
    ast.InsertSelect: _format_insert_select,
    ast.Delete: _format_delete,
    ast.Update: _format_update,
    ast.SelectOperation: _format_select_operation,
    ast.OperationBlock: _format_operation_block,
    ast.ColumnDef: _format_column_def,
    ast.CreateTable: _format_create_table,
    ast.DropTable: _format_drop_table,
    ast.CreateIndex: _format_create_index,
    ast.DropIndex: _format_drop_index,
    ast.BasicTransitionPredicate: _format_basic_transition_predicate,
    ast.CreateRule: _format_create_rule,
    ast.DropRule: _format_drop_rule,
    ast.CreateRulePriority: _format_create_rule_priority,
    ast.AssertRules: _format_assert_rules,
    ast.Explain: _format_explain,
    ast.RollbackAction: _format_rollback_action,
}
