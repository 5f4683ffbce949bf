"""Expression and predicate evaluation with SQL three-valued logic.

Evaluation happens against a :class:`Scope` chain so that correlated
subqueries see their outer query's row bindings. NULL is represented by
Python ``None``; predicate results are ``True``/``False``/``None``
(UNKNOWN), and WHERE keeps only rows whose predicate is ``True``.

Subquery constructs (``IN (select ...)``, ``EXISTS``, quantified
comparisons, scalar selects) delegate back to
:mod:`repro.relational.select` via a lazy import (select builds on
expressions; the runtime recursion between them mirrors the grammar's).
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

from ..errors import ExecutionError, TypeError_
from ..sql import ast
from .types import compare_values

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


# ---------------------------------------------------------------------------
# scopes


class Scope:
    """One level of name bindings for column resolution.

    ``bindings`` maps a binding name (table name or alias, lower-cased) to
    a ``(columns, row)`` pair: the column-name tuple and the current row
    value tuple. Scopes chain via ``parent`` for correlated subqueries.
    """

    def __init__(self, parent=None):
        self.parent = parent
        self._bindings = {}

    def bind(self, name, columns, row):
        if name in self._bindings:
            raise ExecutionError(f"duplicate table name or alias {name!r} in scope")
        self._bindings[name] = (columns, row)

    def rebind(self, name, row):
        """Replace the row for an existing binding (used while iterating)."""
        columns, _ = self._bindings[name]
        self._bindings[name] = (columns, row)

    def binding_names(self):
        return tuple(self._bindings)

    def resolve(self, column, qualifier=None):
        """Resolve a column reference to its current value.

        Qualified references look the qualifier up innermost-first.
        Unqualified references are matched against every binding of the
        innermost scope that knows the column; exactly one match is
        required there before falling outward.

        Raises:
            ExecutionError: unknown or ambiguous reference.
        """
        scope = self
        while scope is not None:
            value, found = scope._resolve_local(column, qualifier)
            if found:
                return value
            scope = scope.parent
        if qualifier:
            raise ExecutionError(f"unknown column reference {qualifier}.{column}")
        raise ExecutionError(f"unknown column reference {column}")

    def _resolve_local(self, column, qualifier):
        if qualifier is not None:
            binding = self._bindings.get(qualifier)
            if binding is None:
                return None, False
            columns, row = binding
            try:
                position = columns.index(column)
            except ValueError:
                raise ExecutionError(
                    f"table or alias {qualifier!r} has no column {column!r}"
                ) from None
            return row[position], True
        matches = []
        for name, (columns, row) in self._bindings.items():
            if column in columns:
                matches.append((name, columns, row))
        if not matches:
            return None, False
        if len(matches) > 1:
            names = ", ".join(name for name, _, _ in matches)
            raise ExecutionError(
                f"ambiguous column reference {column!r} (could be any of: {names})"
            )
        _, columns, row = matches[0]
        return row[columns.index(column)], True


class GroupScope(Scope):
    """A scope representing one GROUP BY group (or the whole input for a
    grouped query without GROUP BY).

    Non-aggregate column references resolve against the group's
    representative (first) row; aggregate functions iterate
    ``member_scopes`` to evaluate their argument per member row.
    """

    def __init__(self, member_scopes, parent=None):
        super().__init__(parent)
        if not member_scopes:
            raise ExecutionError("group scope requires at least one member")
        self.member_scopes = member_scopes
        representative = member_scopes[0]
        for name in representative.binding_names():
            columns, row = representative._bindings[name]
            self.bind(name, columns, row)


class EmptyGroupScope(Scope):
    """The scope for an aggregate query over zero input rows.

    ``select count(*) from empty_table`` must yield 0 and ``sum`` NULL;
    there is no representative row, so plain column references are errors.
    """

    def __init__(self, binding_names, parent=None):
        super().__init__(parent)
        self.member_scopes = []
        self._names = tuple(binding_names)

    def resolve(self, column, qualifier=None):
        if self.parent is not None:
            try:
                return self.parent.resolve(column, qualifier)
            except ExecutionError:
                pass
        raise ExecutionError(
            f"column reference {column!r} outside an aggregate over empty input"
        )


# ---------------------------------------------------------------------------
# aggregate detection


def contains_aggregate(expression):
    """True if the expression applies an aggregate *at this query level*.

    Does not descend into nested selects — their aggregates belong to the
    inner query.
    """
    if type(expression) in _LEAVES:
        return False
    for _ in aggregate_calls(expression):
        return True
    return False


_LEAVES = frozenset({type(None), ast.ColumnRef, ast.Literal, ast.Param,
                     ast.Star})


def aggregate_calls(expression):
    """The aggregate calls ``expression`` applies at this query level:
    neither the arguments of an aggregate (a nested aggregate is
    evaluated per member, not per group) nor nested selects (their
    aggregates belong to the inner query) are searched."""
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionCall):
            if node.name in AGGREGATE_NAMES:
                yield node
            else:
                stack.extend(node.args)
        elif isinstance(node, (ast.UnaryOp, ast.IsNull, ast.InSelect,
                               ast.QuantifiedComparison)):
            stack.append(node.operand)
        elif isinstance(node, ast.BinaryOp):
            stack += (node.left, node.right)
        elif isinstance(node, ast.Between):
            stack += (node.operand, node.low, node.high)
        elif isinstance(node, ast.Like):
            stack += (node.operand, node.pattern)
        elif isinstance(node, ast.InList):
            stack.append(node.operand)
            stack.extend(node.items)
        elif isinstance(node, ast.CaseExpression):
            stack.append(node.default)
            for condition, value in node.branches:
                stack += (condition, value)
        # Exists / ScalarSelect / Literal / Param / ColumnRef / Star / None


# ---------------------------------------------------------------------------
# three-valued logic helpers


def logic_and(left, right):
    """Kleene AND over True/False/None."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def logic_or(left, right):
    """Kleene OR over True/False/None."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def logic_not(value):
    """Kleene NOT over True/False/None."""
    if value is None:
        return None
    return not value


#: the arithmetic operators over two numbers (the batch kernels' too)
ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


def arithmetic(op, left, right):
    """``left op right`` over two non-NULL operands, as SQL has it: only
    numbers (never booleans), a zero divisor an error, an exact integer
    division an integer, and an integer out of float range where a
    float is needed an :class:`ExecutionError`, not Python's
    ``OverflowError``. The interpreter and the batch kernels' checked
    path both call it."""
    if isinstance(left, bool) or isinstance(right, bool):
        raise TypeError_(f"arithmetic on booleans: {left!r} {op} {right!r}")
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise TypeError_(
            f"arithmetic requires numbers: {left!r} {op} {right!r}"
        )
    if op in ("/", "%") and right == 0:
        raise ExecutionError("division by zero" if op == "/"
                             else "modulo by zero")
    if op == "/" and isinstance(left, int) and isinstance(right, int):
        # integer / integer stays integral when exact, like many engines
        # (checked first: the float division may overflow)
        quotient = left // right
        if quotient * right == left:
            return quotient
    function = ARITHMETIC.get(op)
    if function is None:
        raise ExecutionError(f"unknown binary operator {op!r}")
    try:
        return function(left, right)
    except OverflowError:  # an integer that no float holds
        raise ExecutionError(
            f"integer out of float range in '{op}'") from None


def compare(op, left, right):
    """SQL comparison with NULL propagation; returns True/False/None."""
    if left is None or right is None:
        return None
    ordering = compare_values(left, right)
    if not ordering and (left != left or right != right):
        # NaN equals nothing and orders against nothing (IEEE 754), as
        # in the batch kernels and the indexes
        return op == "<>"
    if op == "=":
        return ordering == 0
    if op == "<>":
        return ordering != 0
    if op == "<":
        return ordering < 0
    if op == "<=":
        return ordering <= 0
    if op == ">":
        return ordering > 0
    if op == ">=":
        return ordering >= 0
    raise ExecutionError(f"unknown comparison operator {op!r}")


@lru_cache(maxsize=512)
def _like_to_regex(pattern):
    # Memoized: LIKE evaluation runs per row, but a workload uses few
    # distinct patterns — each should cost one regex compilation total.
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# the evaluator


class Evaluator:
    """Evaluates expressions against a database and a scope chain.

    ``resolver`` is a table resolver (see
    :class:`repro.relational.select.BaseTableResolver`) used when nested
    subqueries mention tables — including transition tables inside rule
    conditions/actions. ``bound`` (a :class:`repro.relational.plan.cache
    .Bound`) names the statement being run: ``params`` is what its
    :class:`~repro.sql.ast.Param` leaves evaluate to, ``statement`` the
    cache entry its plans and compiled programs are kept in (None:
    whatever is evaluated is a statement of its own).
    """

    def __init__(self, database, resolver, bound=None):
        self.database = database
        self.resolver = resolver
        self.bound = bound
        self.statement, self.params = bound or (None, ())
        # Uncorrelated-subquery cache: a subquery that references only its
        # own FROM tables evaluates identically for every outer row, so
        # within one state its result can be reused. Keyed by the AST
        # node's identity and guarded by the database's mutation version
        # and, for a rule's resolver, its trans-info's version (transition
        # tables read it). Disable via ``database.enable_subquery_cache =
        # False`` (the ablation benchmark does).
        self._info = getattr(resolver, "info", None)
        self._subquery_cache = {}
        # the static verdict outlives the evaluator on the statement entry
        self._correlation_cache = (
            {} if self.statement is None else self.statement.self_contained)

    # -- entry point ----------------------------------------------------

    def evaluate(self, expression, scope):
        """Evaluate to a Python value (``None`` = SQL NULL)."""
        method = self._DISPATCH.get(type(expression))
        if method is None:
            raise ExecutionError(
                f"cannot evaluate expression of type {type(expression).__name__}"
            )
        return method(self, expression, scope)

    def evaluate_predicate(self, expression, scope):
        """Evaluate as a predicate; coerce the result to True/False/None.

        Raises:
            ExecutionError: if a non-boolean, non-null value is produced.
        """
        value = self.evaluate(expression, scope)
        if value is None or isinstance(value, bool):
            return value
        raise ExecutionError(
            f"predicate evaluated to non-boolean value {value!r}"
        )

    # -- node handlers ---------------------------------------------------

    def _eval_literal(self, node, scope):
        return node.value

    def _eval_param(self, node, scope):
        return self.params[node.index]

    def _eval_column_ref(self, node, scope):
        return scope.resolve(node.column, node.qualifier)

    def _eval_star(self, node, scope):
        raise ExecutionError("'*' is only valid in select lists and count(*)")

    def _eval_unary(self, node, scope):
        if node.op == "not":
            return logic_not(self.evaluate_predicate(node.operand, scope))
        value = self.evaluate(node.operand, scope)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_(f"unary {node.op} requires a number, got {value!r}")
        return -value if node.op == "-" else value

    def _eval_binary(self, node, scope):
        op = node.op
        if op == "and":
            left = self.evaluate_predicate(node.left, scope)
            if left is False:
                return False  # short-circuit
            return logic_and(left, self.evaluate_predicate(node.right, scope))
        if op == "or":
            left = self.evaluate_predicate(node.left, scope)
            if left is True:
                return True  # short-circuit
            return logic_or(left, self.evaluate_predicate(node.right, scope))

        left = self.evaluate(node.left, scope)
        right = self.evaluate(node.right, scope)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return compare(op, left, right)
        if left is None or right is None:
            return None
        if op == "||":
            if not isinstance(left, str) or not isinstance(right, str):
                raise TypeError_(
                    f"'||' requires strings, got {left!r} and {right!r}"
                )
            return left + right
        return arithmetic(op, left, right)

    def _eval_is_null(self, node, scope):
        value = self.evaluate(node.operand, scope)
        result = value is None
        return not result if node.negated else result

    def _eval_between(self, node, scope):
        value = self.evaluate(node.operand, scope)
        low = self.evaluate(node.low, scope)
        high = self.evaluate(node.high, scope)
        result = logic_and(compare("<=", low, value), compare("<=", value, high))
        return logic_not(result) if node.negated else result

    def _eval_like(self, node, scope):
        value = self.evaluate(node.operand, scope)
        pattern = self.evaluate(node.pattern, scope)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise TypeError_("LIKE requires string operands")
        result = bool(_like_to_regex(pattern).match(value))
        return not result if node.negated else result

    def _eval_in_list(self, node, scope):
        value = self.evaluate(node.operand, scope)
        found_unknown = False
        for item in node.items:
            item_value = self.evaluate(item, scope)
            result = compare("=", value, item_value)
            if result is True:
                return False if node.negated else True
            if result is None:
                found_unknown = True
        if found_unknown:
            return None
        return True if node.negated else False

    def _eval_in_select(self, node, scope):
        value = self.evaluate(node.operand, scope)
        result = self._any_comparison("=", value, node.select, scope)
        return logic_not(result) if node.negated else result

    def _eval_exists(self, node, scope):
        rows = self._run_subquery(node.select, scope)
        result = bool(rows)
        return not result if node.negated else result

    def _eval_quantified(self, node, scope):
        value = self.evaluate(node.operand, scope)
        if node.quantifier == "any":
            return self._any_comparison(node.op, value, node.select, scope)
        return self._all_comparison(node.op, value, node.select, scope)

    def _eval_scalar_select(self, node, scope):
        rows = self._run_subquery(node.select, scope)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError(
                f"scalar subquery returned {len(rows)} rows (expected at most 1)"
            )
        row = rows[0]
        if len(row) != 1:
            raise ExecutionError(
                f"scalar subquery returned {len(row)} columns (expected 1)"
            )
        return row[0]

    def _eval_function_call(self, node, scope):
        if node.name in AGGREGATE_NAMES:
            return self._eval_aggregate(node, scope)
        args = [self.evaluate(arg, scope) for arg in node.args]
        return _apply_scalar_function(node.name, args)

    def _eval_case(self, node, scope):
        for condition, value in node.branches:
            if self.evaluate_predicate(condition, scope) is True:
                return self.evaluate(value, scope)
        if node.default is not None:
            return self.evaluate(node.default, scope)
        return None

    _DISPATCH = {}

    # -- subquery plumbing -------------------------------------------------

    def _run_subquery(self, select, scope):
        from .select import evaluate_select  # runtime recursion, see module doc

        cacheable = (
            self.database.enable_subquery_cache
            and self._is_uncorrelated(select)
        )
        if cacheable:
            state = self.database.version
            if self._info is not None:
                state = (state, self._info.version)
            entry = self._subquery_cache.get(id(select))
            if entry is not None and entry[0] == state:
                return entry[1]
        result = evaluate_select(
            self.database, select, self.resolver, outer=scope,
            bound=self.bound,
        )
        if cacheable:
            # keep the node alive so id() stays unambiguous
            self._subquery_cache[id(select)] = (state, result.rows, select)
        return result.rows

    def _is_uncorrelated(self, select):
        """Conservative static check: does the subquery reference only
        columns resolvable from its own (nested) FROM clauses?

        Qualified references must name one of the subquery's own bindings;
        unqualified ones must name a column of one of its own tables
        (inner bindings shadow outer ones in SQL scoping, so a name that
        resolves inside is genuinely inner). Unknown tables or transition
        tables over unknown base tables disqualify caching.
        """
        version = self.database.schema_version
        cached = self._correlation_cache.get(id(select))
        if cached is not None and cached[0] == version:
            return cached[1]
        result = _select_is_self_contained(select, self.database)
        self._correlation_cache[id(select)] = (version, result, select)
        return result

    def _any_comparison(self, op, value, select, scope):
        rows = self._run_subquery(select, scope)
        found_unknown = False
        for row in rows:
            if len(row) != 1:
                raise ExecutionError(
                    "subquery in comparison must return exactly 1 column"
                )
            result = compare(op, value, row[0])
            if result is True:
                return True
            if result is None:
                found_unknown = True
        return None if found_unknown else False

    def _all_comparison(self, op, value, select, scope):
        rows = self._run_subquery(select, scope)
        found_unknown = False
        for row in rows:
            if len(row) != 1:
                raise ExecutionError(
                    "subquery in comparison must return exactly 1 column"
                )
            result = compare(op, value, row[0])
            if result is False:
                return False
            if result is None:
                found_unknown = True
        return None if found_unknown else True

    # -- aggregates ---------------------------------------------------------

    def _eval_aggregate(self, node, scope):
        group = self._find_group_scope(scope)
        if group is None:
            raise ExecutionError(
                f"aggregate {node.name}() used outside an aggregation context"
            )
        if node.name == "count" and node.args and isinstance(node.args[0], ast.Star):
            return len(group.member_scopes)
        if len(node.args) != 1:
            raise ExecutionError(f"aggregate {node.name}() takes exactly 1 argument")
        argument = node.args[0]
        values = []
        for member in group.member_scopes:
            value = self.evaluate(argument, member)
            if value is not None:
                values.append(value)
        return reduce_aggregate(node, values)

    @staticmethod
    def _find_group_scope(scope):
        current = scope
        while current is not None:
            if isinstance(current, (GroupScope, EmptyGroupScope)):
                return current
            current = current.parent
        return None


Evaluator._DISPATCH = {
    ast.Literal: Evaluator._eval_literal,
    ast.Param: Evaluator._eval_param,
    ast.ColumnRef: Evaluator._eval_column_ref,
    ast.Star: Evaluator._eval_star,
    ast.UnaryOp: Evaluator._eval_unary,
    ast.BinaryOp: Evaluator._eval_binary,
    ast.IsNull: Evaluator._eval_is_null,
    ast.Between: Evaluator._eval_between,
    ast.Like: Evaluator._eval_like,
    ast.InList: Evaluator._eval_in_list,
    ast.InSelect: Evaluator._eval_in_select,
    ast.Exists: Evaluator._eval_exists,
    ast.QuantifiedComparison: Evaluator._eval_quantified,
    ast.ScalarSelect: Evaluator._eval_scalar_select,
    ast.FunctionCall: Evaluator._eval_function_call,
    ast.CaseExpression: Evaluator._eval_case,
}


# ---------------------------------------------------------------------------
# subquery correlation analysis (for the uncorrelated-subquery cache)


def _select_is_self_contained(select, database):
    """True if every column reference under ``select`` resolves against
    the FROM bindings of ``select``'s own subtree (i.e. no correlation
    with any outer query)."""
    bindings = set()
    columns = set()
    for nested in ast.iter_selects(select):
        for table_ref in nested.tables:
            bindings.add(table_ref.binding_name)
            table_name = getattr(table_ref, "table", None)
            if table_name is None or not database.catalog.has_table(table_name):
                return False
            columns.update(database.schema(table_name).column_names)
    for nested in ast.iter_selects(select):
        for expression in _select_expressions(nested):
            for node in ast.iter_expressions(expression):
                if not isinstance(node, ast.ColumnRef):
                    continue
                if node.qualifier is not None:
                    if node.qualifier not in bindings:
                        return False
                elif node.column not in columns:
                    return False
    return True


def _select_expressions(select):
    """The expressions attached directly to one select (not descending
    into nested selects — iteration over nested selects happens above)."""
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


# ---------------------------------------------------------------------------
# function implementations


def _apply_scalar_function(name, args):
    if name == "coalesce":
        for value in args:
            if value is not None:
                return value
        return None
    if name == "nullif":
        if len(args) != 2:
            raise ExecutionError("nullif() takes exactly 2 arguments")
        left, right = args
        if left is None:
            return None
        if compare("=", left, right) is True:
            return None
        return left
    # remaining functions are NULL-propagating
    if any(value is None for value in args):
        return None
    if name == "abs":
        _require_arity(name, args, 1)
        return abs(_require_number(name, args[0]))
    if name == "round":
        if len(args) == 1:
            return round(_require_number(name, args[0]))
        _require_arity(name, args, 2)
        digits = args[1]
        if not isinstance(digits, int):
            raise ExecutionError("round() digits must be an integer")
        return round(_require_number(name, args[0]), digits)
    if name == "upper":
        _require_arity(name, args, 1)
        return _require_string(name, args[0]).upper()
    if name == "lower":
        _require_arity(name, args, 1)
        return _require_string(name, args[0]).lower()
    if name == "length":
        _require_arity(name, args, 1)
        return len(_require_string(name, args[0]))
    if name == "mod":
        _require_arity(name, args, 2)
        left = _require_number(name, args[0])
        right = _require_number(name, args[1])
        if right == 0:
            raise ExecutionError("mod() by zero")
        return left % right
    if name == "substr":
        if len(args) not in (2, 3):
            raise ExecutionError("substr() takes 2 or 3 arguments")
        text = _require_string(name, args[0])
        start = args[1]
        if not isinstance(start, int) or isinstance(start, bool):
            raise ExecutionError("substr() start must be an integer")
        begin = max(start - 1, 0)  # SQL substr is 1-based
        if len(args) == 3:
            length = args[2]
            if not isinstance(length, int) or isinstance(length, bool):
                raise ExecutionError("substr() length must be an integer")
            if length < 0:
                raise ExecutionError("substr() length must be non-negative")
            return text[begin:begin + length]
        return text[begin:]
    if name == "trim":
        _require_arity(name, args, 1)
        return _require_string(name, args[0]).strip()
    if name == "replace":
        _require_arity(name, args, 3)
        text = _require_string(name, args[0])
        old = _require_string(name, args[1])
        new = _require_string(name, args[2])
        if old == "":
            return text
        return text.replace(old, new)
    raise ExecutionError(f"unknown function {name!r}")


def reduce_aggregate(node, values):
    """One group's value of the aggregate call ``node`` (one argument,
    not ``count(*)``) from its argument's non-NULL values in member
    order — the one reduction both the interpreter's ``GroupScope`` and
    the column-vector grouping in :mod:`repro.relational.select` run, so
    float sums add in the same order and errors are the same."""
    if node.distinct:
        values = list(dict.fromkeys(values))
    return _apply_aggregate(node.name, values)


def _apply_aggregate(name, values):
    if name == "count":
        return len(values)
    if not values:
        return None  # SQL: aggregates over empty input are NULL
    if name == "sum":
        return sum(_require_number("sum", value) for value in values)
    if name == "avg":
        total = sum(_require_number("avg", value) for value in values)
        return total / len(values)
    if name == "min" or name == "max":
        wanted = -1 if name == "min" else 1
        result = values[0]
        for value in values[1:]:
            if _total_order(value, result) == wanted:
                result = value
        return result
    raise ExecutionError(f"unknown aggregate {name!r}")


def _total_order(left, right):
    """:func:`compare_values`, with NaN above every number and equal to
    itself — ``sort_key``'s order, so ``min``/``max`` never depend on
    where a NaN was scanned (predicates keep IEEE comparisons)."""
    ordering = compare_values(left, right)
    if ordering or left == right:
        return ordering
    return (left != left) - (right != right)


def _require_number(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError_(f"{name}() requires a number, got {value!r}")
    return value


def _require_string(name, value):
    if not isinstance(value, str):
        raise TypeError_(f"{name}() requires a string, got {value!r}")
    return value


def _require_arity(name, args, arity):
    if len(args) != arity:
        raise ExecutionError(f"{name}() takes exactly {arity} argument(s)")
