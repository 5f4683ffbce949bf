"""Abstract syntax tree for the paper's SQL dialect and rule language.

The node hierarchy mirrors the grammar given in the paper:

* Section 2.1: ``op-block ::= sql-op ; ... ; sql-op`` with
  insert/delete/update (select is an expression-level construct used in
  predicates and ``insert into ... (select ...)``);
* Section 3: ``create rule name when trans-pred [if condition] then
  action`` plus the four kinds of basic transition predicate and the
  transition-table references usable inside conditions and actions;
* Section 4.4: ``create rule priority r1 before r2``;
* Section 5 extensions: ``selected`` transition predicates, standalone
  select operations in blocks, and the ``assert rules`` triggering point.

Nodes are frozen :class:`~repro.records.Record` classes, so they can be
shared, hashed and compared structurally (a node's fields are its
annotations, in order). Every node renders back to SQL via
:mod:`repro.sql.formatter`.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from typing import Any, Callable, Iterator, Optional

from ..records import Record


# ---------------------------------------------------------------------------
# Expressions


class Expression(Record):
    """Marker base class for expression nodes."""

    __slots__ = ()


class Literal(Expression):
    """A constant: integer, float, string, boolean or NULL (``value=None``)."""

    value: object


class Param(Expression):
    """A literal of a cached statement template (the parser makes one
    per lifted literal when handed a ``params`` list): execution reads
    its value at position ``index`` of the parameter vector bound to
    the statement (see :mod:`repro.sql.params`).

    ``kind`` is all that planning and compilation may know of the value:
    ``"n"`` a number, ``"s"`` a string — the kinds of
    ``repro.relational.plan.cost.expression_kind`` — or ``"r"``, the
    value matrix of an all-literal VALUES list (only ever
    ``InsertValues.rows``).
    """

    index: int
    kind: str


class ColumnRef(Expression):
    """A possibly-qualified column reference, e.g. ``e1.salary``.

    ``qualifier`` is the table name or alias (lower-cased) or ``None``
    for a bare column name resolved by scope rules.
    """

    column: str
    qualifier: Optional[str] = None


class Star(Expression):
    """``*`` or ``t.*`` in a select list or ``count(*)``."""

    qualifier: Optional[str] = None


class UnaryOp(Expression):
    """Unary operator application: ``NOT x`` or ``-x``."""

    op: str  # 'not' | '-' | '+'
    operand: Expression


class BinaryOp(Expression):
    """Binary operator application.

    ``op`` is one of: ``+ - * / % || = <> < <= > >= and or``.
    """

    op: str
    left: Expression
    right: Expression


class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%``/``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False


class InList(Expression):
    """``expr [NOT] IN (e1, e2, ...)`` with an explicit value list."""

    operand: Expression
    items: tuple
    negated: bool = False


class InSelect(Expression):
    """``expr [NOT] IN (select ...)``."""

    operand: Expression
    select: "Select"
    negated: bool = False


class Exists(Expression):
    """``[NOT] EXISTS (select ...)``."""

    select: "Select"
    negated: bool = False


class QuantifiedComparison(Expression):
    """``expr op ANY|ALL (select ...)`` (ANY/SOME are synonyms)."""

    operand: Expression
    op: str            # comparison operator
    quantifier: str    # 'any' | 'all'
    select: "Select"


class ScalarSelect(Expression):
    """A parenthesized select used as a scalar value.

    Must produce at most one row and exactly one column at run time;
    an empty result evaluates to NULL (standard SQL behaviour).
    """

    select: "Select"


class FunctionCall(Expression):
    """A function application, aggregate or scalar.

    Aggregates: ``count``, ``sum``, ``avg``, ``min``, ``max`` (with
    optional ``DISTINCT``). Scalar functions: ``abs``, ``round``,
    ``upper``, ``lower``, ``length``, ``coalesce``, ``nullif``, ``mod``.
    """

    name: str
    args: tuple
    distinct: bool = False


class CaseExpression(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END`` (searched form)."""

    branches: tuple  # of (condition, value) pairs
    default: Optional[Expression] = None


# ---------------------------------------------------------------------------
# Table references


class TableReference(Record):
    """Marker base class for items in a FROM clause."""

    __slots__ = ()


class BaseTableRef(TableReference):
    """A database table with an optional alias (range variable)."""

    table: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        """The name this reference is known by inside the query scope."""
        return self.alias or self.table


class TransitionKind(Enum):
    """The four (plus one §5.1 extension) transition-table flavours."""

    INSERTED = "inserted"
    DELETED = "deleted"
    OLD_UPDATED = "old updated"
    NEW_UPDATED = "new updated"
    SELECTED = "selected"  # §5.1 extension


class TransitionTableRef(TableReference):
    """A logical transition table (paper §3), e.g. ``inserted emp`` or
    ``new updated emp.salary``.

    ``column`` narrows updated-transition tables to tuples where that
    specific column was updated; it is ``None`` for whole-table forms.
    """

    kind: TransitionKind
    table: str
    column: Optional[str] = None
    alias: Optional[str] = None

    @property
    def binding_name(self) -> str:
        if self.alias:
            return self.alias
        return self.table


# ---------------------------------------------------------------------------
# Select


class SelectItem(Record):
    """One output column: an expression with an optional alias."""

    expression: Expression
    alias: Optional[str] = None


class OrderItem(Record):
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


class Select(Record):
    """A select operation (paper §2.1 ``select-op``), with the common SQL
    conveniences (DISTINCT, GROUP BY/HAVING, ORDER BY, LIMIT, UNION [ALL])
    needed by realistic rules and examples.
    """

    items: tuple                      # of SelectItem | Star
    tables: tuple = ()                # of TableReference
    where: Optional[Expression] = None
    group_by: tuple = ()              # of Expression
    having: Optional[Expression] = None
    order_by: tuple = ()              # of OrderItem
    limit: Optional[int] = None
    distinct: bool = False
    union: Optional["Select"] = None  # UNION [ALL] chained select
    union_all: bool = False


# ---------------------------------------------------------------------------
# Data manipulation operations (paper §2.1 sql-op)


class Operation(Record):
    """Marker base class for operations inside an operation block."""

    __slots__ = ()


class LiteralRows(Sequence):
    """The rows of an all-literal VALUES list: a value matrix that turns
    into expression nodes only when something looks at them.

    ``values`` is the matrix — a tuple of rows, each a tuple of Python
    values, a signed number already negated — which is all execution
    needs. Iterating, indexing, comparing or hashing the sequence calls
    ``materialize`` once for the tuple of rows of :class:`Literal` /
    :class:`UnaryOp` nodes (spans attached) the parser builds for the
    same text; in every other respect it behaves as that tuple.
    """

    __slots__ = ("values", "_materialize", "_nodes")

    def __init__(self, values: tuple,
                 materialize: Callable[[], tuple]) -> None:
        self.values = values
        self._materialize = materialize
        self._nodes: Optional[tuple] = None

    def nodes(self) -> tuple:
        """The rows as a tuple of tuples of expression nodes."""
        if self._nodes is None:
            self._nodes = self._materialize()
        return self._nodes

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: Any) -> Any:
        return self.nodes()[index]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.nodes())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LiteralRows):
            other = other.nodes()
        return self.nodes() == other

    def __hash__(self) -> int:
        return hash(self.nodes())

    def __repr__(self) -> str:
        return repr(self.nodes())


class InsertValues(Operation):
    """``insert into t values (v1, ..., vn) [, (...) ...]``.

    The paper's form has a single row; multi-row VALUES is one operation
    with one affected set. ``rows`` is a sequence of rows of expressions:
    a tuple of tuples, or — when every value is a literal — a
    :class:`LiteralRows`, whose value matrix is inserted as one set.
    Rows holding expressions are evaluated and inserted in order, so a
    subquery in a later row sees the earlier rows.
    ``columns`` optionally names a column subset (unnamed columns get NULL).
    """

    table: str
    rows: Sequence           # of tuple of Expression
    columns: tuple = ()      # optional column-name list


class InsertSelect(Operation):
    """``insert into t (select ...)``."""

    table: str
    select: Select
    columns: tuple = ()


class Delete(Operation):
    """``delete from t [where p]`` — omitted predicate means ``where true``."""

    table: str
    where: Optional[Expression] = None


class Assignment(Record):
    """One ``column = expression`` item in an UPDATE's SET clause."""

    column: str
    expression: Expression


class Update(Operation):
    """``update t set c1 = e1, ... [where p]``."""

    table: str
    assignments: tuple       # of Assignment
    where: Optional[Expression] = None


class SelectOperation(Operation):
    """A standalone select inside an operation block (§5.1 extension).

    Retrieval does not change state but, with select-triggering enabled,
    contributes to the ``S`` component of the transition effect.
    """

    select: Select


class OperationBlock(Record):
    """A non-empty sequence of operations executed indivisibly (§2.1)."""

    operations: tuple

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError("operation block must contain at least one operation")


# ---------------------------------------------------------------------------
# Rule definition (paper §3)


class TransitionPredicateKind(Enum):
    """Kinds of basic transition predicates."""

    INSERTED = "inserted into"
    DELETED = "deleted from"
    UPDATED = "updated"
    SELECTED = "selected"  # §5.1 extension


#: the basic transition predicate a reference to each transition-table
#: flavour needs (paper §3: both updated tables go with ``updated``)
KIND_TO_PREDICATE = {
    TransitionKind.INSERTED: TransitionPredicateKind.INSERTED,
    TransitionKind.DELETED: TransitionPredicateKind.DELETED,
    TransitionKind.OLD_UPDATED: TransitionPredicateKind.UPDATED,
    TransitionKind.NEW_UPDATED: TransitionPredicateKind.UPDATED,
    TransitionKind.SELECTED: TransitionPredicateKind.SELECTED,
}


class BasicTransitionPredicate(Record):
    """One basic transition predicate: an operation kind, a table, and for
    ``updated``/``selected`` an optional column narrowing.
    """

    kind: TransitionPredicateKind
    table: str
    column: Optional[str] = None


class RollbackAction(Record):
    """The ``rollback`` rule action (§3): abort the whole transaction."""


class CreateRule(Record):
    """``create rule name when trans-pred [if condition] then action``.

    ``predicates`` is the disjunctive list of basic transition predicates;
    ``action`` is an :class:`OperationBlock` or :class:`RollbackAction`.
    """

    name: str
    predicates: tuple        # of BasicTransitionPredicate
    condition: Optional[Expression]
    action: object           # OperationBlock | RollbackAction


class DropRule(Record):
    """``drop rule name``."""

    name: str


class CreateRulePriority(Record):
    """``create rule priority r1 before r2`` (§4.4)."""

    higher: str
    lower: str


# ---------------------------------------------------------------------------
# Schema DDL (needed to stand up the substrate; the paper assumes a fixed
# schema exists, so table DDL is part of the substrate, not the contribution)


class ColumnDef(Record):
    """One column in a CREATE TABLE: name and declared type name."""

    name: str
    type_name: str


class CreateTable(Record):
    """``create table t (c1 type1, ..., cn typen)``."""

    name: str
    columns: tuple


class DropTable(Record):
    """``drop table t``."""

    name: str


class CreateIndex(Record):
    """``create index name on table (column)`` — a sorted index (substrate
    engineering; see :mod:`repro.relational.index`)."""

    name: str
    table: str
    column: str


class DropIndex(Record):
    """``drop index name``."""

    name: str


class AssertRules(Record):
    """``assert rules`` — a user-defined rule triggering point (§5.3).

    When executed inside a transaction, the externally-generated transition
    so far is considered complete: rules are processed immediately, and a
    new transition begins afterwards.
    """


class Explain(Record):
    """``explain <select>`` — render the select's logical plan as text.

    A read-only observability statement (not part of the paper's
    language): execution returns the plan the planner would run, without
    evaluating the query.
    """

    select: Select


# ---------------------------------------------------------------------------
# Walking utilities


def conjuncts(expression: object) -> Iterator[Any]:
    """Split a predicate into its top-level AND-conjuncts, left to
    right."""
    if isinstance(expression, BinaryOp) and expression.op == "and":
        yield from conjuncts(expression.left)
        yield from conjuncts(expression.right)
    else:
        yield expression


def iter_expressions(node: object) -> Iterator[Expression]:
    """Yield ``node`` and all expression nodes nested inside it.

    Descends into subqueries (their WHERE/HAVING/items) so callers can find
    every :class:`TransitionTableRef` or :class:`ColumnRef` reachable from
    an expression. Used by rule validation and static analysis.
    """
    stack: list[object] = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        if isinstance(current, Expression):
            yield current
        if isinstance(current, (Literal, Param, ColumnRef, Star)):
            continue
        if isinstance(current, UnaryOp):
            stack.append(current.operand)
        elif isinstance(current, BinaryOp):
            stack.extend((current.left, current.right))
        elif isinstance(current, IsNull):
            stack.append(current.operand)
        elif isinstance(current, Between):
            stack.extend((current.operand, current.low, current.high))
        elif isinstance(current, Like):
            stack.extend((current.operand, current.pattern))
        elif isinstance(current, InList):
            stack.append(current.operand)
            stack.extend(current.items)
        elif isinstance(current, InSelect):
            stack.append(current.operand)
            stack.append(current.select)
        elif isinstance(current, Exists):
            stack.append(current.select)
        elif isinstance(current, QuantifiedComparison):
            stack.append(current.operand)
            stack.append(current.select)
        elif isinstance(current, ScalarSelect):
            stack.append(current.select)
        elif isinstance(current, FunctionCall):
            stack.extend(current.args)
        elif isinstance(current, CaseExpression):
            for condition, value in current.branches:
                stack.extend((condition, value))
            if current.default is not None:
                stack.append(current.default)
        elif isinstance(current, Select):
            for item in current.items:
                if isinstance(item, SelectItem):
                    stack.append(item.expression)
            stack.append(current.where)
            stack.extend(current.group_by)
            stack.append(current.having)
            for order in current.order_by:
                stack.append(order.expression)
            if current.union is not None:
                stack.append(current.union)


def iter_selects(node: object) -> Iterator[Select]:
    """Yield every :class:`Select` nested under an expression/operation."""
    if isinstance(node, Select):
        yield node
        for item in node.items:
            if isinstance(item, SelectItem):
                yield from iter_selects(item.expression)
        if node.where is not None:
            yield from iter_selects(node.where)
        for expr in node.group_by:
            yield from iter_selects(expr)
        if node.having is not None:
            yield from iter_selects(node.having)
        for order in node.order_by:
            yield from iter_selects(order.expression)
        if node.union is not None:
            yield from iter_selects(node.union)
    elif isinstance(node, Expression):
        for select in _direct_subqueries(node):
            yield from iter_selects(select)
    elif isinstance(node, InsertValues):
        if not isinstance(node.rows, Param):  # a literal matrix has none
            for row in node.rows:
                for expr in row:
                    yield from iter_selects(expr)
    elif isinstance(node, InsertSelect):
        yield from iter_selects(node.select)
    elif isinstance(node, Delete):
        if node.where is not None:
            yield from iter_selects(node.where)
    elif isinstance(node, Update):
        for assignment in node.assignments:
            yield from iter_selects(assignment.expression)
        if node.where is not None:
            yield from iter_selects(node.where)
    elif isinstance(node, SelectOperation):
        yield from iter_selects(node.select)
    elif isinstance(node, OperationBlock):
        for operation in node.operations:
            yield from iter_selects(operation)


def _direct_subqueries(expression: object) -> Iterator[Select]:
    """Yield the selects *directly* embedded in an expression, without
    descending into them (their own nesting is handled by the caller's
    recursion — this avoids double-visiting deep subqueries)."""
    stack: list[object] = [expression]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        if isinstance(current, (InSelect, Exists, QuantifiedComparison,
                                ScalarSelect)):
            yield current.select
            if isinstance(current, (InSelect, QuantifiedComparison)):
                stack.append(current.operand)
            continue
        if isinstance(current, (Literal, Param, ColumnRef, Star)):
            continue
        if isinstance(current, UnaryOp):
            stack.append(current.operand)
        elif isinstance(current, BinaryOp):
            stack.extend((current.left, current.right))
        elif isinstance(current, IsNull):
            stack.append(current.operand)
        elif isinstance(current, Between):
            stack.extend((current.operand, current.low, current.high))
        elif isinstance(current, Like):
            stack.extend((current.operand, current.pattern))
        elif isinstance(current, InList):
            stack.append(current.operand)
            stack.extend(current.items)
        elif isinstance(current, FunctionCall):
            stack.extend(current.args)
        elif isinstance(current, CaseExpression):
            for condition, value in current.branches:
                stack.extend((condition, value))
            if current.default is not None:
                stack.append(current.default)


def transition_table_refs(node: object) -> Iterator[TransitionTableRef]:
    """Yield every :class:`TransitionTableRef` reachable from ``node``.

    Covers FROM clauses of all nested selects. Used to validate that a
    rule only references transition tables matching its own basic
    transition predicates (paper §3) and by static analysis.
    """
    for select in iter_selects(node):
        for table in select.tables:
            if isinstance(table, TransitionTableRef):
                yield table
