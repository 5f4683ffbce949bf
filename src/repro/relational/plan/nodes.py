"""The logical-plan IR and its ``explain()`` renderer.

A plan for one select arm is a chain of *result* nodes (Project or
Aggregate, optionally wrapped by Distinct, Sort and Limit) over a tree
of *source* nodes (Scan, IndexLookup, Filter, HashJoin, Product) that
produces the filtered FROM combinations.

Source nodes carry everything needed to execute them against any table
resolver — plans are resolver-independent, so one cached plan serves a
rule condition across consideration rounds even though each round reads
different transition-table contents.

Nodes are mutable records (``Record, frozen=False``): they are private
to the plan cache, never hashed, compare field by field, and carry the
executor's per-run annotations (``actual_rows``, ``mode``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ...records import Record
from ...sql import ast
from ...sql.formatter import format_node
from ...sql.params import bind


# ---------------------------------------------------------------------------
# source nodes: produce FROM combinations


class SingleRow(Record, frozen=False):
    """The FROM-less source: exactly one empty combination (``select 1``)."""

    @property
    def bindings(self) -> tuple[str, ...]:
        return ()


class Scan(Record, frozen=False):
    """Full scan of one FROM item (base *or* transition table).

    ``actual_rows`` (here and on every source node but ``SingleRow``)
    is the node's output size from its most recent execution, written
    by the executor so EXPLAIN can show it per node.
    """

    table_ref: Any             # ast.BaseTableRef | ast.TransitionTableRef
    binding: str               # the name the table is bound as
    columns: tuple             # column names (from the schema at plan time)
    actual_rows: Optional[int] = None

    @property
    def bindings(self) -> tuple[str, ...]:
        return (self.binding,)


class IndexLookup(Record, frozen=False):
    """Hash-index candidate lookup on a base table.

    ``keys`` is a tuple of ``(index_name, column, operand)``, the operand
    the conjunct's literal (or the parameter it was lifted to, looked up
    under each execution's binding); when several indexed equality
    conjuncts exist the candidate sets are intersected. Candidates are a
    *superset* of the matching tuples — the pushed filter conjuncts
    still run on them, so semantics never depend on index contents.
    """

    table_ref: Any             # ast.BaseTableRef
    binding: str
    columns: tuple
    keys: tuple                # of (index_name, column, operand)
    actual_rows: Optional[int] = None

    @property
    def bindings(self) -> tuple[str, ...]:
        return (self.binding,)


class Filter(Record, frozen=False):
    """Evaluate conjuncts over the child's combinations; keep the True ones.

    Directly above a leaf this is a pushed-down per-table filter; at the
    top of the source tree it is the residual (the conjuncts that need
    the full combined scope).
    """

    child: Any
    predicates: tuple          # of Expression (implicitly AND-ed)
    residual: bool = False     # True for the top-level residual filter
    #: zone-map prune specs ``(column_position, op, operand)`` (see
    #: repro.relational.plan.cost.prune_specs); the
    #: vectorized executor skips whole storage zones that cannot satisfy
    #: them before running any kernel
    prune_specs: tuple = ()
    actual_rows: Optional[int] = None

    @property
    def bindings(self) -> tuple[str, ...]:
        return self.child.bindings


class HashJoin(Record, frozen=False):
    """Hash equi-join: build on the right child, probe with the left.

    ``left_keys``/``right_keys`` are parallel tuples of expressions (one
    pair per equi-conjunct); a combination joins when every key pair
    compares equal and no key is NULL. Probe order preserves the left
    child's order, then the right child's — exactly the nested-loop
    (Cartesian) enumeration order, so results are order-identical to the
    naive evaluator's.
    """

    left: Any
    right: Any
    left_keys: tuple           # of Expression, evaluated against left
    right_keys: tuple          # of Expression, evaluated against right
    actual_rows: Optional[int] = None
    #: how the last execution ran: ``"columnar"`` or ``"row"``
    mode: Optional[str] = None

    @property
    def bindings(self) -> tuple[str, ...]:
        return self.left.bindings + self.right.bindings


class Product(Record, frozen=False):
    """Cartesian product (no usable equi-join conjunct)."""

    left: Any
    right: Any
    actual_rows: Optional[int] = None

    @property
    def bindings(self) -> tuple[str, ...]:
        return self.left.bindings + self.right.bindings


# ---------------------------------------------------------------------------
# result nodes: shape the surviving combinations into the output table


class Project(Record, frozen=False):
    """Plain (non-aggregate) projection of the select items."""

    source: Any
    items: tuple               # of output column names


class Aggregate(Record, frozen=False):
    """Grouped projection (GROUP BY and/or aggregate select items)."""

    source: Any
    items: tuple               # of output column names
    group_by: tuple = ()       # of Expression
    having: Optional[Any] = None
    #: how the last execution grouped: ``"columnar"`` or ``"GroupScope"``
    mode: Optional[str] = None


class Distinct(Record, frozen=False):
    child: Any


class Sort(Record, frozen=False):
    child: Any
    order_by: tuple            # of ast.OrderItem


class Limit(Record, frozen=False):
    child: Any
    count: int


class Plan(Record, frozen=False):
    """One select arm's full plan.

    ``root`` is the result-node chain (Limit/Sort/Distinct over
    Project/Aggregate); ``source`` is the combination pipeline the
    executor runs. ``select`` keeps the arm's AST alive (the cache keys
    the plan by its identity) and is what the shared projection
    machinery reads.
    """

    select: Any                # ast.Select (one arm; union handled above)
    source: Any                # source-node tree
    root: Any                  # result-node chain ending at Project/Aggregate
    binding_columns: dict

    def __init__(self, select: Any, source: Any, root: Any,
                 binding_columns: Optional[dict] = None):
        self.select = select
        self.source = source
        self.root = root
        self.binding_columns = (
            {} if binding_columns is None else binding_columns)


# ---------------------------------------------------------------------------
# explain rendering


def _describe(node: Any, params: Sequence[Any]) -> str:
    def render(expression: Any) -> str:
        return format_node(bind(expression, params))

    if isinstance(node, Scan):
        ref = node.table_ref
        if isinstance(ref, ast.TransitionTableRef):
            name = f"{ref.kind.value} {ref.table}"
            if ref.column:
                name += f".{ref.column}"
        else:
            name = ref.table
        label = f"Scan {name}"
        if node.binding != getattr(ref, "table", node.binding):
            label += f" as {node.binding}"
        return label
    if isinstance(node, IndexLookup):
        keys = ", ".join(
            f"{column} = {render(operand)} [{index_name}]"
            for index_name, column, operand in node.keys
        )
        label = f"IndexLookup {node.table_ref.table}"
        if node.binding != node.table_ref.table:
            label += f" as {node.binding}"
        return f"{label} ({keys})"
    if isinstance(node, Filter):
        kind = "Filter (residual)" if node.residual else "Filter"
        rendered = " and ".join(
            render(predicate) for predicate in node.predicates
        )
        return f"{kind}: {rendered}"
    if isinstance(node, HashJoin):
        keys = ", ".join(
            f"{render(left)} = {render(right)}"
            for left, right in zip(node.left_keys, node.right_keys)
        )
        return f"HashJoin ({keys})"
    if isinstance(node, Product):
        return "Product"
    if isinstance(node, SingleRow):
        return "SingleRow"
    if isinstance(node, Project):
        return "Project [" + ", ".join(node.items) + "]"
    if isinstance(node, Aggregate):
        label = "Aggregate [" + ", ".join(node.items) + "]"
        if node.group_by:
            label += " group by " + ", ".join(
                render(expr) for expr in node.group_by
            )
        if node.having is not None:
            label += " having " + render(node.having)
        return label
    if isinstance(node, Distinct):
        return "Distinct"
    if isinstance(node, Sort):
        keys = ", ".join(
            render(order.expression) + (" desc" if order.descending else "")
            for order in node.order_by
        )
        return f"Sort [{keys}]"
    if isinstance(node, Limit):
        return f"Limit {node.count}"
    return type(node).__name__


def _annotation(node: Any) -> str:
    """The ``  (act=...)`` suffix of a source node — ``?`` until it has
    run — followed by how a join or grouping last ran (``columnar``,
    ``row``, ``GroupScope``); empty for nodes with neither (the rest of
    the result chain, ``SingleRow``)."""
    parts: list[str] = []
    if hasattr(node, "actual_rows"):
        act = node.actual_rows
        parts.append(f"act={'?' if act is None else act}")
    mode = getattr(node, "mode", None)
    if mode is not None:
        parts.append(mode)
    return f"  ({', '.join(parts)})" if parts else ""


def _children(node: Any) -> tuple[Any, ...]:
    if isinstance(node, (HashJoin, Product)):
        return (node.left, node.right)
    if isinstance(node, (Filter, Distinct, Sort, Limit)):
        return (node.child,)
    if isinstance(node, (Project, Aggregate)):
        return (node.source,)
    return ()


def explain(plan: Any, indent: int = 0, params: Sequence[Any] = ()) -> str:
    """Render a :class:`Plan` (or any node subtree) as an indented tree,
    a cached statement's parameters shown as ``params`` binds them."""
    node = plan.root if isinstance(plan, Plan) else plan
    lines: list[str] = []

    def walk(current: Any, depth: int) -> None:
        lines.append(
            "  " * depth + _describe(current, params) + _annotation(current)
        )
        for child in _children(current):
            walk(child, depth + 1)

    walk(node, indent)
    return "\n".join(lines)
