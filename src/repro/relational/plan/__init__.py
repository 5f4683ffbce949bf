"""Query planning: logical plans between the SQL AST and evaluation.

The paper defines rule semantics over query *results*, not plans (§4),
so the evaluator substrate is free to pick any access path that returns
the same result. This package supplies that freedom in layers:

* :mod:`~repro.relational.plan.nodes` — the logical-plan IR (Scan,
  IndexLookup, Filter, HashJoin, Product, Project, Aggregate, Sort,
  Limit, ...) and the ``explain()`` renderer;
* :mod:`~repro.relational.plan.pushdown` — conjunct analysis: splitting
  a WHERE into per-table pushdown filters, hash-join keys and a residual;
* :mod:`~repro.relational.plan.cost` — expression totality and the
  zone-map prune specs of a pushed filter;
* :mod:`~repro.relational.plan.builder` — ``build_plan()``: AST → plan,
  from the statement text and the catalog alone;
* :mod:`~repro.relational.plan.executor` — runs a plan's source pipeline,
  producing the scopes the (shared) projection machinery consumes;
* :mod:`~repro.relational.plan.cache` — the per-database statement
  cache (a statement's template AST, plans and compiled programs under
  one key: its normalised text, or its root node; emptied by
  schema/index DDL) and the planner counters surfaced through the
  engine's observability bus.

**Plan-invariance guarantee:** plans never change §4 semantics, only
cost. Every plan produces exactly the rows, columns and touched handles
of the FROM product with the whole WHERE evaluated per combination —
``tests/reference/naive_select.py``, the auditable reference the
differential suite ``tests/property/test_planner_differential.py``
compares against (docs/semantics.md §8 states what holds for errors).
Zone pruning is gated so result rows, errors and row order match the
plan without prune specs that ``tests/reference/syntactic_planner.py``
builds (docs/semantics.md §15).
"""

from typing import Any, Optional

from .builder import build_plan
from .cache import Bound, PlannerStats, StatementCache
from .executor import execute_source
from .nodes import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    IndexLookup,
    Limit,
    Plan,
    Product,
    Project,
    Scan,
    SingleRow,
    Sort,
    explain,
)
from .pushdown import conjuncts, index_candidates


def explain_select(database: Any, select: Any,
                   bound: Optional[Bound] = None) -> str:
    """Render the plan for a (possibly UNION-chained) select as text.

    Plans come from the database's statement cache (``bound`` names the
    entry ``select`` belongs to and the literals to show), so EXPLAIN
    shows exactly the plan subsequent executions will run (and warms
    the cache).
    """
    if bound is None:
        bound = database.statements.bound_node(select)
    stats = database.planner_stats
    plan = database.statements.plan_for(select, database, stats, bound)
    if select.union is None:
        return explain(plan, params=bound.params)
    label = "Union all" if select.union_all else "Union"
    first = explain(plan, indent=1, params=bound.params)
    rest = explain_select(database, select.union, bound)
    rest = "\n".join("  " + line for line in rest.splitlines())
    return f"{label}\n{first}\n{rest}"


__all__ = [
    "Aggregate",
    "Bound",
    "Distinct",
    "Filter",
    "HashJoin",
    "IndexLookup",
    "Limit",
    "Plan",
    "PlannerStats",
    "Product",
    "Project",
    "Scan",
    "SingleRow",
    "Sort",
    "StatementCache",
    "build_plan",
    "conjuncts",
    "execute_source",
    "explain",
    "explain_select",
    "index_candidates",
]
