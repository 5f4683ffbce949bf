"""Reference planner: the plan zone pruning may never change the result of.

:func:`build_plan` makes every decision from the query text and the
catalog alone — FROM items joined left to right in FROM order, pushed
and residual conjuncts kept in written order, *every* usable index key
intersected — and attaches no zone-map prune specs. Built from the
public plan-node constructors and ``classify_where``, so the only thing
it shares with ``repro.relational.plan.builder`` is the conjunct
classification both start from.

Test-only. :func:`installed` swaps it in where the plan cache looks the
builder up; ``tests/property/test_cost_planner_differential.py``
requires the production planner to build the same source tree but for
prune specs, and to agree with it on values, row order, touched
handles, error type *and message*, fired-rule sequences and final state
(docs/semantics.md §15). It is a different plan from the naive
reference (``naive_select.py``): what the two may disagree on is §8's
subject, not §15's.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import ExecutionError
from repro.relational.plan import builder
from repro.relational.plan.nodes import (
    Filter,
    HashJoin,
    IndexLookup,
    Plan,
    Product,
    Scan,
    SingleRow,
)
from repro.relational.plan.pushdown import _indexable_pair, classify_where
from repro.sql import ast


def build_plan(database, select):
    binding_columns = {}
    for table_ref in select.tables:
        name = table_ref.binding_name
        if name in binding_columns:
            raise ExecutionError(
                f"duplicate table name or alias {name!r} in FROM clause; "
                "use aliases to distinguish"
            )
        binding_columns[name] = tuple(
            database.schema(table_ref.table).column_names
        )
    classified = classify_where(select.where, binding_columns)

    source = None if select.tables else SingleRow()
    used = [False] * len(classified.joins)
    joined = set()
    for table_ref in select.tables:
        binding = table_ref.binding_name
        leaf = _leaf(database, table_ref, binding_columns[binding],
                     tuple(classified.pushed.get(binding, ())))
        if source is None:
            source = leaf
        else:
            left_keys, right_keys = [], []
            for position, (left, left_names, right,
                           right_names) in enumerate(classified.joins):
                if used[position]:
                    continue
                if left_names <= joined and right_names == {binding}:
                    left_keys.append(left)
                    right_keys.append(right)
                elif right_names <= joined and left_names == {binding}:
                    left_keys.append(right)
                    right_keys.append(left)
                else:
                    continue
                used[position] = True
            if left_keys:
                source = HashJoin(source, leaf, tuple(left_keys),
                                  tuple(right_keys))
            else:
                source = Product(source, leaf)
        joined.add(binding)

    # equi-conjuncts that never connected two joined sides are ordinary
    # equalities again
    residual = list(classified.residual) + [
        ast.BinaryOp("=", left, right)
        for (left, _, right, _), taken in zip(classified.joins, used)
        if not taken
    ]
    if residual:
        source = Filter(source, tuple(residual), residual=True)
    # executed, never explained: the result chain is left out
    return Plan(select, source, source, binding_columns)


def _leaf(database, table_ref, columns, pushed):
    binding = table_ref.binding_name
    leaf = None
    if isinstance(table_ref, ast.BaseTableRef):
        table = database.table(table_ref.table)
        keys = []
        for conjunct in pushed:
            pair = _indexable_pair(
                conjunct, {binding, table_ref.table}, table.schema
            )
            if pair is not None and table.index_on(pair[0]) is not None:
                keys.append((table.index_on(pair[0]).name, *pair))
        if keys:
            leaf = IndexLookup(table_ref, binding, columns, tuple(keys))
    if leaf is None:
        leaf = Scan(table_ref, binding, columns)
    return Filter(leaf, pushed) if pushed else leaf


@contextmanager
def installed():
    """Every plan built inside the block — on any database — comes from
    this module. Plan caches are per database, so give the reference a
    database of its own."""
    original = builder.build_plan
    builder.build_plan = build_plan
    try:
        yield
    finally:
        builder.build_plan = original
