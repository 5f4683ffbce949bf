"""Reference FROM/WHERE: the paper's query semantics, read literally.

PAPER.md §4 defines rule behaviour over query *results*: a select's
FROM clause denotes the product of its tables, and its WHERE keeps the
combinations on which the whole predicate is true. :func:`naive_scopes`
is exactly that — every combination in nested-loop order, the whole
WHERE evaluated per combination by the interpreter
(:class:`~repro.relational.expressions.Evaluator`), no pushdown, no
hash join, no index shortcut, no plan cache.

Test-only: it left ``src/`` together with the switch that selected it.
It has the signature of ``_SelectExecutor._planned_scopes`` — the one seam
between FROM/WHERE and the shared projection back end — and
:func:`installed` swaps it in there, subqueries included, so
``tests/property/test_planner_differential.py`` and
``tests/unit/test_planner.py`` can hold the planned path to it:
identical columns, rows, row order and touched handles
(docs/semantics.md §8).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import product

from repro.errors import ExecutionError
from repro.relational.expressions import Scope
from repro.relational.select import _SelectExecutor
from repro.sql import ast


def naive_scopes(executor, select, outer, stats):
    """``(bindings, scopes, None)``: one Scope per FROM combination that
    satisfies the WHERE; no batch is ever returned."""
    tables = []  # (binding name, columns, rows, (table, handle) per row)
    for table_ref in select.tables:
        name = table_ref.binding_name
        if any(name == seen for seen, _, _, _ in tables):
            raise ExecutionError(
                f"duplicate table name or alias {name!r} in FROM clause; "
                "use aliases to distinguish"
            )
        columns, rows = executor.resolver.resolve(table_ref)
        pairs = [None] * len(rows)
        if executor.collect_handles and isinstance(table_ref,
                                                   ast.BaseTableRef):
            handles = executor.database.table(table_ref.table).iter_handles()
            pairs = [(table_ref.table, handle) for handle in handles]
        tables.append((name, columns, rows, pairs))

    scopes = []
    for combination in product(
        *(zip(rows, pairs) for _, _, rows, pairs in tables)
    ):
        scope = Scope(parent=outer)
        for (name, columns, _, _), (row, _) in zip(tables, combination):
            scope.bind(name, columns, row)
        # the base-table handles behind the combination, as the shared
        # projection reads them off a scope
        touched = [pair for _, pair in combination if pair is not None]
        if touched:
            scope.touched_pairs = touched
        scopes.append(scope)
    stats.rows_scanned += sum(len(rows) for _, _, rows, _ in tables)
    stats.rows_visited += len(scopes)

    if select.where is not None:
        holds = executor.evaluator.evaluate_predicate
        scopes = [
            scope for scope in scopes if holds(select.where, scope) is True
        ]
    bindings = [(name, columns) for name, columns, _, _ in tables]
    return bindings, scopes, None


@contextmanager
def installed():
    """Every select evaluated inside the block — top level and subquery,
    on any database — takes the reference FROM/WHERE."""
    planned = _SelectExecutor._planned_scopes
    _SelectExecutor._planned_scopes = naive_scopes
    try:
        yield
    finally:
        _SelectExecutor._planned_scopes = planned
