"""Every rule's cursor composition against an eager per-rule fold.

The engine keeps one :class:`~repro.core.effects.TransitionLog` per
transaction: each transition netted once, one cursor per rule, one
running composition per distinct cursor. Figure 1, and the code it
replaced (``tests/reference/figure1.py``), keeps one ``trans-info`` per
rule and folds every operation into each. Random operation sequences on
three tables, cut into transitions and interleaved with the footnote-8
resets — a rule firing (execution), a baseline moved to now
(consideration, triggering) and a rule defined mid-transaction — must
leave every rule's composition equal to its eager fold: I, D, U and S as
flat sets, the pre-image of every handle, each transition table's rows
as a multiset, and ``trans_info_size``.
"""

import itertools
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.effects import TransitionEffect, TransitionLog
from repro.core.transition_tables import TransitionTableResolver
from repro.relational.database import Database
from repro.relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)
from repro.sql import ast
from tests.reference import figure1

TABLES = ("t0", "t1", "t2")
COLUMNS = ("k", "v")
Kind = ast.TransitionKind


def run_operation(data, database, values):
    """Execute one random set operation; returns its effect record."""
    table = data.draw(st.sampled_from(TABLES))
    live = database.table(table).handles()
    kind = data.draw(st.sampled_from(
        ("insert", "delete", "update", "select") if live else ("insert",)))
    if kind == "insert":
        row_values = [next(values) for _ in range(data.draw(st.integers(1, 3)))]
        handles = database.insert_rows(table, [row_values, row_values])
        return InsertEffect(table, tuple(handles))
    chosen = data.draw(st.lists(
        st.sampled_from(live), min_size=1, max_size=4, unique=True))
    if kind == "delete":
        rows = database.delete_rows(table, chosen)
        return DeleteEffect(table, tuple(zip(chosen, rows)))
    column = data.draw(st.sampled_from(COLUMNS))
    if kind == "update":
        rows = database.assign_columns(
            table, chosen, [column], [[next(values) for _ in chosen]])
        return UpdateEffect(table, (column,), tuple(zip(chosen, rows)))
    return SelectEffect(tuple((table, handle, (column,)) for handle in chosen))


def expected_tables(database, info, table):
    """``(kind, column, rows)`` per transition table of ``table``, read
    from the eager fold the way the replaced resolver read it."""
    current = database.table(table).get
    mine = {h for h, name in info.tables.items() if name == table}
    yield Kind.INSERTED, None, [current(h) for h in info.ins & mine]
    yield Kind.DELETED, None, [
        row for h, row in info.deleted.items() if h in mine]
    for column in (None, *COLUMNS):
        updated = [(h, row) for h, (row, columns) in info.upd.items()
                   if h in mine and (column is None or column in columns)]
        yield Kind.OLD_UPDATED, column, [row for _, row in updated]
        yield Kind.NEW_UPDATED, column, [current(h) for h, _ in updated]
        selected = {h for h, c in info.sel
                    if h in mine and (column is None or c == column)}
        yield Kind.SELECTED, column, [
            current(h) for h in selected if h in database.table(table)]


def check(database, effect, info):
    assert effect.inserted == info.ins
    assert effect.deleted == set(info.deleted)
    assert effect.updated == {
        (h, c) for h, (_, columns) in info.upd.items() for c in columns}
    assert effect.selected == info.sel
    pre = {}
    for part in effect.tables.values():
        pre.update(part.pre)
    expected_pre = dict(info.deleted)
    expected_pre.update((h, row) for h, (row, _) in info.upd.items())
    assert pre == expected_pre
    assert effect.size() == (
        len(info.ins) + len(info.deleted) + len(info.upd) + len(info.sel))
    resolver = TransitionTableResolver(database, effect)
    for table in TABLES:
        for kind, column, rows in expected_tables(database, info, table):
            reference = ast.TransitionTableRef(kind, table, column)
            assert Counter(resolver.resolve(reference)[1]) == Counter(rows)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cursor_compositions_equal_eager_folds(data):
    database = Database()
    for table in TABLES:
        database.create_table(table, [("k", "integer"), ("v", "integer")])
        database.insert_rows(table, [[1, 2, 3], [0, 0, 0]])
    values = itertools.count(100)
    log = TransitionLog(("a", "b", "c"))
    eager = {name: figure1.TransInfo() for name in log.cursors}
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(
            ("transition", "fire", "reset", "define")))
        if step == "define":
            name = f"r{len(eager)}"
        elif step != "transition":
            name = data.draw(st.sampled_from(sorted(log.cursors)))
        if step in ("define", "reset", "fire"):
            log.restart(name)
            eager[name] = figure1.TransInfo()
        if step in ("transition", "fire"):
            operations = [run_operation(data, database, values)
                          for _ in range(data.draw(st.integers(1, 4)))]
            log.append(TransitionEffect.from_op_effects(operations))
            for info in eager.values():
                for operation in operations:
                    info.apply(operation)
        for name, info in eager.items():
            check(database, log.info(name), info)
