"""PERF-2: incremental trans-info vs. whole-state snapshot diffing.

§4.3: "the entire database state need not be saved before each
transition. Rather, the necessary transition information can be
accumulated within transitions." This bench quantifies the claim: as the
resident database grows, snapshotting + diffing scales with the database
size while incremental trans-info maintenance scales only with the size
of the change. Expected shape: incremental cost roughly flat across
database sizes; snapshot cost grows linearly; the ratio widens steadily.

(Also demonstrated, in tests: snapshot diffing is *semantically* lossy —
identity updates disappear — §2.2's point that U is not state-derivable.)
"""

import time

import pytest

from repro.baselines import SnapshotEffectTracker
from repro.core.effects import TransitionEffect
from repro.relational.database import Database
from repro.relational.dml import DmlExecutor
from repro.sql.parser import parse_statement

from .conftest import print_series

DB_SIZES = (100, 400, 1600, 6400)
CHANGE_SIZE = 20


def make_database(size):
    database = Database()
    database.create_table(
        "emp",
        [
            ("name", "varchar"),
            ("emp_no", "integer"),
            ("salary", "float"),
            ("dept_no", "integer"),
        ],
    )
    executor = DmlExecutor(database)
    for start in range(0, size, 500):
        rows = ", ".join(
            f"('e{i}', {i}, {40000.0 + i}, {i % 10})"
            for i in range(start, min(start + 500, size))
        )
        executor.execute_block(parse_statement(f"insert into emp values {rows}"))
    return database


def change_block():
    return parse_statement(
        f"update emp set salary = salary + 1 where emp_no < {CHANGE_SIZE}; "
        f"delete from emp where emp_no >= {CHANGE_SIZE} "
        f"and emp_no < {CHANGE_SIZE + 5}"
    )


def run_incremental(database):
    executor = DmlExecutor(database)
    effects = executor.execute_block(change_block())
    return TransitionEffect.from_op_effects(effects)


def run_snapshot(database):
    tracker = SnapshotEffectTracker(database)
    tracker.begin_transition()
    executor = DmlExecutor(database)
    executor.execute_block(change_block())
    return tracker.end_transition()


@pytest.mark.parametrize("size", DB_SIZES)
def test_incremental_transinfo(benchmark, size):
    database = make_database(size)

    def run():
        database.transactions.begin()
        try:
            return run_incremental(database)
        finally:
            database.transactions.rollback()

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("size", DB_SIZES)
def test_snapshot_diff(benchmark, size):
    database = make_database(size)

    def run():
        database.transactions.begin()
        try:
            return run_snapshot(database)
        finally:
            database.transactions.rollback()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_shape_incremental_scales_with_change_not_database(benchmark):
    benchmark.pedantic(_shape_test_shape_incremental_scales_with_change_not_database, rounds=1, iterations=1)


def _shape_test_shape_incremental_scales_with_change_not_database():
    """The §4.3 shape claim, with the *tracking work itself* isolated:
    the change executes once; we then time (a) folding its affected sets
    into trans-info — work proportional to the change — against (b)
    snapshotting the pre-state and diffing — work proportional to the
    whole database."""
    from repro.baselines import diff_snapshots, take_snapshot

    rows = []
    tracked = {}
    for size in DB_SIZES:
        database = make_database(size)
        database.transactions.begin()
        before = take_snapshot(database)
        effects = DmlExecutor(database).execute_block(change_block())
        after = take_snapshot(database)

        def best_of(fn, repeats=5):
            return min(_timed(fn) for _ in range(repeats))

        incremental = best_of(
            lambda: TransitionEffect.from_op_effects(effects)
        )
        snapshot = best_of(
            lambda: diff_snapshots(take_snapshot(database), after)
        )
        database.transactions.rollback()
        tracked[size] = (incremental, snapshot)
        rows.append(
            (
                size,
                f"{incremental*1e6:.0f}us",
                f"{snapshot*1e6:.0f}us",
                f"{snapshot / incremental:.1f}x",
            )
        )
    print_series(
        f"PERF-2: effect tracking for a {CHANGE_SIZE}-tuple change",
        ("db size", "incremental", "snapshot+diff", "snap/incr"),
        rows,
        values={"seconds_incremental_vs_snapshot": tracked},
    )
    small_incr, small_snap = tracked[DB_SIZES[0]]
    large_incr, large_snap = tracked[DB_SIZES[-1]]
    # incremental cost tracks the (fixed) change, not the database
    assert large_incr < small_incr * 10
    # snapshot cost grows with the database (64x size -> >8x cost)
    assert large_snap > small_snap * 8
    # and at scale the gap is decisive
    assert large_snap > large_incr * 10


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
