"""ABL-2 (ablation): sorted indexes under rule workloads.

§1 argues relational optimization "is directly applicable to the rules
themselves". Indexes are the second optimization we add (after the
uncorrelated-subquery cache): point-predicate deletes/updates — the
typical repair actions of generated constraint rules — drop from O(table)
scans to O(matches) lookups, and the cascade rule's per-transaction cost
follows. Expected shape: without an index, per-transaction cost grows
linearly with the resident table; with one, it stays roughly flat.
"""

import time

import pytest

from repro import ActiveDatabase

from .conftest import FAST_MODE, print_series, record_stats

SIZES = (100, 300) if FAST_MODE else (200, 800, 3200)


def build(size, indexed):
    db = ActiveDatabase(record_seen=False)
    db.execute(
        "create table emp (name varchar, emp_no integer, salary float, "
        "dept_no integer)"
    )
    db.execute("create table tombstone (emp_no integer)")
    db.execute(
        "insert into emp values "
        + ", ".join(
            f"('e{i}', {i}, 40000.0, {i % 50})" for i in range(size)
        )
    )
    if indexed:
        db.execute("create index idx_emp_no on emp (emp_no)")
        db.execute("create index idx_dept_no on emp (dept_no)")
    db.execute(
        "create rule archive when deleted from emp "
        "then insert into tombstone (select emp_no from deleted emp)"
    )
    return db


def point_deletes(db, count=20, offset=0):
    for i in range(count):
        db.execute(f"delete from emp where emp_no = {offset + i}")


@pytest.mark.parametrize("size", SIZES)
def test_point_deletes_with_index(benchmark, size):
    def run():
        db = build(size, indexed=True)
        point_deletes(db)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("size", SIZES)
def test_point_deletes_without_index(benchmark, size):
    def run():
        db = build(size, indexed=False)
        point_deletes(db)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_shape_index_flattens_point_cost(benchmark):
    benchmark.pedantic(_shape_index_flattens_point_cost, rounds=1,
                       iterations=1)


def _shape_index_flattens_point_cost():
    rows = []
    times = {}
    for size in SIZES:
        def timed(indexed, size=size):
            db = build(size, indexed)
            start = time.perf_counter()
            point_deletes(db)
            record_stats(f"{'indexed' if indexed else 'scan'}_{size}", db)
            return time.perf_counter() - start

        with_index = min(timed(True) for _ in range(3))
        without = min(timed(False) for _ in range(3))
        times[size] = (with_index, without)
        rows.append(
            (
                size,
                f"{with_index*1e3:.1f}ms",
                f"{without*1e3:.1f}ms",
                f"{without/with_index:.1f}x",
            )
        )
    print_series(
        "ABL-2: 20 point deletes through the archive rule",
        ("emp rows", "indexed", "full scan", "scan/indexed"),
        rows,
        values={"seconds_indexed_vs_scan": times},
    )
    if FAST_MODE:
        return  # smoke run: shape assertions need the full grid
    small_idx, small_scan = times[SIZES[0]]
    large_idx, large_scan = times[SIZES[-1]]
    # scans grow with the table; indexed stays near-flat
    assert large_scan > small_scan * 4
    assert large_idx < small_idx * 4
    assert large_scan > large_idx * 3
