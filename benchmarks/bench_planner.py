"""PERF-5: the planning layer on join-heavy rule conditions.

§1 argues relational optimization "is directly applicable to the rules
themselves"; the planning layer (``repro.relational.plan``) is the
third optimization after the subquery cache and hash indexes. Two
claims are measured:

* **hash join vs Cartesian product** — a two-table rule-condition join
  visits O(matches) combinations instead of O(n·m): ``rows_visited``
  drops accordingly and wall time follows (the product series times
  ``tests/reference/naive_select.py``, the test suite's reference
  FROM/WHERE — ``src/`` has one select path);
* **plan caching** — rule processing re-evaluates the same condition
  every consideration round, so after the first transaction virtually
  every evaluation is a plan-cache hit (hit rate > 0 is asserted; in
  steady state it approaches 1).

The recorded ``stats`` entries carry the full ``planner`` section
(plan-cache hit rate, rows scanned/visited/returned) that CI validates
in ``BENCH_planner.json``.
"""

import time

import pytest

from repro import ActiveDatabase
from tests.reference import naive_select

from .conftest import FAST_MODE, print_series, record_stats

SIZES = (50, 150) if FAST_MODE else (100, 400, 1600)
DEPARTMENTS = 20

JOIN_SQL = (
    "select e.name from emp e, dept d "
    "where e.dept_no = d.dept_no and d.mgr_no >= 0 and e.salary > 0"
)


def build(size):
    db = ActiveDatabase(record_seen=False)
    db.execute(
        "create table emp (name varchar, emp_no integer, salary float, "
        "dept_no integer)"
    )
    db.execute("create table dept (dept_no integer, mgr_no integer)")
    db.execute(
        "insert into dept values "
        + ", ".join(f"({i}, {100 + i})" for i in range(DEPARTMENTS))
    )
    db.execute(
        "insert into emp values "
        + ", ".join(
            f"('e{i}', {i}, {40000.0 + i}, {i % DEPARTMENTS})"
            for i in range(size)
        )
    )
    return db


def add_join_rule(db):
    """A §3-style condition joining a transition table against dept —
    the shape whose plan is rebuilt every consideration round without
    the cache."""
    db.execute("create table audit (emp_no integer)")
    db.execute(
        "create rule audit_raises when updated emp.salary "
        "if exists (select * from new updated emp.salary e, dept d "
        "where e.dept_no = d.dept_no and d.mgr_no < 0) "
        "then insert into audit (select emp_no from new updated emp.salary)"
    )


@pytest.mark.parametrize("size", SIZES)
def test_join_query_planned(benchmark, size):
    db = build(size)
    benchmark.pedantic(
        lambda: db.rows(JOIN_SQL), rounds=3, iterations=1
    )


@pytest.mark.parametrize("size", SIZES)
def test_join_query_naive(benchmark, size):
    db = build(size)
    with naive_select.installed():
        benchmark.pedantic(
            lambda: db.rows(JOIN_SQL), rounds=3, iterations=1
        )


def test_shape_hash_join_beats_product(benchmark):
    benchmark.pedantic(_shape_hash_join_beats_product, rounds=1,
                       iterations=1)


def _shape_hash_join_beats_product():
    rows = []
    visited = {}
    times = {}
    for size in SIZES:
        db = build(size)
        stats = db.database.counters

        def timed():
            stats.reset()
            start = time.perf_counter()
            result = db.rows(JOIN_SQL)
            elapsed = time.perf_counter() - start
            assert len(result) == size
            return elapsed, stats.rows_visited

        time_on, visited_on = timed()
        with naive_select.installed():
            time_off, visited_off = timed()
        visited[size] = {"planned": visited_on, "naive": visited_off}
        times[size] = {"planned": time_on, "naive": time_off}
        rows.append(
            (
                size,
                visited_on,
                visited_off,
                f"{visited_off / visited_on:.1f}x",
                f"{time_on*1e3:.1f}ms",
                f"{time_off*1e3:.1f}ms",
            )
        )
    print_series(
        "PERF-5: emp-dept join, hash join vs Cartesian product",
        ("emp rows", "visited (hash)", "visited (product)", "reduction",
         "planned", "naive"),
        rows,
        values={"rows_visited": visited, "seconds": times},
    )
    for size in SIZES:
        # hash join visits only matching combos (= emp rows); the naive
        # product visits emp x dept
        assert visited[size]["planned"] == size
        assert visited[size]["naive"] == size * DEPARTMENTS


def test_shape_rule_condition_plan_cache(benchmark):
    benchmark.pedantic(_shape_rule_condition_plan_cache, rounds=1,
                       iterations=1)


def _shape_rule_condition_plan_cache():
    transactions = 10 if FAST_MODE else 40
    db = build(SIZES[0])
    add_join_rule(db)
    db.reset_stats()
    for i in range(transactions):
        db.execute(
            f"update emp set salary = salary + 1 "
            f"where emp_no = {i % SIZES[0]}"
        )
    stats = db.stats()
    planner = stats["planner"]
    record_stats("rule_conditions", db)
    print_series(
        "PERF-5: plan cache across rule considerations",
        ("transactions", "hits", "misses", "hit rate"),
        [
            (
                transactions,
                planner["plan_cache_hits"],
                planner["plan_cache_misses"],
                f"{planner['plan_cache_hit_rate']:.2f}",
            )
        ],
        values={"plan_cache": planner},
    )
    # the condition's plan is built once and reused in every later
    # consideration round
    assert planner["plan_cache_hit_rate"] > 0
    assert planner["plan_cache_hits"] >= transactions - 1
    assert stats["rules"]["audit_raises"]["considerations"] == transactions
    assert stats["rules"]["audit_raises"]["rows_scanned"] > 0
