"""PERF-4: rule selection strategy overhead (§4.4).

§4.4 surveys selection strategies without committing to one ("For a
thorough comparison and evaluation of rule selection strategies we must
consider a number of large-scale examples"). This bench provides the
measurement harness: N simultaneously triggered rules (all but one with
false conditions) processed under each strategy, so the per-round
ordering cost and total consideration count are observable.
"""

import time

import pytest

from repro import (
    ActiveDatabase,
    CreationOrder,
    LeastRecentlyConsidered,
    PriorityOrder,
    TotalOrder,
)
from tests.reference import full_reeval

from .conftest import FAST_MODE, print_series, record_stats

RULE_COUNTS = (4, 8) if FAST_MODE else (8, 32, 128)

STRATEGIES = {
    "creation": CreationOrder,
    "priority": PriorityOrder,
    "total": None,  # built per rule set
    "lru": LeastRecentlyConsidered,
}


def build(rules, strategy_name):
    names = [f"r{i}" for i in range(rules)]
    if strategy_name == "total":
        strategy = TotalOrder(list(reversed(names)))
    else:
        strategy = STRATEGIES[strategy_name]()
    db = ActiveDatabase(strategy=strategy, record_seen=False)
    db.execute("create table t (x integer)")
    db.execute("create table log (x integer)")
    for index, name in enumerate(names):
        # every rule triggers on the insert; only the last one's
        # condition holds, and it fires exactly once
        condition = (
            "if not exists (select * from log) "
            if index == rules - 1
            else "if false "
        )
        action = (
            "then insert into log values (1)"
            if index == rules - 1
            else "then delete from t where false"
        )
        db.execute(
            f"create rule {name} when inserted into t {condition}{action}"
        )
    if strategy_name == "priority":
        # a chain of pairings: r0 before r1 before ... (worst case for
        # the partial-order maximality computation)
        for first, second in zip(names, names[1:]):
            db.execute(f"create rule priority {first} before {second}")
    return db


@pytest.mark.parametrize("rules", RULE_COUNTS)
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
def test_strategy_cost(benchmark, rules, strategy_name):
    def run():
        db = build(rules, strategy_name)
        result = db.execute("insert into t values (1)")
        assert result.rule_firings == 1

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_shape_strategies(benchmark):
    benchmark.pedantic(_shape_strategies, rounds=1, iterations=1)


def _shape_strategies():
    rows = []
    times = {}
    for strategy_name in sorted(STRATEGIES):
        per_count = []
        for rules in RULE_COUNTS:
            db = build(rules, strategy_name)
            start = time.perf_counter()
            db.execute("insert into t values (1)")
            per_count.append(time.perf_counter() - start)
        times[strategy_name] = per_count
        record_stats(strategy_name, db)
        rows.append(
            (strategy_name,)
            + tuple(f"{value*1e3:.1f}ms" for value in per_count)
        )
    print_series(
        "PERF-4: selection strategies, N triggered rules (1 fires)",
        ("strategy",) + tuple(f"{n} rules" for n in RULE_COUNTS),
        rows,
        values={"seconds_by_strategy": times},
    )
    # all strategies quiesce; the priority chain (transitive-closure
    # checks) is the costliest but must stay within interactive bounds
    assert times["priority"][-1] < 5.0


# ---------------------------------------------------------------------------
# PERF-4b: predicate-heavy conditions, batch vs interpreted evaluation

DATA_ROWS = 500 if FAST_MODE else 4000


def build_predicate_heavy(rules, batch):
    """N rules whose conditions each full-scan a data table under a
    multi-term predicate that never holds; the evaluation cost is almost
    entirely per-row expression work, which is what the batch kernels
    (repro.relational.compiled) target."""
    db = ActiveDatabase(record_seen=False)
    db.database.enable_vectorized_eval = batch
    # these conditions are counter-maintainable; run them through the
    # test suite's full re-evaluation reference so the bench measures
    # per-row expression evaluation rather than a maintained-view lookup
    full_reeval.install(db)
    db.execute("create table t (a integer, b integer, c float)")
    db.execute("create table trig (x integer)")
    rows = ", ".join(f"({i}, {i % 7}, {i * 1.5})" for i in range(DATA_ROWS))
    db.execute(f"insert into t values {rows}")
    for index in range(rules):
        db.execute(
            f"create rule heavy{index} when inserted into trig "
            f"if exists (select * from t where a % 3 = 1 and b > 7 "
            f"and c + a < 0.0) "
            f"then delete from trig where false"
        )
    return db


def test_shape_compiled_conditions(benchmark):
    benchmark.pedantic(_shape_compiled_conditions, rounds=1, iterations=1)


def _shape_compiled_conditions():
    rows_out = []
    times = {}
    for mode, batch in (("batch", True), ("interpreted", False)):
        per_count = []
        for rules in RULE_COUNTS:
            db = build_predicate_heavy(rules, batch)
            db.execute("insert into trig values (0)")  # warm the caches
            start = time.perf_counter()
            db.execute("insert into trig values (1)")
            per_count.append(time.perf_counter() - start)
        times[mode] = per_count
        record_stats(f"eval_{mode}", db)
        rows_out.append(
            (mode,) + tuple(f"{value*1e3:.1f}ms" for value in per_count)
        )
    rows_out.append(
        ("speedup",)
        + tuple(
            f"{i/c:.2f}x"
            for i, c in zip(times["interpreted"], times["batch"])
        )
    )
    print_series(
        "PERF-4b: predicate-heavy conditions, batch vs interpreted",
        ("evaluation",) + tuple(f"{n} rules" for n in RULE_COUNTS),
        rows_out,
        values={"seconds_by_mode": times},
    )
    if not FAST_MODE:
        # column-at-a-time kernels beat per-row Scope dict resolution by
        # at least 2x on predicate-dominated work
        assert times["interpreted"][-1] / times["batch"][-1] >= 2.0
