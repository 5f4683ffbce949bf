"""PERF-3: rule-processing cost vs. number of rules and cascade depth.

The §4.2/§4.3 machinery does per-rule bookkeeping: every transition is
folded into every other rule's trans-info (Figure 1's
``modify-trans-info`` loop "for each R' in rules()"). This bench
characterizes the two scaling dimensions of that design:

* number of defined rules (most of them irrelevant to the workload) —
  cost should grow gently and linearly, not quadratically;
* cascade depth (an Example 4.1-style chain of rule-generated
  transitions) — cost should be linear in the number of transitions.
"""

import time

import pytest

from repro import ActiveDatabase

from .conftest import FAST_MODE, print_series, record_stats

RULE_COUNTS = (1, 4) if FAST_MODE else (1, 8, 32, 128)
CASCADE_DEPTHS = (2, 8) if FAST_MODE else (2, 8, 32, 128)


def make_db_with_rules(rules):
    db = ActiveDatabase(record_seen=False)
    db.execute("create table t (x integer)")
    db.execute("create table log (x integer)")
    # one relevant rule + (rules - 1) bystanders watching other tables
    db.execute(
        "create rule relevant when inserted into t "
        "then insert into log (select x from inserted t)"
    )
    for index in range(rules - 1):
        db.execute(f"create table side{index} (x integer)")
        db.execute(
            f"create rule bystander{index} when inserted into side{index} "
            f"then delete from side{index} where false"
        )
    return db


def run_insert(db):
    rows = ", ".join(f"({i})" for i in range(20))
    return db.execute(f"insert into t values {rows}")


@pytest.mark.parametrize("rules", RULE_COUNTS)
def test_rule_count_scaling(benchmark, rules):
    db = make_db_with_rules(rules)
    benchmark.pedantic(lambda: run_insert(db), rounds=3, iterations=1)


def make_cascade_db(depth):
    """A countdown chain: a counter decremented by a self-triggering rule
    produces exactly ``depth`` rule transitions."""
    db = ActiveDatabase(record_seen=False, max_rule_transitions=depth + 10)
    db.execute("create table c (n integer)")
    db.execute(
        "create rule countdown when inserted into c or updated c.n "
        "if exists (select * from c where n > 0) "
        "then update c set n = n - 1 where n > 0"
    )
    return db


@pytest.mark.parametrize("depth", CASCADE_DEPTHS)
def test_cascade_depth_scaling(benchmark, depth):
    def run():
        db = make_cascade_db(depth)
        result = db.execute(f"insert into c values ({depth})")
        assert result.rule_firings == depth

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_shape_linear_scaling(benchmark):
    benchmark.pedantic(_shape_test_shape_linear_scaling, rounds=1, iterations=1)


def _shape_test_shape_linear_scaling():
    """Assert the two shape claims and print the series."""
    rule_rows = []
    rule_times = {}
    for rules in RULE_COUNTS:
        db = make_db_with_rules(rules)
        best = min(
            _timed(lambda: run_insert(db)) for _ in range(3)
        )
        rule_times[rules] = best
        rule_rows.append((rules, f"{best*1e3:.2f}ms"))
        if rules == RULE_COUNTS[-1]:
            record_stats(f"rules={rules}", db)
    print_series(
        "PERF-3a: 20-row insert vs. number of defined rules",
        ("rules", "txn time"),
        rule_rows,
        values={"seconds_per_txn": rule_times},
    )

    depth_rows = []
    depth_times = {}
    for depth in CASCADE_DEPTHS:
        best = min(
            _timed(lambda: make_cascade_db(depth).execute(
                f"insert into c values ({depth})"
            ))
            for _ in range(3)
        )
        depth_times[depth] = best
        depth_rows.append(
            (depth, f"{best*1e3:.2f}ms", f"{best/depth*1e3:.3f}ms")
        )
    print_series(
        "PERF-3b: cascade chain cost vs. depth",
        ("depth", "txn time", "per transition"),
        depth_rows,
        values={"seconds_per_txn": depth_times},
    )

    if FAST_MODE:
        return
    # 128x more rules should cost far less than 128x more time
    # (sub-linear per-transaction overhead for irrelevant rules)
    assert rule_times[128] < rule_times[1] * 64
    # cascade: amortized per-transition cost should not explode
    per_low = depth_times[8] / 8
    per_high = depth_times[128] / 128
    assert per_high < per_low * 8


# ---------------------------------------------------------------------------
# PERF-3c: wide-table cascade, batch vs interpreted evaluation

WIDE_ROWS = 200 if FAST_MODE else 2000
WIDE_DEPTHS = (2, 8) if FAST_MODE else (8, 32)


def make_wide_cascade_db(depth, batch):
    """The countdown cascade over a table padded with ``WIDE_ROWS``
    never-matching tuples: every transition's condition subquery and its
    action's update WHERE full-scan the table, so per-row predicate cost
    dominates — the batch kernels' target profile."""
    db = ActiveDatabase(record_seen=False, max_rule_transitions=depth + 10)
    db.database.enable_vectorized_eval = batch
    db.execute("create table c (n integer, pad integer)")
    rows = ", ".join(f"(0, {i})" for i in range(WIDE_ROWS))
    db.execute(f"insert into c values {rows}")
    db.execute(
        "create rule countdown when inserted into c or updated c.n "
        "if exists (select * from c where n > 0) "
        "then update c set n = n - 1 where n > 0"
    )
    return db


def test_shape_compiled_cascade(benchmark):
    benchmark.pedantic(_shape_compiled_cascade, rounds=1, iterations=1)


def _shape_compiled_cascade():
    rows_out = []
    times = {}
    for mode, batch in (("batch", True), ("interpreted", False)):
        per_depth = []
        for depth in WIDE_DEPTHS:
            db = make_wide_cascade_db(depth, batch)
            start = time.perf_counter()
            result = db.execute(f"insert into c values ({depth}, -1)")
            per_depth.append(time.perf_counter() - start)
            assert result.rule_firings == depth
        times[mode] = per_depth
        record_stats(f"eval_{mode}", db)
        rows_out.append(
            (mode,) + tuple(f"{value*1e3:.1f}ms" for value in per_depth)
        )
    rows_out.append(
        ("speedup",)
        + tuple(
            f"{i/c:.2f}x"
            for i, c in zip(times["interpreted"], times["batch"])
        )
    )
    print_series(
        f"PERF-3c: {WIDE_ROWS}-row cascade, batch vs interpreted",
        ("evaluation",) + tuple(f"depth {d}" for d in WIDE_DEPTHS),
        rows_out,
        values={"seconds_by_mode": times},
    )
    if not FAST_MODE:
        # the condition's subquery and the DML WHERE both run as batch
        # kernels; the combined per-transition cost must drop at least 2x
        assert times["interpreted"][-1] / times["batch"][-1] >= 2.0


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
