"""PERF-7: columnar batches + vectorized kernels vs row-at-a-time.

The batch-kernel layer turns predicate/projection evaluation from one
interpreter walk per row into one kernel call per column batch, so its
win grows with scanned volume. Two shapes are measured, each as a
vectorized-on vs vectorized-off series (the off series is the pure
interpreter, row at a time — the layer's differential oracle):

* **predicate-heavy scan** — a four-conjunct filter chain plus ORDER BY
  over one table; the acceptance criterion (≥2x at full scale) is
  asserted on this shape;
* **wide-table rule cascade** — set-oriented rules whose conditions and
  actions rescan a wide table every consideration round, measuring the
  batch path through the engine's rule loop (transition tables, DML
  WHERE, condition evaluation).

The recorded ``stats`` entries carry the ``vectorized`` section
(batches scanned, selection-vector hit ratio, fallback counts) that CI
validates in ``BENCH_vectorized.json``.
"""

import gc
import time

import pytest

from repro import ActiveDatabase

from .conftest import FAST_MODE, print_series, record_stats

SIZES = (2000, 5000) if FAST_MODE else (5000, 20000)
#: asserted speedup of the predicate-heavy scan at the largest full-mode
#: size — the tentpole acceptance criterion (skipped in fast mode:
#: sub-ms timings are scheduler noise)
REQUIRED_SPEEDUP = 2.0

SCAN_SQL = (
    "select a, b from t where b > 1 and a % 3 = 0 and c < {bound} "
    "and s like 's%' order by a"
)


def build_scan_db(size):
    db = ActiveDatabase(record_seen=False)
    db.execute(
        "create table t (a integer, b integer, c float, s varchar)"
    )
    values = ", ".join(
        f"({i}, {i % 7}, {i * 0.5}, 's{i % 11}')" for i in range(size)
    )
    db.execute(f"insert into t values {values}")
    return db


def scan_sql(size):
    # keep ~45% selectivity on the float conjunct at every size
    return SCAN_SQL.format(bound=size * 0.45)


def timed_rows(db, sql, vectorized, repetitions=3):
    db.database.enable_vectorized_eval = vectorized
    best = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = db.rows(sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, len(result)


@pytest.mark.parametrize("size", SIZES)
def test_scan_vectorized(benchmark, size):
    db = build_scan_db(size)
    sql = scan_sql(size)
    benchmark.pedantic(lambda: db.rows(sql), rounds=3, iterations=1)


@pytest.mark.parametrize("size", SIZES)
def test_scan_row_mode(benchmark, size):
    db = build_scan_db(size)
    db.database.enable_vectorized_eval = False
    sql = scan_sql(size)
    benchmark.pedantic(lambda: db.rows(sql), rounds=3, iterations=1)


def test_shape_predicate_heavy_scan(benchmark):
    benchmark.pedantic(_shape_predicate_heavy_scan, rounds=1, iterations=1)


def _shape_predicate_heavy_scan():
    rows = []
    times = {}
    speedups = {}
    for size in SIZES:
        db = build_scan_db(size)
        sql = scan_sql(size)
        db.rows(sql)  # warm plan/program caches out of the measurement
        vec_time, vec_count = timed_rows(db, sql, vectorized=True)
        row_time, row_count = timed_rows(db, sql, vectorized=False)
        assert vec_count == row_count
        db.database.enable_vectorized_eval = True
        db.reset_stats()
        db.rows(sql)
        section = db.stats()["vectorized"]
        record_stats(f"scan_{size}", db)
        speedup = row_time / vec_time
        times[size] = {"vectorized": vec_time, "row": row_time}
        speedups[size] = speedup
        rows.append(
            (
                size,
                vec_count,
                f"{vec_time * 1e3:.1f}ms",
                f"{row_time * 1e3:.1f}ms",
                f"{speedup:.2f}x",
                f"{section['selection_hit_rate']:.2f}",
            )
        )
    print_series(
        "PERF-7: predicate-heavy scan, vectorized vs row-at-a-time",
        ("rows", "selected", "vectorized", "row", "speedup", "hit rate"),
        rows,
        values={"seconds": times, "speedup": speedups},
    )
    if not FAST_MODE:
        assert speedups[SIZES[-1]] >= REQUIRED_SPEEDUP, (
            f"vectorized scan speedup {speedups[SIZES[-1]]:.2f}x below "
            f"the required {REQUIRED_SPEEDUP}x"
        )


# ---------------------------------------------------------------------------
# wide-table rule cascade

WIDE_COLUMNS = 12
CASCADE_SIZES = (200, 500) if FAST_MODE else (500, 2000)


def build_cascade_db(size):
    """A wide table whose rules rescan it on every consideration: one
    rule caps a counter column set-oriented, another logs the capped
    handles — both conditions are predicate scans over all columns."""
    db = ActiveDatabase(record_seen=False)
    columns = ", ".join(f"c{i} integer" for i in range(WIDE_COLUMNS))
    db.execute(f"create table wide (k integer, n integer, {columns})")
    db.execute("create table capped (k integer)")
    values = ", ".join(
        "({}, {}, {})".format(
            i, i % 50, ", ".join(str((i * j) % 97) for j in range(WIDE_COLUMNS))
        )
        for i in range(size)
    )
    db.execute(f"insert into wide values {values}")
    db.execute(
        "create rule cap when updated wide.n "
        "if exists (select * from wide "
        "where n > 40 and c0 >= 0 and c1 >= 0 and c2 >= 0) "
        "then update wide set n = 40 where n > 40"
    )
    db.execute(
        "create rule log_cap when updated wide.n "
        "if exists (select * from new updated wide.n where n = 40) "
        "then insert into capped "
        "(select k from new updated wide.n where n = 40)"
    )
    return db


def run_cascade(db):
    return db.execute("update wide set n = n + 5 where n >= 35")


def test_shape_wide_cascade(benchmark):
    benchmark.pedantic(_shape_wide_cascade, rounds=1, iterations=1)


def _shape_wide_cascade():
    rows = []
    times = {}
    for size in CASCADE_SIZES:
        per_mode = {}
        for vectorized in (True, False):
            db = build_cascade_db(size)
            db.database.enable_vectorized_eval = vectorized
            # one cascade is timed once, so a full collection triggered
            # by what the *build* allocated must not land inside it (it
            # triples the 500-row reading when it does)
            gc.collect()
            start = time.perf_counter()
            result = run_cascade(db)
            elapsed = time.perf_counter() - start
            per_mode[vectorized] = (elapsed, result.rule_firings)
            if vectorized:
                record_stats(f"cascade_{size}", db)
        (vec_time, vec_fired) = per_mode[True]
        (row_time, row_fired) = per_mode[False]
        assert vec_fired == row_fired  # same rule behaviour both modes
        times[size] = {"vectorized": vec_time, "row": row_time}
        rows.append(
            (
                size,
                vec_fired,
                f"{vec_time * 1e3:.1f}ms",
                f"{row_time * 1e3:.1f}ms",
                f"{row_time / vec_time:.2f}x",
            )
        )
    print_series(
        "PERF-7: wide-table rule cascade, vectorized vs row-at-a-time",
        ("rows", "fired", "vectorized", "row", "speedup"),
        rows,
        values={"seconds": times},
    )
