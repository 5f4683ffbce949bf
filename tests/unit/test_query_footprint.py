"""Footprint guard: a join, a grouping and an aggregate allocate per
input row a few column-vector entries — no row tuple, no Scope, no
group of member scopes.

10,000 rows of ``e`` join 500 rows of ``d`` on 500 distinct keys, every
stored value one shared object, so what tracemalloc sees at its peak
is the evaluation's own transient structure: selection and slot
vectors, key and argument vectors, group ids. One warm evaluation
fills the plan and kernel caches first; the second is measured. The
scope-per-row path this replaced peaked near 500–590 bytes per input
row on these shapes.
"""

import gc
import tracemalloc

import pytest

from repro.relational.database import Database
from repro.relational.select import evaluate_select
from repro.sql.parser import parse_select

ROWS, GROUPS = 10_000, 500
#: peak bytes allocated per input row by one evaluation
BUDGET = 150

SHAPES = {
    "join_group_by": (
        "select d.k, count(*), sum(e.s) from e, d "
        "where e.k = d.k and e.s > 0 group by d.k"
    ),
    "group_by": "select k, count(*), sum(s) from e group by k",
    "aggregate": "select count(*), sum(s) from e",
}


@pytest.fixture(scope="module")
def database():
    database = Database()
    database.enable_vectorized_eval = True
    database.create_table("e", [("k", "integer"), ("s", "integer")])
    database.create_table("d", [("k", "integer")])
    keys = list(range(GROUPS))  # shared objects: no per-row values
    database.insert_rows("e", [[keys[i % GROUPS] for i in range(ROWS)],
                               [7] * ROWS])
    database.insert_rows("d", [keys])
    return database


def peak_per_row(database, select):
    evaluate_select(database, select)  # warm the plan and kernel caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = evaluate_select(database, select)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak / ROWS


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_peak_per_input_row_stays_within_budget(database, shape):
    result, per_row = peak_per_row(database, parse_select(SHAPES[shape]))
    counts = [row[-2] if shape != "aggregate" else row[0]
              for row in result.rows]
    assert sum(counts) == ROWS
    assert per_row <= BUDGET, f"{shape}: {per_row:.0f} B per input row"


def test_the_measured_shapes_ran_columnar(database):
    stats = database.counters
    stats.reset()
    for sql in SHAPES.values():
        evaluate_select(database, parse_select(sql))
    assert stats.grouped_batches == len(SHAPES)
    assert stats.group_scope_fallbacks == 0
