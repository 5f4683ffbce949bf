"""Footprint guard: a stored row costs its column slots, one handle and
one validity byte — no handle→slot map, no row tuple, no handle object.

30,000 rows go into a 2-column table without indexes in 50 sets of 600,
every value one shared object, so what tracemalloc sees retained is the
storage's own bookkeeping. The layout this replaced kept about 207
bytes per row of it; the columnar one keeps about 27.
"""

import gc
import tracemalloc

from repro.relational.database import Database

ROWS, SETS = 30_000, 50
#: bytes retained per row, values excluded
BUDGET = 40


def make():
    database = Database()
    database.create_table("t", [("a", "integer"), ("b", "varchar")])
    return database


def insert_sets(database):
    per_set = ROWS // SETS
    value_a, value_b = 7, "x"  # shared objects: no per-row values
    for _ in range(SETS):
        database.insert_rows("t", [[value_a] * per_set, [value_b] * per_set])


def test_bookkeeping_per_row_stays_within_budget():
    database = make()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        insert_sets(database)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(database.table("t")) == ROWS
    assert retained / ROWS <= BUDGET, f"{retained / ROWS:.1f} B/row"


def test_point_get_and_handle_batch_on_the_large_table():
    database = make()
    insert_sets(database)
    table = database.table("t")
    handles = table.handles()
    assert handles == list(range(1, ROWS + 1))
    assert table.get(12_345) == (7, "x")
    assert 12_345 in table and ROWS + 1 not in table
    wanted = handles[9_000:9_600]
    batch = table.batch_for_handles(wanted)
    assert [batch.handle(slot) for slot in batch.sel] == wanted
    assert batch.rows() == [(7, "x")] * 600
    scattered = handles[::50]
    batch = table.batch_for_handles(scattered[::-1])
    assert [batch.handle(slot) for slot in batch.sel] == scattered[::-1]
