"""Footprint guard: an index entry is a slot in a sorted value list
and eight bytes of handle — no per-key container, no handle object.

``create index`` runs under tracemalloc on a 4,095-row table, over a
unique INTEGER column and over one holding every key twice; what it
retains is the index. The values are the column's own objects, so they
cost the index nothing; ~16.5 bytes per entry are measured on both
shapes. The dict of per-key handle sets it replaced retained 282 bytes
per entry on the unique column and 156 on the two-per-key one.
"""

import gc
import tracemalloc

import pytest

from repro.relational.database import Database

ROWS = 4_095
#: retained bytes per index entry
BUDGET = 24

COLUMNS = {
    "unique": list(range(ROWS)),
    "two_per_key": [key // 2 for key in range(ROWS)],
}


@pytest.mark.parametrize("column", sorted(COLUMNS))
def test_create_index_retains_at_most_the_budget_per_entry(column):
    database = Database()
    database.create_table("t", [("k", "integer")])
    database.insert_rows("t", [COLUMNS[column]])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = database.create_index("t_k", "t", "k")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index.lookup(7)) == (1 if column == "unique" else 2)
    per_entry = retained / ROWS
    assert per_entry <= BUDGET, f"{column}: {per_entry:.1f} B per entry"
