"""Unit tests for zone maps (repro.relational.stats): mutator folding,
widen-only bounds, exact rebuilds at compaction, zone padding past
rebuild truncation, and the zone-pruning counters."""

from repro.relational.database import Database
from repro.relational.stats import ZONE_SIZE, OptimizerStats, TableStats


def make_db():
    db = Database()
    db.create_table("t", [("a", "integer"), ("b", "varchar")])
    return db


def fill(db, n, start=0):
    handles = []
    for i in range(start, start + n):
        handles.append(db.insert_row("t", (i, f"s{i}")))
    return handles


def bounds(table, position=0, zone=0):
    mins, maxs = table.stats.zones[position]
    return mins[zone], maxs[zone]


class TestTableStatsFolding:
    def test_replace_widens_bounds(self):
        db = make_db()
        handles = fill(db, 3)
        table = db.table("t")
        table.replace(handles[1], (100, "z"))
        assert bounds(table) == (0, 100)

    def test_bounds_stay_widened_until_compaction(self):
        db = make_db()
        handles = fill(db, 4 * ZONE_SIZE)
        table = db.table("t")
        # a replacement widens, and replacing the value back cannot
        # shrink the widen-only bound, however often rows are rewritten
        table.replace(handles[3], (9999, "s3"))
        table.replace(handles[3], (3, "s3"))
        for _ in range(3):
            table.replace_rows(handles, [(i, "x") for i in range(len(handles))])
        assert bounds(table) == (0, 9999)
        # ...until a compaction rebuilds the zones exactly
        table.delete_many(handles[2 * ZONE_SIZE:])
        assert table.compactions == 1
        assert bounds(table) == (0, ZONE_SIZE - 1)

    def test_compaction_rebuilds_exactly(self):
        db = make_db()
        handles = fill(db, 8)
        table = db.table("t")
        table.replace(handles[0], (-7, "s0"))
        for handle in handles[4:]:
            table.delete(handle)
        table.compact()
        assert bounds(table) == (-7, 3)
        assert bounds(table, 1) == ("s0", "s3")


class TestZoneMaps:
    def test_insert_populates_zone_bounds(self):
        db = make_db()
        fill(db, ZONE_SIZE + 3)
        mins, maxs = db.table("t").stats.zones[0]
        assert (mins[0], maxs[0]) == (0, ZONE_SIZE - 1)
        assert (mins[1], maxs[1]) == (ZONE_SIZE, ZONE_SIZE + 2)

    def test_all_null_zone_has_none_min(self):
        db = make_db()
        db.insert_row("t", (None, "x"))
        mins, maxs = db.table("t").stats.zones[0]
        assert mins[0] is None and maxs[0] is None

    def test_replace_widens_zone(self):
        db = make_db()
        handles = fill(db, 2)
        db.table("t").replace(handles[0], (-50, "y"))
        mins, _ = db.table("t").stats.zones[0]
        assert mins[0] == -50

    def test_insert_pads_zones_past_rebuild_truncation(self):
        # a rebuild over sparse live slots truncates the zone lists to
        # the last live zone; later inserts land past the truncation and
        # must pad, not IndexError
        stats = TableStats(1)
        stats.rebuild(([10],), [0])
        assert len(stats.zones[0][0]) == 1
        far_slot = 5 * ZONE_SIZE
        stats.on_insert(far_slot, [[7]])
        mins, maxs = stats.zones[0]
        assert len(mins) == 6
        assert (mins[5], maxs[5]) == (7, 7)
        stats2 = TableStats(1)
        stats2.rebuild(([10],), [0])
        stats2.on_assign([3 * ZONE_SIZE], [(0, [4])])
        assert stats2.zones[0][0][3] == 4


class TestOptimizerStats:
    def test_snapshot_and_delta(self):
        stats = OptimizerStats()
        stats.zones_considered = 4
        stats.zones_pruned = 2
        stats.rows_zone_pruned = 17
        snap = stats.snapshot()
        assert snap == {"zones_considered": 4, "zones_pruned": 2,
                        "zone_prune_rate": 0.5, "rows_zone_pruned": 17}
        before = stats.counters()
        stats.rows_zone_pruned += 3
        assert stats.delta_since(before) == {
            "zones_pruned": 0, "rows_zone_pruned": 3,
        }
