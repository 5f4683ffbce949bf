"""Unit tests for live table statistics and zone maps
(repro.relational.stats): mutator folding, widen-only bounds, NDV
saturation, drift-triggered rebuilds, zone padding past rebuild
truncation, and the database's stats epoch."""

from repro.relational.database import Database
from repro.relational.stats import (
    DISTINCT_CAP,
    REBUILD_MIN_DRIFT,
    ZONE_SIZE,
    ColumnStats,
    OptimizerStats,
    TableStats,
)


def make_db():
    db = Database()
    db.create_table("t", [("a", "integer"), ("b", "varchar")])
    return db


def fill(db, n, start=0):
    handles = []
    for i in range(start, start + n):
        handles.append(db.insert_row("t", (i, f"s{i}")))
    return handles


class TestColumnStats:
    def test_observe_tracks_min_max_nulls(self):
        stats = ColumnStats()
        stats.observe([5, 1, None])
        stats.observe([9, None])
        assert stats.minimum == 1
        assert stats.maximum == 9
        assert stats.nulls == 2

    def test_forget_only_shrinks_exact_counters(self):
        stats = ColumnStats()
        stats.observe([1, None])
        stats.forget([None, 1])
        assert stats.nulls == 0
        # widen-only: min/max still bracket the (now empty) column
        assert stats.minimum == 1

    def test_ndv_exact_until_saturation(self):
        stats = ColumnStats()
        stats.observe([i % 3 for i in range(10)])
        assert stats.ndv(non_null_rows=10) == 3
        stats.observe(list(range(DISTINCT_CAP - 1)))
        assert not stats.saturated
        stats.observe(list(range(DISTINCT_CAP + 5)))
        assert stats.saturated
        # the set stops growing at the cap, as when fed value by value
        assert stats.distinct == set(range(DISTINCT_CAP))
        # saturated: assume near-unique (>= cap)
        assert stats.ndv(non_null_rows=5000) == 5000


class TestTableStatsFolding:
    def test_row_count_and_nulls_exact_through_dml(self):
        db = make_db()
        handles = fill(db, 10)
        db.insert_row("t", (None, None))
        table = db.table("t")
        assert table.stats.row_count == 11
        assert table.stats.column(0).nulls == 1
        table.delete(handles[0])
        assert table.stats.row_count == 10

    def test_replace_widens_bounds(self):
        db = make_db()
        handles = fill(db, 3)
        table = db.table("t")
        table.replace(handles[1], (100, "z"))
        assert table.stats.column(0).maximum == 100

    def test_drift_rebuild_restores_exact_bounds(self):
        db = make_db()
        handles = fill(db, 4)
        table = db.table("t")
        # a replacement widens, and replacing the value back cannot
        # shrink the widen-only bound...
        table.replace(handles[3], (999, "s3"))
        table.replace(handles[3], (3, "s3"))
        assert table.stats.column(0).maximum == 999
        # ...until enough drift forces a rebuild
        for _ in range(REBUILD_MIN_DRIFT):
            table.replace(handles[0], (0, "s0"))
        assert table.stats.column(0).maximum == 3
        assert table.stats.drift < REBUILD_MIN_DRIFT
        assert table.stats.rows_at_rebuild == 4

    def test_compaction_rebuilds_exactly(self):
        db = make_db()
        handles = fill(db, 8)
        table = db.table("t")
        for handle in handles[4:]:
            table.delete(handle)
        table.compact()
        assert table.stats.row_count == 4
        assert table.stats.column(0).maximum == 3
        assert table.stats.ndv(0) == 4


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
        stats2.on_assign([3 * ZONE_SIZE], [(0, [None], [4])])
        assert stats2.zones[0][0][3] == 4


class TestStatsEpoch:
    def test_rebuild_bumps_epoch(self):
        db = make_db()
        before = db.stats_epoch
        db.table("t").rebuild_stats()
        assert db.stats_epoch == before + 1
        assert db.optimizer_stats.stats_rebuilds == 1

    def test_index_ddl_bumps_epoch(self):
        db = make_db()
        before = db.stats_epoch
        db.create_index("t_a", "t", "a")
        assert db.stats_epoch == before + 1
        db.drop_index("t_a")
        assert db.stats_epoch == before + 2


class TestOptimizerStats:
    def test_snapshot_and_delta(self):
        stats = OptimizerStats()
        stats.zones_considered = 4
        stats.zones_pruned = 2
        stats.rows_zone_pruned = 17
        snap = stats.snapshot()
        assert snap["zone_prune_rate"] == 0.5
        before = stats.counters()
        stats.replans += 3
        assert stats.delta_since(before) == {
            "zones_pruned": 0, "rows_zone_pruned": 0, "replans": 3,
        }
