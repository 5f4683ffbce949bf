"""Unit tests for the comparison baselines."""

import pytest

from repro.baselines import (
    InstanceOrientedEngine,
    SnapshotEffectTracker,
    diff_snapshots,
    split_singletons,
    take_snapshot,
)
from repro.core.engine import RuleEngine
from repro.core.effects import TransitionEffect
from repro.relational.dml import DeleteEffect, InsertEffect, UpdateEffect


ROW = ("a", 1)


class TestSplitSingletons:
    def test_split_counts(self):
        info = TransitionEffect.from_op_effects(
            [
                InsertEffect("t", (1, 2)),
                DeleteEffect("t", ((3, ROW),)),
                UpdateEffect("t", ("c",), ((4, ROW),)),
            ]
        )
        units = split_singletons(info)
        assert len(units) == 4
        for unit in units:
            assert sum(unit.counts()) == 1

    def test_empty_info_splits_to_nothing(self):
        assert split_singletons(TransitionEffect()) == []


class TestInstanceOrientedEngine:
    def make(self):
        engine = InstanceOrientedEngine()
        engine.database.create_table("t", [("x", "integer")])
        engine.database.create_table("log", [("x", "integer")])
        return engine

    def test_action_runs_once_per_tuple(self):
        engine = self.make()
        engine.define_rule(
            "create rule r when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        engine.run_block("insert into t values (1), (2), (3)")
        # one log row per affected tuple (each firing saw a single tuple)
        assert sorted(engine.query("select x from log").rows) == [
            (1,), (2,), (3,),
        ]

    def test_per_tuple_condition(self):
        engine = self.make()
        engine.define_rule(
            "create rule r when inserted into t "
            "if exists (select * from inserted t where x > 1) "
            "then insert into log (select x from inserted t)"
        )
        engine.run_block("insert into t values (1), (2), (3)")
        # the x=1 tuple's singleton condition is false: no log row for it
        assert sorted(engine.query("select x from log").rows) == [(2,), (3,)]

    def test_same_final_state_as_set_oriented_for_per_tuple_rule(self):
        """For rules whose action touches only the triggering tuple, both
        architectures must agree on the final state."""
        set_engine = RuleEngine()
        inst_engine = InstanceOrientedEngine()
        for engine in (set_engine, inst_engine):
            engine.database.create_table("t", [("x", "integer")])
            engine.database.create_table("log", [("x", "integer")])
            engine.define_rule(
                "create rule r when inserted into t "
                "then insert into log (select x from inserted t)"
            )
            engine.run_block("insert into t values (1), (2), (3)")
        set_rows = sorted(set_engine.query("select x from log").rows)
        inst_rows = sorted(inst_engine.query("select x from log").rows)
        assert set_rows == inst_rows

    def test_rollback_still_works(self):
        engine = self.make()
        engine.define_rule(
            "create rule guard when inserted into t "
            "if exists (select * from inserted t where x < 0) then rollback"
        )
        result = engine.run_block("insert into t values (1), (-2)")
        assert result.rolled_back
        assert engine.query("select count(*) from t").scalar() == 0


class TestSnapshotDiff:
    def make_db(self):
        from repro.relational.database import Database

        db = Database()
        db.create_table("t", [("x", "integer"), ("y", "integer")])
        return db

    def test_detects_insert_delete_update(self):
        db = self.make_db()
        h_keep = db.insert_row("t", (1, 1))
        h_delete = db.insert_row("t", (2, 2))
        before = take_snapshot(db)
        db.delete_row("t", h_delete)
        h_new = db.insert_row("t", (3, 3))
        db.update_row("t", h_keep, {"x": 9})
        effect = diff_snapshots(before, take_snapshot(db))
        assert effect.inserted == {h_new}
        assert effect.deleted == {h_delete}
        assert effect.updated == {(h_keep, 0)}  # column position 0 = x

    def test_misses_identity_updates(self):
        """The semantic gap the paper calls out (§2.2): U is not derivable
        from states — identity updates are invisible to snapshot diffing."""
        db = self.make_db()
        handle = db.insert_row("t", (1, 1))
        before = take_snapshot(db)
        db.update_row("t", handle, {"x": 1})  # same value
        effect = diff_snapshots(before, take_snapshot(db))
        assert effect.is_empty()

    def test_tracker_lifecycle(self):
        db = self.make_db()
        tracker = SnapshotEffectTracker(db)
        tracker.begin_transition()
        db.insert_row("t", (1, 1))
        effect = tracker.end_transition()
        assert len(effect.inserted) == 1

    def test_tracker_requires_begin(self):
        tracker = SnapshotEffectTracker(self.make_db())
        with pytest.raises(RuntimeError):
            tracker.end_transition()
