"""Unit tests for transition records and transaction results."""

from repro import ActiveDatabase
from repro.core.effects import TableEffect, TransitionEffect
from repro.core.trace import (
    ConsiderationRecord,
    TransactionResult,
    TransitionRecord,
)


def effect(I=(), D=(), U=(), S=()):
    """A one-table effect from flat handle sets and (handle, column)
    pairs."""
    updated, selected = {}, {}
    for pairs, columns_of in ((U, updated), (S, selected)):
        for handle, column in pairs:
            columns_of[handle] = columns_of.get(handle, frozenset()) | {column}
    return TransitionEffect({"t": TableEffect(I, D, updated, selected)})


class TestTransitionRecord:
    def test_external_flag(self):
        record = TransitionRecord(1, "external", effect(I=[1]))
        assert record.is_external
        assert not TransitionRecord(2, "r", effect()).is_external

    def test_describe_labels(self):
        assert TransitionRecord(1, "external", effect(I=[1])).describe() == (
            "T1 [I:1 D:0 U:0]"
        )
        assert TransitionRecord(2, "r", effect(D=[1])).describe() == (
            "T2 [r] [I:0 D:1 U:0]"
        )


class TestTransactionResult:
    def make(self):
        result = TransactionResult()
        result.transitions = [
            TransitionRecord(1, "external", effect(I=[1, 2])),
            TransitionRecord(2, "a", effect(U=[(1, "x")])),
            TransitionRecord(3, "b", effect(D=[2])),
            TransitionRecord(4, "a", effect()),
        ]
        return result

    def test_rule_firings_counts_non_external(self):
        assert self.make().rule_firings == 3

    def test_firings_of(self):
        result = self.make()
        assert [record.index for record in result.firings_of("a")] == [2, 4]
        assert result.firings_of("ghost") == []

    def test_describe_committed(self):
        text = self.make().describe()
        assert text.splitlines()[-1] == "committed"
        assert "T3 [b]" in text

    def test_describe_rolled_back(self):
        result = self.make()
        result.committed = False
        result.rolled_back_by = "guard"
        assert "rolled back by rule 'guard'" in result.describe()

    def test_rolled_back_property(self):
        result = TransactionResult()
        assert not result.rolled_back
        result.committed = False
        assert result.rolled_back

    def test_last_select_empty(self):
        assert TransactionResult().last_select is None


class TestConsiderationRecordsEndToEnd:
    def test_non_firing_considerations_recorded(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute(
            "create rule never when inserted into t "
            "if false then delete from t"
        )
        result = db.execute("insert into t values (1)")
        assert len(result.considered) == 1
        record = result.considered[0]
        assert isinstance(record, ConsiderationRecord)
        assert record.rule == "never"
        assert record.condition_result is False

    def test_unknown_condition_recorded_as_none(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute("create table n (v integer)")
        db.execute(
            "create rule maybe when inserted into t "
            "if (select max(v) from n) > 0 then delete from t"
        )
        result = db.execute("insert into t values (1)")
        assert result.considered[0].condition_result is None

    def test_firing_consideration_recorded_and_flagged(self):
        """Regression: the consideration that *wins* (condition true,
        rule fires) must appear in the trace, flagged ``fired``."""
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute(
            "create rule fire when inserted into t "
            "then delete from t where false"
        )
        result = db.execute("insert into t values (1)")
        records = result.considerations_of("fire")
        # its own transition is empty, so it is not re-triggered: exactly
        # one consideration — the winning one — must be in the trace
        assert [r.fired for r in records] == [True]
        assert records[0].condition_result is True
        assert records[0].after_transition == 1

    def test_consideration_counts_cover_every_evaluation(self):
        """With one firing and one non-firing rule, both evaluations per
        round are in the trace and only the winner is flagged."""
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute(
            "create rule quiet when inserted into t "
            "if false then delete from t"
        )
        db.execute(
            "create rule fire when inserted into t "
            "then delete from t where false"
        )
        result = db.execute("insert into t values (1)")
        assert all(not r.fired for r in result.considerations_of("quiet"))
        fired_flags = [r.fired for r in result.considerations_of("fire")]
        assert fired_flags.count(True) == result.rule_firings == 1

    def test_considered_records_transition_index(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        # watcher is created first so it is considered (falsely) before
        # feeder fires in each round
        db.execute(
            "create rule watcher when inserted into t "
            "if false then delete from t"
        )
        db.execute(
            "create rule feeder when inserted into t "
            "if (select count(*) from t) < 2 then insert into t values (0)"
        )
        result = db.execute("insert into t values (1)")
        # watcher considered after T1 and again after feeder's T2
        watcher_considerations = [
            record for record in result.considered if record.rule == "watcher"
        ]
        assert [r.after_transition for r in watcher_considerations] == [1, 2]
