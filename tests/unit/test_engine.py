"""Unit tests for the rule execution engine (paper §4, Figure 1)."""

import pytest

from repro import ActiveDatabase
from repro.errors import (
    ExecutionError,
    RuleLoopError,
    TransactionError,
)


@pytest.fixture
def db():
    db = ActiveDatabase()
    db.execute("create table t (x integer)")
    db.execute("create table log (x integer)")
    return db


class TestTriggering:
    def test_rule_fires_on_matching_transition(self, db):
        db.execute(
            "create rule r when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        result = db.execute("insert into t values (1), (2)")
        assert result.rule_firings == 1
        assert sorted(db.rows("select x from log")) == [(1,), (2,)]

    def test_rule_ignores_other_tables(self, db):
        db.execute(
            "create rule r when inserted into log then delete from t"
        )
        result = db.execute("insert into t values (1)")
        assert result.rule_firings == 0

    def test_empty_effect_triggers_nothing(self, db):
        db.execute("create rule r when deleted from t then insert into log values (0)")
        result = db.execute("delete from t where x = 999")
        assert result.rule_firings == 0

    def test_net_effect_gates_triggering(self, db):
        """Insert-then-delete within one block nets to nothing (§2.2), so
        neither an inserted- nor a deleted-rule fires for that tuple."""
        db.execute("create rule ins when inserted into t then insert into log values (1)")
        db.execute("create rule del when deleted from t then insert into log values (2)")
        result = db.execute("insert into t values (7); delete from t where x = 7")
        assert result.rule_firings == 0

    def test_condition_gates_action(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        assert db.execute("insert into t values (5)").rule_firings == 0
        assert db.execute("insert into t values (50)").rule_firings == 1

    def test_condition_unknown_does_not_fire(self, db):
        db.execute("create table n (v integer)")
        db.execute(
            "create rule r when inserted into t "
            "if (select max(v) from n) > 0 "
            "then insert into log values (1)"
        )
        # n is empty: max(v) is NULL, condition UNKNOWN -> no firing
        assert db.execute("insert into t values (1)").rule_firings == 0


class TestCascading:
    def test_rule_triggers_other_rule(self, db):
        db.execute("create table u (x integer)")
        db.execute(
            "create rule a when inserted into t "
            "then insert into u (select x from inserted t)"
        )
        db.execute(
            "create rule b when inserted into u "
            "then insert into log (select x from inserted u)"
        )
        result = db.execute("insert into t values (1)")
        assert result.rule_firings == 2
        assert db.rows("select x from log") == [(1,)]

    def test_self_triggering_runs_to_fixpoint(self, db):
        """A countdown rule: each firing sees only its own last transition
        (§4.1), so it fires once per decrement until the condition fails."""
        db.execute(
            "create rule countdown when inserted into t or updated t.x "
            "if exists (select * from t where x > 0) "
            "then update t set x = x - 1 where x > 0"
        )
        result = db.execute("insert into t values (3)")
        assert db.rows("select x from t") == [(0,)]
        assert result.rule_firings == 3

    def test_rule_undone_by_higher_rule_does_not_fire(self, db):
        """Trigger permanence (§1, §4.2): if an earlier rule's transition
        negates the change that triggered a later rule, the later rule's
        composite effect no longer satisfies its predicate."""
        db.execute(
            "create rule high when inserted into t then delete from t"
        )
        db.execute(
            "create rule low when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        db.execute("create rule priority high before low")
        result = db.execute("insert into t values (1)")
        # high deleted the inserted tuple; low's composite I is empty
        assert result.rule_firings == 1
        assert db.rows("select * from log") == []

    def test_condition_false_rule_reconsidered_later(self, db):
        """§4.2: "a rule that was triggered in S1 but whose condition was
        found to be false may be reconsidered in S2"."""
        db.execute("create table u (x integer)")
        db.execute(
            # fires only once there are >= 2 tuples in t
            "create rule waiting when inserted into t "
            "if (select count(*) from t) >= 2 "
            "then insert into log values (99)"
        )
        db.execute(
            # runs after 'waiting' is first considered; adds another tuple
            "create rule feeder when inserted into t "
            "if (select count(*) from t) < 2 "
            "then insert into t values (42)"
        )
        db.execute("create rule priority waiting before feeder")
        result = db.execute("insert into t values (1)")
        assert db.rows("select x from log") == [(99,)]
        # waiting was considered (false), feeder fired, waiting reconsidered
        considered_names = [c.rule for c in result.considered]
        assert "waiting" in considered_names

    def test_fired_rule_sees_only_its_own_recent_transitions(self, db):
        """§4.2: after rule R fires, R is re-evaluated w.r.t. transitions
        since its own execution only."""
        db.execute("create table audit (n integer)")
        db.execute(
            "create rule watcher when inserted into t "
            "then insert into audit (select count(*) from inserted t)"
        )
        db.execute(
            "create rule adder when inserted into audit "
            "if (select count(*) from t) < 3 "
            "then insert into t values (0)"
        )
        db.execute("insert into t values (1), (2)")
        # watcher first sees 2 inserted tuples; adder inserts 1 more;
        # watcher re-fires seeing ONLY the 1 new tuple (not 3)
        assert db.rows("select n from audit order by n") == [(1,), (2,)]


class TestRollback:
    def test_rollback_action_restores_s0(self, db):
        db.execute("insert into t values (1)")
        db.execute(
            "create rule guard when inserted into t "
            "if exists (select * from t where x < 0) then rollback"
        )
        result = db.execute("insert into t values (-5); insert into log values (1)")
        assert result.rolled_back
        assert result.rolled_back_by == "guard"
        assert db.rows("select x from t") == [(1,)]
        assert db.rows("select * from log") == []

    def test_rollback_undoes_earlier_rule_actions_too(self, db):
        db.execute(
            "create rule logger when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        db.execute(
            "create rule guard when inserted into log "
            "if exists (select * from log where x < 0) then rollback"
        )
        result = db.execute("insert into t values (-1)")
        assert result.rolled_back_by == "guard"
        assert db.rows("select * from t") == []
        assert db.rows("select * from log") == []

    def test_commit_after_rollback_leaves_engine_usable(self, db):
        db.execute(
            "create rule guard when inserted into t "
            "if exists (select * from t where x < 0) then rollback"
        )
        db.execute("insert into t values (-1)")
        result = db.execute("insert into t values (5)")
        assert result.committed
        assert db.rows("select x from t") == [(5,)]


class TestLoopGuard:
    def test_divergent_rule_raises_and_rolls_back(self, db):
        engine_db = ActiveDatabase(max_rule_transitions=10)
        engine_db.execute("create table t (x integer)")
        engine_db.execute(
            "create rule forever when inserted into t or updated t.x "
            "then update t set x = x + 1"
        )
        with pytest.raises(RuleLoopError):
            engine_db.execute("insert into t values (0)")
        # transaction rolled back: no partial increments remain
        assert engine_db.rows("select * from t") == []

    def test_loop_error_carries_trace(self):
        engine_db = ActiveDatabase(max_rule_transitions=3)
        engine_db.execute("create table t (x integer)")
        engine_db.execute(
            "create rule forever when inserted into t or updated t.x "
            "then update t set x = x + 1"
        )
        with pytest.raises(RuleLoopError) as excinfo:
            engine_db.execute("insert into t values (0)")
        assert excinfo.value.limit == 3
        assert excinfo.value.trace is not None


class TestErrors:
    def test_failing_external_block_leaves_state_unchanged(self, db):
        db.execute("insert into t values (1)")
        with pytest.raises(ExecutionError):
            db.execute("insert into t values (2); update t set x = 1 / 0")
        assert db.rows("select x from t") == [(1,)]

    def test_failing_rule_action_aborts_transaction(self, db):
        db.execute(
            "create rule bad when inserted into t "
            "then update log set x = 1 / 0"
        )
        db.execute("insert into log values (7)")
        with pytest.raises(ExecutionError):
            db.execute("insert into t values (1)")
        assert db.rows("select * from t") == []
        assert db.rows("select x from log") == [(7,)]

    def test_run_block_inside_transaction_raises(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.engine.run_block("insert into t values (1)")
        db.rollback()

    def test_commit_without_begin_raises(self, db):
        with pytest.raises(TransactionError):
            db.commit()


class TestIntrospection:
    def test_triggered_rules_and_transition_info(self, db):
        db.execute(
            "create rule r when inserted into t then insert into log values (1)"
        )
        db.begin()
        db.execute("insert into t values (1)")
        assert db.engine.triggered_rules() == ["r"]
        info = db.engine.transition_info("r")
        assert len(info.inserted) == 1
        db.commit()

    def test_triggered_rules_outside_transaction_raises(self, db):
        with pytest.raises(TransactionError):
            db.engine.triggered_rules()

    def test_triggered_rules_excludes_deactivated(self, db):
        """Regression: a deactivated rule keeps accumulating trans-info
        but must not be listed as triggered (it is never considered)."""
        db.execute(
            "create rule r when inserted into t then insert into log values (1)"
        )
        db.deactivate_rule("r")
        db.begin()
        db.execute("insert into t values (1)")
        assert db.engine.triggered_rules() == []
        # reactivation makes the accumulated info count again
        db.activate_rule("r")
        assert db.engine.triggered_rules() == ["r"]
        db.commit()

    def test_rule_defined_mid_transaction_sees_later_changes_only(self, db):
        db.begin()
        db.execute("insert into t values (1)")
        db.execute(
            "create rule late when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        db.execute("insert into t values (2)")
        db.commit()
        # late's baseline started empty at definition: it sees only x=2
        assert db.rows("select x from log") == [(2,)]


class TestTrace:
    def test_transitions_are_labelled(self, db):
        db.execute(
            "create rule r when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        result = db.execute("insert into t values (1)")
        assert [t.source for t in result.transitions] == ["external", "r"]
        assert [t.index for t in result.transitions] == [1, 2]
        assert result.transitions[0].is_external

    def test_seen_snapshot_contains_transition_tables(self, db):
        db.execute(
            "create rule r when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        result = db.execute("insert into t values (7)")
        [firing] = result.firings_of("r")
        assert firing.seen["inserted t"] == [(7,)]

    def test_describe_renders(self, db):
        db.execute(
            "create rule r when inserted into t then insert into log values (1)"
        )
        text = db.execute("insert into t values (1)").describe()
        assert "T1" in text and "[r]" in text and "committed" in text

    def test_record_seen_disabled(self):
        db = ActiveDatabase(record_seen=False)
        db.execute("create table t (x integer)")
        db.execute("create rule r when inserted into t then delete from t")
        result = db.execute("insert into t values (1)")
        [firing] = result.firings_of("r")
        assert firing.seen == {}


class TestManualTransactions:
    def test_multi_block_transaction(self, db):
        db.execute(
            "create rule r when inserted into t "
            "then insert into log (select x from inserted t)"
        )
        db.begin()
        db.execute("insert into t values (1)")
        db.execute("insert into t values (2)")
        result = db.commit()
        assert result.committed
        # both blocks' inserts are in the rule's composite trans-info:
        # one firing handles both tuples set-at-a-time
        assert result.rule_firings == 1
        assert sorted(db.rows("select x from log")) == [(1,), (2,)]

    def test_explicit_rollback_discards_everything(self, db):
        db.begin()
        db.execute("insert into t values (1)")
        result = db.rollback()
        assert not result.committed
        assert db.rows("select * from t") == []

    def test_query_inside_transaction_sees_uncommitted(self, db):
        db.begin()
        db.execute("insert into t values (1)")
        assert db.rows("select x from t") == [(1,)]
        db.rollback()


class TestDataRetrievalInActions:
    """§5.1: "we might want the action part of a rule to include data
    retrieval; for example, we might want to define a rule that
    automatically delivers a summary of employee data whenever salaries
    are updated". Select operations in rule actions deliver their results
    through the transaction result."""

    def test_rule_action_select_delivered(self, db):
        db.execute(
            "create rule summary when inserted into t "
            "then select x from inserted t; "
            "insert into log (select x from inserted t)"
        )
        result = db.execute("insert into t values (4), (5)")
        assert result.last_select is not None
        assert sorted(result.last_select.rows) == [(4,), (5,)]
        assert sorted(db.rows("select x from log")) == [(4,), (5,)]

    def test_pure_retrieval_rule_creates_empty_transition(self, db):
        db.execute(
            "create rule deliver when inserted into t "
            "then select x from t"
        )
        result = db.execute("insert into t values (1)")
        assert result.rule_firings == 1
        [firing] = result.firings_of("deliver")
        assert firing.effect.is_empty()
        assert result.last_select.rows == [(1,)]
