"""Unit tests for delta-driven incremental rule-condition evaluation
(repro.core.incremental, docs/semantics.md §12)."""

import pytest

from repro import ActiveDatabase
from repro.core.incremental import (
    CounterConjunct,
    DeltaConjunct,
    classify_condition,
)
from repro.obs import EventKind, RingBufferSink
from repro.relational.database import Database
from repro.sql import ast
from repro.sql.parser import parse_expression
from tests.reference import full_reeval


@pytest.fixture
def db():
    db = ActiveDatabase()
    db.execute("create table t (x integer)")
    db.execute("create table log (x integer)")
    return db


def make_database():
    database = Database()
    database.create_table("t", [("x", "integer")])
    database.create_table("u", [("y", "integer")])
    return database


def classify(text):
    return classify_condition(parse_expression(text), make_database())


class TestClassification:
    def test_simple_exists_is_a_counter(self):
        plan = classify("exists (select * from t where x > 10)")
        [conjunct] = plan.conjuncts
        assert isinstance(conjunct, CounterConjunct)
        assert conjunct.table == "t"
        assert conjunct.binding == "t"
        assert conjunct.negated is False

    def test_not_exists_flips_the_counter(self):
        plan = classify("not exists (select * from t where x > 10)")
        [conjunct] = plan.conjuncts
        assert isinstance(conjunct, CounterConjunct)
        assert conjunct.negated is True

    def test_exists_without_where_is_a_counter(self):
        plan = classify("exists (select * from t)")
        [conjunct] = plan.conjuncts
        assert isinstance(conjunct, CounterConjunct)
        assert conjunct.where is None

    def test_alias_binding_is_recorded(self):
        plan = classify("exists (select * from t e where e.x > 0)")
        [conjunct] = plan.conjuncts
        assert conjunct.binding == "e"

    def test_transition_table_exists_is_a_delta_conjunct(self):
        plan = classify("exists (select * from inserted t where x > 0)")
        [conjunct] = plan.conjuncts
        assert isinstance(conjunct, DeltaConjunct)

    def test_and_chain_splits_in_order(self):
        plan = classify(
            "exists (select * from inserted t where x > 0) "
            "and exists (select * from u where y < 5)"
        )
        assert isinstance(plan.conjuncts[0], DeltaConjunct)
        assert isinstance(plan.conjuncts[1], CounterConjunct)
        assert plan.conjuncts[1].table == "u"

    def test_disjunction_is_unmaintainable(self):
        assert classify(
            "exists (select * from t) or exists (select * from u)"
        ) is None

    def test_plain_comparison_is_unmaintainable(self):
        assert classify("1 = 2") is None

    def test_join_inside_exists_is_unmaintainable(self):
        assert classify(
            "exists (select * from t, u where t.x = u.y)"
        ) is None

    def test_subquery_in_where_is_unmaintainable(self):
        assert classify(
            "exists (select * from t where x in (select y from u))"
        ) is None

    def test_aggregate_in_where_is_unmaintainable(self):
        assert classify(
            "exists (select * from t where x > (select max(y) from u))"
        ) is None

    def test_projection_other_than_star_is_unmaintainable(self):
        assert classify("exists (select x from t where x > 0)") is None

    def test_distinct_and_friends_are_unmaintainable(self):
        assert classify("exists (select distinct * from t)") is None
        assert classify("exists (select * from t limit 1)") is None
        assert classify("exists (select * from t order by x)") is None

    def test_unknown_table_is_unmaintainable(self):
        assert classify("exists (select * from nosuch)") is None

    def test_one_bad_conjunct_fails_the_whole_condition(self):
        assert classify(
            "exists (select * from t) and 1 = 1"
        ) is None

    def test_split_conjuncts_preserves_order(self):
        parts = list(
            ast.conjuncts(parse_expression("1 = 1 and 2 = 2 and 3 = 3"))
        )
        assert [part.left.value for part in parts] == [1, 2, 3]

    def test_shared_structure_shares_the_view_key(self):
        a = classify("exists (select * from t where x > 10)").conjuncts[0]
        b = classify("exists (select * from t where x > 10)").conjuncts[0]
        assert a.view_key == b.view_key


class TestCounterMaintenance:
    def test_condition_flips_with_maintained_count(self, db):
        db.execute(
            "create rule r when inserted into t or deleted from t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        assert db.execute("insert into t values (5)").rule_firings == 0
        assert db.execute("insert into t values (50)").rule_firings == 1
        db.execute("delete from log")
        # 50 still present: fires again on the next trigger
        assert db.execute("insert into t values (6)").rule_firings == 1
        db.execute("delete from log")
        # net count drops back to zero once the qualifying row goes
        assert db.execute("delete from t where x = 50").rule_firings == 0

    def test_update_crossing_the_predicate_moves_the_count(self, db):
        db.execute("insert into t values (5)")
        db.execute(
            "create rule r when updated t.x "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        assert db.execute("update t set x = 50 where x = 5").rule_firings == 1
        db.execute("delete from log")
        assert db.execute("update t set x = 5 where x = 50").rule_firings == 0

    def test_views_refresh_once_then_ride_deltas(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log (select x from inserted t)"
        )
        db.reset_stats()
        db.execute("insert into t values (1)")
        db.execute("insert into t values (2)")
        db.execute("insert into t values (3)")
        incremental = db.stats()["incremental"]
        assert incremental["view_refreshes"] == 1
        assert incremental["hits"] >= 2
        assert incremental["deltas_applied"] >= 2
        assert incremental["fallbacks"] == 0

    def test_rule_level_outcome_counters(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        db.execute("insert into t values (1)")
        db.execute("insert into t values (2)")
        rule = db.stats()["rules"]["r"]
        assert rule["incremental_refreshes"] == 1
        assert rule["incremental_hits"] == 1
        assert rule["incremental_fallbacks"] == 0

    def test_unclassifiable_condition_falls_back(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if (select count(*) from t) > 1 "
            "then insert into log values (1)"
        )
        assert db.execute("insert into t values (1)").rule_firings == 0
        assert db.execute("insert into t values (2)").rule_firings == 1
        incremental = db.stats()["incremental"]
        assert incremental["fallbacks"] >= 2
        assert incremental["rules_unclassifiable"] == 1
        assert db.stats()["rules"]["r"]["incremental_fallbacks"] >= 2

    def test_not_exists_counter(self, db):
        db.execute(
            "create rule r when deleted from t "
            "if not exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        db.execute("insert into t values (50), (5)")
        assert db.execute("delete from t where x = 5").rule_firings == 0
        db.execute("insert into t values (5)")
        assert db.execute("delete from t where x = 50").rule_firings == 1


class TestInvalidation:
    def test_abort_invalidates_touched_views(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        db.execute("insert into t values (50)")  # count becomes 1
        db.begin()
        db.execute("delete from t where x = 50")
        db.assert_rules()  # no firing; the view saw the delete
        db.rollback()      # undo restores the row without bumping version
        assert db.stats()["incremental"]["invalidations"] >= 1
        db.execute("delete from log")
        # the restored row must be visible again: refresh, then fire
        assert db.execute("insert into t values (1)").rule_firings == 1

    def test_foreign_mutation_forces_refresh(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        db.execute("insert into t values (1)")  # view built, count 0
        # bypass the engine entirely: the fold hooks never see this row
        db.database.transactions.begin()
        db.database.insert_row("t", (99,))
        db.database.transactions.commit()
        assert db.execute("insert into t values (2)").rule_firings == 1

    def test_schema_change_invalidates_plans_and_views(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        db.execute("insert into t values (50)")
        db.execute("create table extra (z integer)")
        db.execute("delete from log")
        assert db.execute("insert into t values (1)").rule_firings == 1

    def test_mid_transaction_rule_definition(self, db):
        db.begin()
        db.execute("insert into t values (50)")
        db.execute(
            "create rule late when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        # defined after the insert: empty baseline, not triggered yet
        db.assert_rules()
        assert db.rows("select * from log") == []
        db.execute("insert into t values (60)")
        db.commit()
        assert db.rows("select * from log") == [(1,)]

    def test_mid_transaction_rule_drop(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        db.execute("insert into t values (5)")
        db.begin()
        db.execute("drop rule r")
        db.execute("insert into t values (60)")
        db.commit()
        assert db.rows("select * from log") == []


class TestErrorParity:
    def test_condition_error_surfaces_identically(self):
        """A condition whose predicate errors must raise the same way
        whether the view path or the full path evaluates it (the view
        breaks, the rule falls back, the full path raises)."""
        def run(incremental):
            db = ActiveDatabase()
            if not incremental:
                full_reeval.install(db)
            db.execute("create table t (x integer)")
            db.execute("create table log (x integer)")
            db.execute(
                "create rule r when inserted into t "
                "if exists (select * from t where x / (x - x) > 0) "
                "then insert into log values (1)"
            )
            try:
                db.execute("insert into t values (1)")
            except Exception as error:
                return type(error).__name__, str(error)
            return None

        assert run(True) == run(False)
        assert run(True) is not None

    def test_broken_view_falls_back_permanently(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where x > 10) "
            "then insert into log values (1)"
        )
        db.execute("insert into t values (50)")
        # sabotage the maintained view so refresh and deltas blow up
        manager = db.engine.incremental
        [view] = manager._views.values()
        view.broken = True
        db.execute("delete from log")
        assert db.execute("insert into t values (1)").rule_firings == 1
        assert db.stats()["incremental"]["fallbacks"] >= 1


class TestGraphSkip:
    # the refined-graph skip is gone (conditions are always evaluated);
    # the class keeps its name so the surviving test keeps its id

    def test_external_deltas_never_justify_a_skip(self, db):
        db.execute("create table emp (name varchar, salary integer)")
        db.execute(
            "create rule clamp when updated emp.salary "
            "if exists (select * from new updated emp.salary "
            "where salary < 0) "
            "then update emp set salary = 0 where salary < 0"
        )
        db.execute("insert into emp values ('ann', -3)")
        db.reset_stats()
        # the triggering update is a user block: provenance is external,
        # the pruned self-edge must not suppress the real evaluation
        result = db.execute("update emp set salary = -5 where name = 'ann'")
        assert result.rule_firings == 1
        assert db.rows("select salary from emp") == [(0,)]


class TestModeGating:
    # the layer has no mode any more; the class keeps its name so the
    # surviving test keeps its id

    def test_stats_surface_is_complete(self, db):
        incremental = db.stats()["incremental"]
        for key in (
            "views", "classifications", "rules_classified",
            "rules_unclassifiable", "view_refreshes", "deltas_applied",
            "delta_rows", "hits", "refreshes", "fallbacks",
            "invalidations", "errors",
        ):
            assert key in incremental


class TestAbortAttribution:
    def test_assert_rules_rollback_names_the_rule(self, db):
        """Regression: a rollback action at a §5.3 triggering point must
        attribute the abort to the rolling-back rule — both on the
        TXN_ABORT event and on the transaction's result — exactly as a
        commit-time rollback does."""
        from repro.errors import RollbackRequested

        db.execute(
            "create rule guard when inserted into t "
            "if exists (select * from t where x < 0) then rollback"
        )
        sink = db.attach_sink(RingBufferSink())
        db.begin()
        result = db.engine._result
        db.execute("insert into t values (-1)")
        with pytest.raises(RollbackRequested):
            db.assert_rules()
        assert result.rolled_back_by == "guard"
        assert result.committed is False
        [abort] = sink.of_kind(EventKind.TXN_ABORT)
        assert abort.data["reason"] == "rollback_by_rule"
        assert abort.data["rule"] == "guard"
