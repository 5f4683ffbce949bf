"""Unit tests for the vectorized batch-kernel layer: environment gate,
stats counters, interpreter fallbacks, and the DML/engine call sites."""

import pytest

from repro import ActiveDatabase
from repro.errors import ReproError
from repro.relational.batch import JoinedBatch
from repro.relational.database import Database
from repro.relational.expressions import Evaluator
from repro.relational.plan.executor import execute_source_batched
from repro.relational.select import BaseTableResolver, evaluate_select
from repro.sql.parser import parse_select


@pytest.fixture
def db():
    db = ActiveDatabase()
    # force the layer on so this suite still exercises the batch path
    # when the CI oracle rerun exports REPRO_VECTORIZED_EVAL=0
    db.database.enable_vectorized_eval = True
    db.execute("create table t (a integer, b integer, s varchar)")
    for a in range(10):
        db.execute(f"insert into t values ({a}, {a % 3}, 'r{a}')")
    return db


class TestEnvironmentGate:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTORIZED_EVAL", raising=False)
        assert Database().enable_vectorized_eval is True

    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZED_EVAL", "0")
        assert Database().enable_vectorized_eval is False

    def test_env_off_spelling(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZED_EVAL", "OFF")
        assert Database().enable_vectorized_eval is False


class TestStatsSection:
    def test_select_counts_batches(self, db):
        db.reset_stats()
        db.execute("select a from t where b = 1")
        section = db.stats()["vectorized"]
        assert section["enabled"] is True
        assert section["batches_scanned"] >= 1
        assert section["rows_scanned"] >= 10
        assert 0.0 < section["selection_hit_rate"] <= 1.0
        assert section["rows_selected"] < section["rows_scanned"]

    def test_reset_stats_zeroes_counters(self, db):
        db.execute("select a from t where b = 1")
        db.reset_stats()
        section = db.stats()["vectorized"]
        assert section["batches_scanned"] == 0
        assert section["rows_scanned"] == 0
        assert section["selection_hit_rate"] == 0.0

    def test_disabled_section_reports_enabled_false(self, db):
        db.database.enable_vectorized_eval = False
        db.reset_stats()
        db.execute("select a from t where b = 1")
        section = db.stats()["vectorized"]
        assert section["enabled"] is False
        assert section["batches_scanned"] == 0

    def test_per_rule_batch_counters(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from t where a > 100) "
            "then delete from t where a > 100"
        )
        db.reset_stats()
        db.execute("insert into t values (200, 0, 'big')")
        counters = db.stats()["rules"]["r"]
        assert counters["considerations"] >= 1
        assert counters["batches_scanned"] >= 1
        assert counters["batch_rows_scanned"] >= 1


class TestFallbacks:
    def test_subquery_falls_back_per_row(self, db):
        db.reset_stats()
        db.execute(
            "select a from t where "
            "exists (select * from t t2 where t2.a = t.a + 100)"
        )
        section = db.stats()["vectorized"]
        # the EXISTS subtree escapes to the interpreter row by row
        assert section["fallback_rows"] >= 10

    def test_unbatchable_resolver_counts_row_fallback(self, db):
        class RowOnlyResolver(BaseTableResolver):
            def resolve_batch(self, table_ref):
                return None

        database = db.database
        database.counters.reset()
        select = parse_select("select a from t where b = 1")
        result = evaluate_select(
            database, select, RowOnlyResolver(database)
        )
        assert len(result.rows) > 0
        assert database.counters.batch_row_fallbacks >= 1
        assert database.counters.batches_scanned == 0

    @pytest.mark.parametrize("where", ["", " where x.a = y.a"])
    def test_a_join_runs_each_input_once(self, where):
        """A product or hash join whose right input has no batch runs
        its left input once: the columnar left is handed to the row
        path, not scanned again."""
        db = ActiveDatabase()
        db.database.enable_vectorized_eval = True
        db.execute("create table t (a integer)")
        db.execute("insert into t values (1), (2), (3)")
        db.reset_stats()
        with pytest.raises(ReproError,
                           match="only available inside a production rule"):
            db.execute("select * from t x, inserted t y" + where)
        stats = db.stats()
        assert stats["planner"]["rows_scanned"] == 3
        assert stats["vectorized"]["row_fallbacks"] == 1


class TestCallSites:
    def test_dml_where_uses_batch_path(self, db):
        db.database.counters.reset()
        db.execute("delete from t where b = 1 and a < 5")
        assert db.database.counters.batches_scanned >= 1
        remaining = db.rows("select a, b from t")
        assert all(not (b == 1 and a < 5) for a, b in remaining)

    def test_dml_where_with_index_narrows_batch(self, db):
        db.execute("create index idx_b on t (b)")
        db.database.counters.reset()
        db.execute("update t set s = 'hit' where b = 2")
        stats = db.database.counters
        assert stats.batches_scanned >= 1
        # the index narrowed the scanned selection below the full table
        assert stats.batch_rows_scanned < 10
        rows = db.rows("select s from t where b = 2")
        assert rows and all(s == "hit" for (s,) in rows)

    def test_error_parity_end_to_end(self, db):
        def message(mode):
            db.database.enable_vectorized_eval = mode
            with pytest.raises(ReproError) as info:
                db.execute("select a from t where a + s > 0")
            return (type(info.value).__name__, str(info.value))

        assert message(True) == message(False)

    def test_order_by_projection_on_batch_path(self, db):
        rows = db.rows(
            "select a, b from t where a < 6 order by b desc, a"
        )
        assert rows == sorted(rows, key=lambda r: (-r[1], r[0]))

    def test_group_by_over_batch_keys(self, db):
        rows = db.rows(
            "select b, count(*) from t where a < 9 group by b"
        )
        assert sorted(rows) == [(0, 3), (1, 3), (2, 3)]

    def test_transition_batches_do_not_pollute_select_tracking(self):
        db = ActiveDatabase(track_selects=True)
        db.execute("create table t (a integer)")
        db.execute("create table log (a integer)")
        db.execute(
            "create rule r when inserted into t "
            "if exists (select * from inserted t where a > 0) "
            "then insert into log (select a from inserted t)"
        )
        result = db.execute("insert into t values (7)")
        assert result.rule_firings == 1
        rows = db.rows("select a from log")
        assert rows == [(7,)]


class TestProducts:
    """A product runs as a joined batch — every left entry repeated, the
    right selection tiled — and a filter above it as kernels over both
    bindings."""

    CROSS = ("from inserted orders o, stock s "
             "where o.qty > s.qty and o.id + s.item > 2")

    def run_rule(self, vectorized):
        db = ActiveDatabase(track_selects=True, record_seen=False)
        db.database.enable_vectorized_eval = vectorized
        db.execute("create table orders (id integer, qty integer)")
        db.execute("create table stock (item integer, qty integer)")
        db.execute("create table alerts (id integer, item integer)")
        db.execute("insert into stock values (1, 5), (2, 10), (3, 1)")
        db.execute(
            f"create rule short when inserted into orders "
            f"if exists (select * {self.CROSS}) "
            f"then select o.id, s.item {self.CROSS}; "
            f"insert into alerts (select o.id, s.item {self.CROSS})"
        )
        db.reset_stats()
        result = db.execute(
            "insert into orders values (1, 6), (2, 3), (3, 12), (4, 0)"
        )
        firings = [
            (transition.source, sorted(transition.effect.selected))
            for transition in result.transitions
        ]
        return db, (firings, result.last_select.rows,
                    db.rows("select * from alerts"))

    def test_filtered_product_in_a_rule_matches_the_row_path(self):
        batch_db, batched = self.run_rule(vectorized=True)
        _, row = self.run_rule(vectorized=False)
        assert batched == row
        firings, selected_rows, alerts = batched
        assert [source for source, _ in firings] == ["external", "short"]
        assert firings[1][1], "the action's select read no stock tuple"
        assert selected_rows == alerts == [(1, 3), (2, 3), (3, 1),
                                           (3, 2), (3, 3)]
        section = batch_db.stats()["vectorized"]
        assert section["row_fallbacks"] == 0
        # condition and action selects each filtered the 4 x 3 product
        assert section["rows_scanned"] >= 3 * 12


class TestJoinKeyExtraction:
    def test_hash_join_results_match_row_mode(self, db):
        db.execute("create table u (b integer, tag varchar)")
        for b in range(3):
            db.execute(f"insert into u values ({b}, 'u{b}')")
        sql = "select t.a, u.tag from t, u where t.b = u.b order by t.a"
        vectorized = db.rows(sql)
        db.database.enable_vectorized_eval = False
        row_mode = db.rows(sql)
        assert vectorized == row_mode
        assert len(vectorized) == 10


class TestColumnarJoinsAndGrouping:
    JOIN = ("select u.tag, count(*), sum(t.a) from t, u where t.b = u.b "
            "group by u.tag")

    @pytest.fixture
    def joined(self, db):
        db.execute("create table u (b integer, tag varchar)")
        for b in range(3):
            db.execute(f"insert into u values ({b}, 'u{b}')")
        return db

    def test_counters_tell_reduction_from_group_scope(self, joined):
        joined.reset_stats()
        columnar = joined.rows(self.JOIN)
        section = joined.stats()["vectorized"]
        assert section["grouped_batches"] == 1
        assert section["group_scope_fallbacks"] == 0
        joined.database.enable_vectorized_eval = False
        joined.reset_stats()
        assert joined.rows(self.JOIN) == columnar
        section = joined.stats()["vectorized"]
        assert section["grouped_batches"] == 0
        assert section["group_scope_fallbacks"] == 1

    def test_explain_shows_how_join_and_grouping_ran(self, joined):
        joined.rows(self.JOIN)
        text = joined.explain(self.JOIN)
        assert "group by u.tag  (columnar)" in text
        assert "HashJoin (t.b = u.b)  (act=10, columnar)" in text
        joined.database.enable_vectorized_eval = False
        joined.rows(self.JOIN)
        text = joined.explain(self.JOIN)
        assert "group by u.tag  (GroupScope)" in text
        assert "act=10, row)" in text

    def test_join_emits_slot_vectors_not_combinations(self, joined):
        database = joined.database
        select = parse_select("select * from t, u where t.b = u.b")
        bound = database.statements.bound_node(select)
        plan = database.statements.plan_for(select, database, bound)
        resolver = BaseTableResolver(database)
        bindings, scopes, batch = execute_source_batched(
            plan, database, resolver, Evaluator(database, resolver, bound),
            None,
        )
        assert scopes is None and isinstance(batch, JoinedBatch)
        assert [name for name, _ in bindings] == ["t", "u"]
        assert len(batch.sel) == 10
        # nested-loop order: t in scan order, each with its one u match
        assert [batch.row_tuples(p)[0][0] for p in batch.sel] == list(
            range(10))

    def test_per_rule_counters_carry_grouping(self, db):
        db.execute(
            "create rule r when inserted into t "
            "if (select count(*) from inserted t) > 1 "
            "then delete from t where a > 100"
        )
        db.reset_stats()
        db.execute("insert into t values (200, 0, 'x'), (201, 1, 'y')")
        counters = db.stats()["rules"]["r"]
        assert counters["grouped_batches"] >= 1
        assert counters["group_scope_fallbacks"] == 0
