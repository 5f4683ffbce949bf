"""Unit tests for the uncorrelated-subquery cache.

The cache memoizes subqueries that are statically self-contained
(reference only their own FROM tables), keyed by the database's mutation
version. These tests pin down the classification, the invalidation, and
— most importantly — that results are identical with the cache on/off.
"""

import pytest

from repro import ActiveDatabase
from repro.core.effects import TransitionEffect
from repro.core.transition_tables import TransitionTableResolver
from repro.relational.database import Database
from repro.relational.dml import InsertEffect
from repro.relational.expressions import Evaluator, Scope, _select_is_self_contained
from repro.sql.parser import parse_expression, parse_select


@pytest.fixture
def database():
    db = Database()
    db.create_table("emp", [("name", "varchar"), ("salary", "float"),
                            ("dept_no", "integer")])
    db.create_table("dept", [("dept_no", "integer"), ("mgr_no", "integer")])
    return db


class TestCorrelationClassification:
    def check(self, database, sql):
        return _select_is_self_contained(parse_select(sql), database)

    def test_simple_subquery_is_self_contained(self, database):
        assert self.check(database, "select dept_no from dept")

    def test_aggregate_subquery_is_self_contained(self, database):
        assert self.check(database, "select avg(salary) from emp")

    def test_qualified_outer_reference_is_correlated(self, database):
        # e1 is an outer binding, not in this subquery's FROM
        assert not self.check(
            database,
            "select avg(salary) from emp e2 where e2.dept_no = e1.dept_no",
        )

    def test_unqualified_unknown_column_is_correlated(self, database):
        assert not self.check(
            database, "select dept_no from dept where mystery = 1"
        )

    def test_unqualified_own_column_is_self_contained(self, database):
        assert self.check(
            database, "select dept_no from dept where mgr_no > 0"
        )

    def test_nested_inner_reference_is_self_contained(self, database):
        # the inner query references the middle query's binding: still
        # contained within the subquery subtree
        assert self.check(
            database,
            "select name from emp e where exists "
            "(select * from dept d where d.dept_no = e.dept_no)",
        )

    def test_unknown_table_disqualifies(self, database):
        assert not self.check(database, "select x from ghost")


class TestCacheBehaviour:
    def make_db(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute("create table probe (x integer)")
        db.execute("insert into t values (1), (2), (3)")
        db.execute("insert into probe values (1), (2), (3), (4)")
        return db

    def test_cached_subquery_reused_within_statement(self, monkeypatch):
        """The inner select evaluates once per statement, not per row."""
        db = self.make_db()
        from repro.relational import select as select_module

        calls = {"n": 0}
        original = select_module._SelectExecutor.run

        def counting_run(self, node, outer):
            calls["n"] += 1
            return original(self, node, outer)

        monkeypatch.setattr(select_module._SelectExecutor, "run", counting_run)
        db.rows("select x from probe where x in (select x from t)")
        # one run per select-executor creation: outer once + inner once
        # (4 probe rows would mean 5 runs without the cache)
        assert calls["n"] == 2

    def test_cache_disabled_reevaluates(self, monkeypatch):
        db = self.make_db()
        db.database.enable_subquery_cache = False
        from repro.relational import select as select_module

        calls = {"n": 0}
        original = select_module._SelectExecutor.run

        def counting_run(self, node, outer):
            calls["n"] += 1
            return original(self, node, outer)

        monkeypatch.setattr(select_module._SelectExecutor, "run", counting_run)
        db.rows("select x from probe where x in (select x from t)")
        assert calls["n"] == 5  # outer + one per probe row

    def test_mutation_invalidates_cache(self):
        """A rule action's subquery over a base table must observe
        mutations made by earlier operations of the same block."""
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute("create table out1 (x integer)")
        db.execute("insert into t values (1)")
        # one block: read count into out1, insert, read count again
        db.execute(
            "insert into out1 (select count(*) from t); "
            "insert into t values (2); "
            "insert into out1 (select count(*) from t)"
        )
        assert sorted(db.rows("select x from out1")) == [(1,), (2,)]

    def test_same_results_with_and_without_cache(self):
        """End-to-end agreement on a correlated + uncorrelated mix."""
        outcomes = []
        for enabled in (True, False):
            db = ActiveDatabase()
            db.database.enable_subquery_cache = enabled
            db.execute(
                "create table emp (name varchar, salary float, "
                "dept_no integer)"
            )
            db.execute(
                "insert into emp values ('a', 100.0, 1), ('b', 200.0, 1), "
                "('c', 300.0, 2), ('d', 50.0, 2)"
            )
            rows = db.rows(
                "select name from emp e1 "
                "where salary > (select avg(salary) from emp e2 "
                "where e2.dept_no = e1.dept_no) "
                "and dept_no in (select dept_no from emp where salary > 60) "
                "order by name"
            )
            outcomes.append(rows)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == [("b",), ("c",)]

    def test_transition_table_subquery_is_cached(self, database,
                                                 monkeypatch):
        """A subquery over a *transition table* is self-contained, so a
        rule's evaluator memoises it like any other: keyed by
        ``database.version`` and by the version of the trans-info its
        resolver reads, it runs once while neither moves, and again
        once either does."""
        assert _select_is_self_contained(
            parse_select("select name from inserted emp"), database
        )
        assert _select_is_self_contained(
            parse_select("select salary from old updated emp.salary"),
            database,
        )
        from repro.relational import select as select_module

        calls = {"n": 0}
        original = select_module._SelectExecutor.run

        def counting_run(self, node, outer):
            calls["n"] += 1
            return original(self, node, outer)

        monkeypatch.setattr(select_module._SelectExecutor, "run", counting_run)
        handle = database.insert_row("emp", ("a", 10.0, 1))
        info = TransitionEffect()
        info.apply(InsertEffect("emp", (handle,)))
        evaluator = Evaluator(database, TransitionTableResolver(database, info))
        condition = parse_expression("'a' in (select name from inserted emp)")
        for _ in range(3):
            assert evaluator.evaluate_predicate(condition, Scope()) is True
        assert calls["n"] == 1
        info.apply(InsertEffect("emp", (handle,)))
        evaluator.evaluate_predicate(condition, Scope())
        assert calls["n"] == 2
        database.insert_row("emp", ("b", 20.0, 1))
        evaluator.evaluate_predicate(condition, Scope())
        assert calls["n"] == 3

    def test_transition_subquery_sees_trans_info_changes(self, database):
        """Regression: one Evaluator re-reading a transition-table
        subquery must observe updated trans-info even though no base-table
        mutation moved ``database.version`` in between (stale-cache
        scenario the classification fix prevents)."""
        handle = database.insert_row("emp", ("a", 10.0, 1))
        info = TransitionEffect()
        resolver = TransitionTableResolver(database, info)
        evaluator = Evaluator(database, resolver)
        condition = parse_expression("exists (select * from inserted emp)")

        assert evaluator.evaluate_predicate(condition, Scope()) is False
        info.apply(InsertEffect("emp", (handle,)))
        assert evaluator.evaluate_predicate(condition, Scope()) is True

    def test_rollback_does_not_resurrect_stale_entries(self):
        """Version only moves forward; a state restored by rollback gets
        fresh evaluations, not entries cached before the rollback."""
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.begin()
        db.execute("insert into t values (2)")
        db.rollback()
        assert db.query("select count(*) from t").scalar() == 1
