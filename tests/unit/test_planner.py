"""Unit tests for the query-planning layer (repro.relational.plan).

Covers conjunct classification, plan shapes (hash join vs product, index
lookups, residual filters), the explain renderer, the schema-versioned
plan cache, and planner-vs-naive agreement on targeted cases (order
preservation, NULL join keys, cross-kind keys, touched handles).
"""

import math

import pytest

from repro import ActiveDatabase
from repro.errors import ExecutionError, TypeError_
from repro.relational.database import Database
from repro.relational.plan import (
    Filter,
    HashJoin,
    IndexLookup,
    Product,
    Scan,
    SingleRow,
    StatementCache,
    build_plan,
    explain,
    explain_select,
)
from repro.relational.plan.pushdown import classify_where, referenced_bindings
from repro.relational.select import evaluate_select
from repro.relational.stats import EvaluationCounters
from repro.sql import ast
from repro.sql.formatter import format_node
from repro.sql.parser import parse_expression, parse_select
from tests.reference import naive_select


@pytest.fixture
def database():
    db = Database()
    db.create_table("emp", [("name", "varchar"), ("salary", "float"),
                            ("dept_no", "integer")])
    db.create_table("dept", [("dept_no", "integer"), ("mgr_no", "integer")])
    return db


BINDINGS = {
    "e": ("name", "salary", "dept_no"),
    "d": ("dept_no", "mgr_no"),
}


class TestReferencedBindings:
    def test_qualified_reference(self):
        assert referenced_bindings(parse_expression("e.salary > 10"),
                                   BINDINGS) == {"e"}

    def test_unqualified_unique_column(self):
        assert referenced_bindings(parse_expression("salary > 10"),
                                   BINDINGS) == {"e"}

    def test_unqualified_ambiguous_column_is_unattributable(self):
        assert referenced_bindings(parse_expression("dept_no = 1"),
                                   BINDINGS) is None

    def test_outer_scope_qualifier_is_unattributable(self):
        assert referenced_bindings(parse_expression("outer1.x = 1"),
                                   BINDINGS) is None

    def test_subquery_is_unattributable(self):
        assert referenced_bindings(
            parse_expression("exists (select * from emp)"), BINDINGS
        ) is None

    def test_constant_conjunct_has_no_bindings(self):
        assert referenced_bindings(parse_expression("1 = 1"), BINDINGS) == set()


class TestClassifyWhere:
    def test_pushdown_join_and_residual_split(self):
        where = parse_expression(
            "e.salary > 10 and e.dept_no = d.dept_no and "
            "exists (select * from emp)"
        )
        classified = classify_where(where, BINDINGS)
        assert list(classified.pushed) == ["e"]
        assert len(classified.pushed["e"]) == 1
        assert len(classified.joins) == 1
        left, left_owners, right, right_owners = classified.joins[0]
        assert left_owners == {"e"} and right_owners == {"d"}
        assert len(classified.residual) == 1

    def test_same_binding_equality_is_pushed_not_joined(self):
        where = parse_expression("e.salary = e.dept_no")
        classified = classify_where(where, BINDINGS)
        assert classified.pushed == {"e": [where]}
        assert not classified.joins

    def test_none_where_classifies_empty(self):
        classified = classify_where(None, BINDINGS)
        assert not classified.pushed
        assert not classified.joins
        assert not classified.residual


class TestPlanShapes:
    def test_equi_join_plans_hash_join(self, database):
        select = parse_select(
            "select e.name from emp e, dept d where e.dept_no = d.dept_no"
        )
        plan = build_plan(database, select)
        assert isinstance(plan.source, HashJoin)
        assert isinstance(plan.source.left, Scan)
        assert isinstance(plan.source.right, Scan)

    def test_no_join_conjunct_plans_product(self, database):
        select = parse_select("select e.name from emp e, dept d")
        plan = build_plan(database, select)
        assert isinstance(plan.source, Product)

    def test_pushed_conjunct_filters_below_join(self, database):
        select = parse_select(
            "select e.name from emp e, dept d "
            "where e.dept_no = d.dept_no and e.salary > 10"
        )
        plan = build_plan(database, select)
        assert isinstance(plan.source, HashJoin)
        assert isinstance(plan.source.left, Filter)
        assert not plan.source.left.residual

    def test_residual_filter_wraps_source(self, database):
        select = parse_select(
            "select e.name from emp e, dept d "
            "where e.dept_no = d.dept_no and e.salary + d.mgr_no > 10"
        )
        plan = build_plan(database, select)
        assert isinstance(plan.source, Filter)
        assert plan.source.residual
        assert isinstance(plan.source.child, HashJoin)

    def test_indexed_equality_plans_index_lookup(self, database):
        database.create_index("emp_dept", "emp", "dept_no")
        select = parse_select("select name from emp where dept_no = 1")
        plan = build_plan(database, select)
        assert isinstance(plan.source, Filter)
        lookup = plan.source.child
        assert isinstance(lookup, IndexLookup)
        assert lookup.keys == (("emp_dept", "dept_no", ast.Literal(1)),)

    def test_every_indexed_key_is_intersected(self, database):
        database.create_index("emp_dept", "emp", "dept_no")
        database.create_index("emp_name", "emp", "name")
        for i in range(100):  # a key nearly every row holds, and a rare one
            database.insert_row("emp", (f"e{i}", float(i), int(i < 90)))
        select = parse_select(
            "select salary from emp where dept_no = 1 and name = 'e7'")
        lookup = build_plan(database, select).source.child
        assert [key[:2] for key in lookup.keys] == [
            ("emp_dept", "dept_no"), ("emp_name", "name")]

    def test_conjuncts_keep_written_order(self, database):
        for i in range(100):
            database.insert_row("emp", (f"e{i}", float(i), i % 10))
        written = ("e.salary > -1.0", "e.dept_no = 3",
                   "exists (select * from dept x where x.mgr_no > 1)")
        select = parse_select(
            "select e.name from emp e, dept d where e.dept_no = d.dept_no "
            f"and {' and '.join(written)} and e.salary + d.mgr_no > 1.0")
        source = build_plan(database, select).source
        assert [format_node(p) for p in source.predicates] == [
            written[2], "e.salary + d.mgr_no > 1.0"]
        pushed = source.child.left
        assert [format_node(p) for p in pushed.predicates] == list(
            written[:2])

    def test_no_index_plans_scan(self, database):
        select = parse_select("select name from emp where dept_no = 1")
        plan = build_plan(database, select)
        assert isinstance(plan.source.child, Scan)

    def test_from_less_select_plans_single_row(self, database):
        plan = build_plan(database, parse_select("select 1"))
        assert isinstance(plan.source, SingleRow)

    def test_duplicate_binding_raises_like_naive_path(self, database):
        select = parse_select("select * from emp, emp")
        with pytest.raises(ExecutionError, match="duplicate table name"):
            build_plan(database, select)

    def test_three_way_join_chains_hash_joins(self, database):
        database.create_table("proj", [("pno", "integer"),
                                       ("dept_no", "integer")])
        select = parse_select(
            "select e.name from emp e, dept d, proj p "
            "where e.dept_no = d.dept_no and p.dept_no = d.dept_no"
        )
        plan = build_plan(database, select)
        assert isinstance(plan.source, HashJoin)
        assert isinstance(plan.source.left, HashJoin)


class TestExplain:
    def test_renders_join_tree(self, database):
        select = parse_select(
            "select e.name from emp e, dept d "
            "where e.dept_no = d.dept_no and e.salary > 10 "
            "order by e.name limit 5"
        )
        text = explain(build_plan(database, select))
        assert "Limit 5" in text
        assert "Sort [e.name]" in text
        assert "HashJoin (e.dept_no = d.dept_no)" in text
        assert "Filter: e.salary > 10" in text
        assert "Scan emp as e" in text
        assert "Scan dept as d" in text

    def test_renders_index_lookup(self, database):
        database.create_index("emp_dept", "emp", "dept_no")
        text = explain(build_plan(
            database, parse_select("select name from emp where dept_no = 1")
        ))
        assert "IndexLookup emp (dept_no = 1 [emp_dept])" in text

    def test_union_arms_render_separately(self, database):
        database.statements = StatementCache()
        database.counters = EvaluationCounters()
        database.schema_version = 0
        text = explain_select(database, parse_select(
            "select name from emp union select name from emp where salary > 1"
        ))
        assert text.startswith("Union")
        assert text.count("Scan emp") == 2


class TestPlanCache:
    def test_repeat_lookup_hits(self, database):
        database.schema_version = 0
        cache = StatementCache()
        stats = database.counters
        select = parse_select("select name from emp")
        first = cache.plan_for(select, database)
        second = cache.plan_for(select, database)
        assert first is second
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_misses == 1

    def test_structurally_equal_reparse_hits(self, database):
        """Text is keyed by its normalised tokens, so the same query —
        whatever its case, spacing and literals — deduplicates to one
        template and one plan."""
        database.schema_version = 0
        cache = StatementCache()
        stats = database.counters
        plans = []
        for text in ("select name from emp where salary > 10",
                     "SELECT name  FROM emp -- again\n WHERE salary > 99.5"):
            select, bound = cache.parse_select(text)
            plans.append(cache.plan_for(select, database, bound))
        assert plans[0] is plans[1]
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (1, 1)

    def test_schema_version_change_invalidates(self, database):
        database.schema_version = 0
        cache = StatementCache()
        stats = database.counters
        select = parse_select("select name from emp where dept_no = 1")
        before = cache.plan_for(select, database)
        database.create_index("emp_dept", "emp", "dept_no")
        after = cache.plan_for(select, database)
        assert before is not after
        assert stats.plan_cache_invalidations == 1
        assert isinstance(after.source.child, IndexLookup)

    def test_index_ddl_invalidates_cached_plans(self, database):
        """Regression: CREATE/DROP INDEX must invalidate cached plans
        through the schema version, re-planning access paths."""
        stats = database.counters
        select = parse_select("select name from emp where dept_no = 1")
        before = database.statements.plan_for(select, database)
        invalidations = stats.plan_cache_invalidations
        database.create_index("emp_dept", "emp", "dept_no")
        created = database.statements.plan_for(select, database)
        assert created is not before
        assert isinstance(created.source.child, IndexLookup)
        assert stats.plan_cache_invalidations == invalidations + 1
        database.drop_index("emp_dept")
        dropped = database.statements.plan_for(select, database)
        assert dropped is not created
        assert isinstance(dropped.source.child, Scan)
        assert stats.plan_cache_invalidations == invalidations + 2

    def test_overflow_evicts_least_recently_used(self, database):
        database.schema_version = 0
        cache = StatementCache(max_entries=2)
        stats = database.counters
        selects = [parse_select(f"select {column} from emp")
                   for column in ("name", "salary", "dept_no")]
        first = cache.plan_for(selects[0], database)
        second = cache.plan_for(selects[1], database)
        assert cache.plan_for(selects[0], database) is first
        cache.plan_for(selects[2], database)  # evicts selects[1]
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.plan_for(selects[0], database) is first
        assert cache.plan_for(selects[1], database) is not second

    def test_hit_rate_in_snapshot(self):
        counters = EvaluationCounters()
        counters.plan_cache_hits = 3
        counters.plan_cache_misses = 1
        planner = counters.sections(True)["planner"]
        assert planner["plan_cache_hit_rate"] == 0.75

    def test_delta_since_counts_increments(self):
        counters = EvaluationCounters()
        before = counters.counters()
        counters.rows_scanned += 7
        counters.plan_cache_hits += 1
        delta = counters.delta_since(before)
        assert delta["rows_scanned"] == 7
        assert delta["plan_cache_hits"] == 1
        assert delta["rows_visited"] == 0


class TestPlannedExecutionAgreesWithNaive:
    """Targeted differential cases (the broad randomized sweep lives in
    tests/property/test_planner_differential.py)."""

    def both_paths(self, db, sql):
        select = parse_select(sql)
        planned = evaluate_select(db.database, select, collect_handles=True)
        planned.touched = []
        planned_full = evaluate_select(
            db.database, select, collect_handles=True
        )
        with naive_select.installed():
            naive = evaluate_select(
                db.database, select, collect_handles=True
            )
        assert planned.columns == naive.columns
        assert planned.rows == naive.rows
        assert planned_full.touched == naive.touched
        return planned

    def make_db(self):
        db = ActiveDatabase()
        db.execute("create table emp (name varchar, salary float, "
                   "dept_no integer)")
        db.execute("create table dept (dept_no integer, mgr_no integer)")
        db.execute("insert into dept values (1, 100), (2, 200), (3, 300)")
        db.execute(
            "insert into emp values ('a', 10.0, 1), ('b', 20.0, 1), "
            "('c', 30.0, 2), ('d', 40.0, null), ('e', null, 3)"
        )
        return db

    def test_nan_join_keys_never_match(self):
        """NaN equals nothing, itself included: a NaN key joins no row,
        as a NULL key does, on the columnar and on the row hash join —
        also where ``insert ... select`` copied the very NaN object."""
        db = ActiveDatabase()
        db.execute("create table t (a float, k integer)")
        db.execute("create table u (a float, k integer)")
        db.database.insert_rows("t", [[math.nan, 1.0], [1, 2]])
        db.execute("insert into u select a, k from t")
        assert db.rows("select k from t where a = a") == [(2,)]
        for vectorized in (True, False):
            db.database.enable_vectorized_eval = vectorized
            for sql in ("select x.k, y.k from t x, t y where x.a = y.a",
                        "select x.k, y.k from t x, u y where x.a = y.a"):
                assert self.both_paths(db, sql).rows == [(2, 2)]
                assert db.rows(sql) == [(2, 2)]
                mode = "columnar" if vectorized else "row"
                assert mode in db.explain(sql)

    def test_join_rows_and_order_match(self):
        db = self.make_db()
        result = self.both_paths(
            db,
            "select e.name, d.mgr_no from emp e, dept d "
            "where e.dept_no = d.dept_no",
        )
        # nested-loop order: emp-major, dept-minor
        assert result.rows == [("a", 100), ("b", 100), ("c", 200), ("e", 300)]

    def test_null_join_keys_never_match(self):
        db = self.make_db()
        db.execute("insert into dept values (null, 999)")
        result = self.both_paths(
            db,
            "select e.name from emp e, dept d where e.dept_no = d.dept_no",
        )
        assert ("d",) not in result.rows

    def test_cross_kind_keys_do_not_join(self):
        """SQL comparison rejects bool vs int; Python's True == 1 must not
        leak through the hash-join key."""
        db = ActiveDatabase()
        db.execute("create table flags (f boolean)")
        db.execute("create table nums (n integer)")
        db.execute("insert into flags values (true), (false)")
        db.execute("insert into nums values (1), (0)")
        select = parse_select(
            "select f, n from flags, nums where f = n"
        )
        with pytest.raises(TypeError_):
            evaluate_select(db.database, select)
        with naive_select.installed(), pytest.raises(TypeError_):
            evaluate_select(db.database, select)

    def test_product_matches_naive(self):
        db = self.make_db()
        self.both_paths(db, "select e.name, d.mgr_no from emp e, dept d")

    def test_pushdown_with_index_matches(self):
        db = self.make_db()
        db.execute("create index emp_dept on emp (dept_no)")
        self.both_paths(
            db,
            "select name from emp where dept_no = 1 and salary > 15",
        )

    def test_residual_subquery_matches(self):
        db = self.make_db()
        self.both_paths(
            db,
            "select e.name from emp e, dept d "
            "where e.dept_no = d.dept_no and "
            "exists (select * from emp where salary > e.salary)",
        )

    def test_aggregation_over_join_matches(self):
        db = self.make_db()
        self.both_paths(
            db,
            "select d.mgr_no, count(*) as c from emp e, dept d "
            "where e.dept_no = d.dept_no group by d.mgr_no "
            "order by d.mgr_no",
        )

    def test_rows_visited_reduced_by_hash_join(self):
        db = self.make_db()
        stats = db.database.counters
        select = parse_select(
            "select e.name from emp e, dept d where e.dept_no = d.dept_no"
        )
        stats.reset()
        evaluate_select(db.database, select)
        planned_visited = stats.rows_visited
        stats.reset()
        with naive_select.installed():
            evaluate_select(db.database, select)
        naive_visited = stats.rows_visited
        assert planned_visited == 4      # only matching combinations
        assert naive_visited == 15       # full 5 x 3 product

    def test_index_dropped_after_planning_falls_back_to_scan(self):
        db = self.make_db()
        db.execute("create index emp_dept on emp (dept_no)")
        select = parse_select("select name from emp where dept_no = 1")
        plan = db.database.statements.plan_for(select, db.database)
        assert isinstance(plan.source.child, IndexLookup)
        # drop the index but execute the *stale* plan object directly
        from repro.relational.plan.executor import execute_source
        from repro.relational.expressions import Evaluator
        from repro.relational.select import BaseTableResolver

        db.execute("drop index emp_dept")
        resolver = BaseTableResolver(db.database)
        evaluator = Evaluator(db.database, resolver)
        _, scopes = execute_source(
            plan, db.database, resolver, evaluator, None
        )
        # the lookup degrades to a full scan; the pushed filter (which
        # always re-runs on the candidates) still keeps only dept_no = 1
        assert len(scopes) == 2
