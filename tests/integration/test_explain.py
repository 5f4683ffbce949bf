"""Integration tests for the EXPLAIN statement and ActiveDatabase.explain.

EXPLAIN is a read-only observability statement: it renders the logical
plan the planner would run, without evaluating the query or changing any
state (beyond warming the plan cache).
"""

import pytest

from repro import ActiveDatabase
from repro.sql import ast
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    adb = ActiveDatabase()
    adb.execute("create table emp (name varchar, emp_no integer, "
                "salary float, dept_no integer)")
    adb.execute("create table dept (dept_no integer, mgr_no integer)")
    adb.execute("create index emp_dept on emp (dept_no)")
    adb.execute("insert into dept values (1, 100), (2, 200)")
    adb.execute("insert into emp values ('Jane', 100, 90000.0, 1), "
                "('Bill', 101, 40000.0, 2)")
    return adb


class TestParsing:
    def test_explain_parses_to_node(self):
        statement = parse_statement("explain select name from emp")
        assert isinstance(statement, ast.Explain)
        assert isinstance(statement.select, ast.Select)

    def test_explain_requires_a_select(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_statement("explain delete from emp")

    def test_explain_round_trips_through_formatter(self):
        from repro.sql.formatter import format_node

        statement = parse_statement("explain select name from emp")
        assert format_node(statement) == "explain select name from emp"


class TestExecution:
    def test_execute_returns_plan_text(self, db):
        text = db.execute(
            "explain select e.name, d.mgr_no from emp e, dept d "
            "where e.dept_no = d.dept_no and e.salary > 50000"
        )
        assert "HashJoin (e.dept_no = d.dept_no)" in text
        assert "Filter: e.salary > 50000" in text
        assert "Scan dept as d" in text

    def test_explain_shows_index_lookup(self, db):
        text = db.execute("explain select name from emp where dept_no = 1")
        assert "IndexLookup emp (dept_no = 1 [emp_dept])" in text

    def test_explain_does_not_evaluate(self, db):
        before = db.rows("select count(*) from emp")
        db.execute("explain select name from emp where dept_no = 1")
        assert db.rows("select count(*) from emp") == before

    def test_explain_method_accepts_text_and_ast(self, db):
        from repro.sql.parser import parse_select

        sql = "select name from emp"
        assert db.explain(sql) == db.explain(parse_select(sql))

    def test_explain_union_renders_both_arms(self, db):
        text = db.execute(
            "explain select name from emp union all "
            "select name from emp where salary > 0"
        )
        assert text.startswith("Union all")
        assert text.count("Scan emp") == 2

    def test_explain_warms_the_plan_cache(self, db):
        from repro.sql.parser import parse_select

        select = parse_select("select name from emp where dept_no = 2")
        db.database.planner_stats.reset()
        db.explain(select)
        hits_after_explain = db.database.planner_stats.plan_cache_hits
        db.query(select)
        assert db.database.planner_stats.plan_cache_hits == hits_after_explain + 1

    def test_actual_rows_annotation_format(self, db):
        """Format-pinning for the act annotations: two spaces, then
        ``(act=<int|?>)`` — ``?`` until the node has run — and no
        estimate."""
        sql = "select name from emp where salary > 50000"
        text = db.explain(sql)
        assert "Scan emp  (act=?)" in text
        db.query(sql)
        text = db.explain(sql)
        assert "Scan emp  (act=2)" in text
        assert "Filter: salary > 50000  (act=1)" in text
        assert "est=" not in text

    def test_paper_section3_rule_condition_plan(self, db):
        """The README example: the condition of a §3-style rule joining a
        transition table against a base table plans a hash join."""
        text = db.execute(
            "explain select e.name from emp e, dept d "
            "where e.dept_no = d.dept_no and "
            "e.salary > 100 and d.mgr_no = 100"
        )
        assert "HashJoin" in text
        assert "Filter: e.salary > 100" in text
        assert "Filter: d.mgr_no = 100" in text
