"""Unit tests for repro.relational.plan.cost: totality analysis and
zone-map prune specs."""

import pytest

from repro.relational.database import Database
from repro.relational.plan.cost import expression_kind, kind_layers, prune_specs
from repro.sql.parser import parse_expression, parse_select


@pytest.fixture
def database():
    db = Database()
    db.create_table("emp", [("name", "varchar"), ("salary", "float"),
                            ("dept_no", "integer")])
    db.create_table("dept", [("dept_no", "integer"), ("mgr_no", "integer")])
    for i in range(100):
        db.insert_row("emp", (f"e{i}", float(i * 100), i % 10))
    for i in range(10):
        db.insert_row("dept", (i, i + 1000))
    return db


def layers_for(db, sql):
    select = parse_select(sql)
    return kind_layers(db, select.tables), select.tables


def kind(db, expression, sql="select * from emp e, dept d"):
    layers, _ = layers_for(db, sql)
    return expression_kind(parse_expression(expression), layers, db)


class TestTotality:
    def test_total_comparisons_and_arithmetic(self, database):
        assert kind(database, "e.salary > 100.0") == "b"
        assert kind(database, "e.salary + 1.0 * 2.0") == "n"
        assert kind(database, "e.name = 'x'") == "b"
        assert kind(database, "not (e.salary > 1.0 and e.dept_no = 2)") == "b"
        assert kind(database, "e.salary is null") == "b"
        assert kind(database, "e.salary between 1.0 and 2.0") == "b"
        assert kind(database, "e.name like 'a%'") == "b"
        assert kind(database, "e.dept_no in (1, 2, 3)") == "b"

    def test_null_literal_is_compatible_with_anything(self, database):
        assert kind(database, "e.salary = null") == "b"
        assert kind(database, "null") == "?"

    def test_division_and_functions_are_not_total(self, database):
        assert kind(database, "e.salary / e.dept_no") is None
        assert kind(database, "e.salary > 1.0 / 0.0") is None
        assert kind(database, "abs(e.salary) > 1.0") is None

    def test_cross_kind_comparison_is_not_total(self, database):
        assert kind(database, "e.name > 1") is None
        assert kind(database, "e.salary like 'a%'") is None

    def test_unqualified_column_resolution(self, database):
        # salary is uniquely owned; dept_no is ambiguous between e and d
        assert kind(database, "salary > 1.0") == "b"
        assert kind(database, "dept_no = 1") is None
        assert kind(database, "nosuch = 1") is None

    def test_exists_over_plain_total_select(self, database):
        assert kind(
            database,
            "exists (select name from emp x where x.salary > 1.0)",
        ) == "b"
        # a where clause that can raise poisons the subquery
        assert kind(
            database,
            "exists (select name from emp x where x.salary / 0.0 > 1.0)",
        ) is None

    def test_scalar_select_single_ungrouped_aggregate(self, database):
        assert kind(database, "(select count(*) from emp x) > 1") == "b"
        assert kind(database, "(select max(x.name) from emp x) = 'a'") == "b"
        assert kind(
            database, "(select x.salary from emp x) > 1.0"
        ) is None  # non-aggregate scalar select can raise on cardinality

    def test_case_expression_with_compatible_branches(self, database):
        assert kind(
            database,
            "case when e.salary > 1.0 then 1 else 2 end = 1",
        ) == "b"
        assert kind(
            database,
            "case when e.salary > 1.0 then 1 else 'x' end = 1",
        ) is None


class TestPruneSpecs:
    def specs(self, database, where):
        select = parse_select(f"select * from emp e where {where}")
        layers = kind_layers(database, select.tables)
        pushed = [select.where] if select.where is not None else []
        from repro.relational.plan.pushdown import conjuncts
        pushed = list(conjuncts(select.where))
        # each spec's operand is the literal's node: show its value
        return tuple(
            (position, op, operand.value)
            for position, op, operand in prune_specs(
                database, select.tables[0], "e", pushed, layers
            )
        )

    def test_range_and_equality_specs(self, database):
        assert self.specs(database, "e.salary > 100.0") == ((1, ">", 100.0),)
        assert self.specs(database, "e.dept_no = 3") == ((2, "=", 3),)
        assert self.specs(database, "100.0 < e.salary") == ((1, ">", 100.0),)

    def test_kind_mismatch_disables_spec(self, database):
        # integer literals against a float column are fine (both kind
        # "n"); a NULL literal is total but kind "?", so no spec — the
        # kernel would otherwise compare None against zone bounds
        assert self.specs(database, "e.salary > 100") == ((1, ">", 100),)
        assert self.specs(database, "e.salary > null") == ()

    def test_non_total_sibling_disables_all_specs(self, database):
        assert self.specs(
            database, "e.salary > 100.0 and e.dept_no / 0 = 1"
        ) == ()

    def test_total_sibling_keeps_specs(self, database):
        specs = self.specs(
            database, "e.salary > 100.0 and e.name like 'a%'"
        )
        assert specs == ((1, ">", 100.0),)
