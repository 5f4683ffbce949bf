"""Unit tests for the cost model (repro.relational.plan.cost): totality
analysis, selectivity estimation, conjunct and condition ordering, index
key selection, and zone-map prune specs."""

import pytest

from repro.relational.database import Database
from repro.relational.plan.cost import (
    DEFAULT_SELECTIVITY,
    conjunct_selectivity,
    expression_kind,
    kind_layers,
    order_condition,
    order_conjuncts,
    prune_specs,
    select_index_keys,
    source_rows,
)
from repro.sql import ast
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


class TestSelectivity:
    def ref(self):
        return ast.BaseTableRef("emp", None)

    def test_equality_uses_ndv(self, database):
        sel = conjunct_selectivity(
            database, self.ref(), parse_expression("dept_no = 3")
        )
        assert sel == pytest.approx(0.1)

    def test_range_interpolates_min_max(self, database):
        # salary spans 0..9900 uniformly; salary < 990 keeps ~10%
        sel = conjunct_selectivity(
            database, self.ref(), parse_expression("salary < 990.0")
        )
        assert 0.05 < sel < 0.15

    def test_is_null_uses_null_fraction(self, database):
        sel = conjunct_selectivity(
            database, self.ref(), parse_expression("salary is null")
        )
        assert sel == pytest.approx(0.0005)  # clamped: no NULLs

    def test_unmodeled_conjunct_gets_default(self, database):
        sel = conjunct_selectivity(
            database, self.ref(), parse_expression("salary + 1.0 > dept_no")
        )
        assert sel == DEFAULT_SELECTIVITY

    def test_source_rows(self, database):
        assert source_rows(database, self.ref()) == 100.0


class TestOrdering:
    def test_selective_cheap_conjunct_first(self, database):
        layers, tables = layers_for(
            database, "select * from emp e where 1 = 1"
        )
        broad = parse_expression("e.salary > -1.0")    # keeps everything
        narrow = parse_expression("e.dept_no = 3")     # keeps 10%
        ordered = order_conjuncts(
            database, [broad, narrow], layers, tables[0]
        )
        assert ordered == [narrow, broad]

    def test_non_total_conjunct_blocks_reordering(self, database):
        layers, tables = layers_for(
            database, "select * from emp e where 1 = 1"
        )
        risky = parse_expression("e.salary / 0.0 > 1.0")
        narrow = parse_expression("e.dept_no = 3")
        assert order_conjuncts(
            database, [risky, narrow], layers, tables[0]
        ) is None

    def test_subquery_conjunct_ordered_last(self, database):
        layers, tables = layers_for(
            database, "select * from emp e where 1 = 1"
        )
        subquery = parse_expression(
            "exists (select name from emp x where x.salary > 1.0)"
        )
        narrow = parse_expression("e.dept_no = 3")
        ordered = order_conjuncts(
            database, [subquery, narrow], layers, tables[0]
        )
        assert ordered == [narrow, subquery]


class TestOrderCondition:
    def test_reorders_subquery_after_cheap_conjunct(self, database):
        condition = parse_expression(
            "exists (select name from emp x where x.salary > 1.0) "
            "and 1 = 2"
        )
        before = database.optimizer_stats.conditions_reordered
        ordered = order_condition(database, condition)
        assert ordered is not condition
        assert isinstance(ordered.left, ast.BinaryOp)
        assert ordered.left.op == "="
        assert database.optimizer_stats.conditions_reordered == before + 1

    def test_unchanged_order_returns_same_object(self, database):
        condition = parse_expression("1 = 2 and 3 = 4")
        assert order_condition(database, condition) is condition

    def test_non_total_condition_kept(self, database):
        condition = parse_expression("1.0 / 0.0 > 1.0 and 1 = 2")
        assert order_condition(database, condition) is condition


class TestSelectIndexKeys:
    def test_keeps_smallest_and_selective_buckets(self, database):
        database.create_index("emp_dept", "emp", "dept_no")
        database.create_index("emp_name", "emp", "name")
        table = database.table("emp")
        dept_index = table.index_on("dept_no")
        name_index = table.index_on("name")
        keys, scanned = select_index_keys(
            [(dept_index, "dept_no", ast.Literal(3)),
             (name_index, "name", ast.Param(0, "s"))], 100, ("e7",)
        )
        assert scanned == 1.0  # the name bucket is unique
        assert [key[1] for key in keys] == ["dept_no", "name"]

    def test_drops_near_table_sized_bucket(self, database):
        database.create_index("emp_dept", "emp", "dept_no")
        table = database.table("emp")
        index = table.index_on("dept_no")
        # with only 15 rows a 10-row bucket covers most of the table:
        # intersecting it costs more than letting the filter reject
        keys, scanned = select_index_keys(
            [(index, "dept_no", ast.Literal(3)),
             (index, "dept_no", ast.Literal(4))], 15
        )
        assert len(keys) == 2  # both tie at 10 rows: smallest kept
        keys, _ = select_index_keys(
            [(index, "dept_no", ast.Literal(3))], 15
        )
        assert len(keys) == 1  # the smallest bucket is always kept


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
