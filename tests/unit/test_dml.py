"""Unit tests for DML execution and affected sets (paper §2.1)."""

import pytest

from repro.errors import ExecutionError, TypeError_
from repro.relational.database import Database
from repro.relational.dml import (
    DeleteEffect,
    DmlExecutor,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)
from repro.sql.parser import parse_statement


@pytest.fixture
def database():
    db = Database()
    db.create_table(
        "emp",
        [
            ("name", "varchar"),
            ("emp_no", "integer"),
            ("salary", "float"),
            ("dept_no", "integer"),
        ],
    )
    return db


@pytest.fixture
def executor(database):
    return DmlExecutor(database)


def execute(executor, sql):
    return executor.execute_block(parse_statement(sql))


class TestInsert:
    def test_affected_set_contains_new_handles(self, database, executor):
        [effect] = execute(executor, "insert into emp values ('a', 1, 2.0, 3)")
        assert isinstance(effect, InsertEffect)
        assert len(effect.handles) == 1
        handle = effect.handles[0]
        assert database.row("emp", handle) == ("a", 1, 2.0, 3)

    def test_multi_row_insert_one_affected_set(self, executor):
        [effect] = execute(
            executor, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 2.0, 2)"
        )
        assert len(effect.handles) == 2

    def test_insert_with_column_subset_nulls_rest(self, database, executor):
        [effect] = execute(executor, "insert into emp (name, emp_no) values ('a', 1)")
        row = database.row("emp", effect.handles[0])
        assert row == ("a", 1, None, None)

    def test_insert_arity_mismatch_raises(self, executor):
        with pytest.raises(ExecutionError):
            execute(executor, "insert into emp values (1)")

    def test_insert_column_count_mismatch_raises(self, executor):
        with pytest.raises(ExecutionError):
            execute(executor, "insert into emp (name) values ('a', 1)")

    def test_insert_select(self, database, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1)")
        [effect] = execute(
            executor,
            "insert into emp (select name, emp_no + 100, salary, dept_no "
            "from emp)",
        )
        assert len(effect.handles) == 1
        assert database.row_count("emp") == 2

    def test_insert_select_self_reference_terminates(self, database, executor):
        """Insert-select fully evaluates before inserting (§2.1), so a
        table inserting into itself exactly doubles."""
        execute(executor, "insert into emp values ('a', 1, 1.0, 1), ('b', 2, 2.0, 2)")
        execute(executor, "insert into emp (select * from emp)")
        assert database.row_count("emp") == 4

    def test_insert_expressions_evaluated(self, database, executor):
        [effect] = execute(
            executor, "insert into emp values ('a', 1 + 1, 2.0 * 3, 4)"
        )
        assert database.row("emp", effect.handles[0]) == ("a", 2, 6.0, 4)

    def test_mixed_literal_and_computed_values(self, database, executor):
        """Literals are read directly, everything else is evaluated, row
        by row: the second row's subquery sees the first row inserted."""
        [effect] = execute(
            executor,
            "insert into emp values "
            "(upper('a'), 1 + 1, (select max(salary) from emp), null), "
            "('b', -3, (select max(salary) from emp) + 1, 4), "
            "('c', 5, 7.5, (select count(*) from emp))",
        )
        assert [database.row("emp", h) for h in effect.handles] == [
            ("A", 2, None, None), ("b", -3, None, 4), ("c", 5, 7.5, 2),
        ]
        [effect] = execute(
            executor, "insert into emp values "
                      "('d', 6, (select max(salary) from emp) + 1, 1)"
        )
        assert database.row("emp", effect.handles[0]) == ("d", 6, 8.5, 1)

    def test_arity_errors_are_worded_as_before(self, database, executor):
        with pytest.raises(ExecutionError) as excinfo:
            execute(executor, "insert into emp values ('a', 1, 2.0, 3), (1, 2)")
        assert str(excinfo.value) == (
            "insert into 'emp' expects 4 values, got 2"
        )
        assert database.row_count("emp") == 1  # the first row went in
        with pytest.raises(ExecutionError) as excinfo:
            execute(executor, "insert into emp (name) values ('a', 1 + 1)")
        assert str(excinfo.value) == (
            "insert into 'emp' names 1 columns but provides 2 values"
        )

    def test_a_value_that_raises_wins_over_the_arity_error(self, executor):
        """All of a row's values are evaluated before its shape is
        checked, literal or not."""
        with pytest.raises(ExecutionError, match="unknown column"):
            execute(executor, "insert into emp values (1, nosuch)")


class TestSetWrites:
    """Every write is one set mutator call over its whole affected set."""

    def test_a_literal_row_list_executes_without_building_nodes(
            self, database, executor):
        block = parse_statement(
            "insert into emp values ('a', 1, -2.5, null), ('b', - 2, +3, 4)")
        [operation] = block.operations
        [effect] = executor.execute_block(block)
        assert operation.rows._nodes is None  # the value matrix sufficed
        assert [database.row("emp", h) for h in effect.handles] == [
            ("a", 1, -2.5, None), ("b", -2, 3.0, 4),
        ]
        assert repr(database.row("emp", effect.handles[1])[2]) == "3.0"

    def test_each_write_is_one_undo_record_and_one_write_notice(
            self, database, executor):
        written = []
        database.on_table_write = written.append
        database.transactions.begin()
        execute(executor, "insert into emp values "
                          "('a', 1, 10.0, 1), ('b', 2, 20.0, 1), ('c', 3, 30.0, 2)")
        execute(executor, "insert into emp (select * from emp)")
        execute(executor, "update emp set salary = salary * 2, dept_no = 9 "
                          "where dept_no = 1")
        execute(executor, "delete from emp where dept_no = 9")
        execute(executor, "delete from emp where dept_no = 9")  # no tuples
        execute(executor, "update emp set salary = 0 where false")
        assert written == ["emp"] * 4
        assert database.transactions.savepoint() == 4
        assert database.table("emp").rows() == [
            ("c", 3, 30.0, 2), ("c", 3, 30.0, 2)]
        database.transactions.rollback()
        assert database.row_count("emp") == 0

    def test_a_bad_row_in_a_bulk_insert_is_reported_and_nothing_happens(
            self, database, executor):
        execute(executor, "insert into emp values ('z', 0, 0.0, 0)")
        issued = database.handles.issued_count
        with pytest.raises(TypeError_) as bulk:
            execute(executor, "insert into emp values ('a', 1, 1.0, 1), "
                              "('b', 2, 'two', 2.5), (3, 3, 3.0, 3)")
        with pytest.raises(TypeError_) as single:
            execute(executor, "insert into emp values ('b', 2, 'two', 2.5)")
        assert str(bulk.value) == str(single.value)
        assert "column emp.salary" in str(bulk.value)
        assert database.row_count("emp") == 1
        assert database.handles.issued_count == issued

    def test_update_errors_are_the_first_in_row_then_assignment_order(
            self, database, executor):
        execute(executor, "insert into emp values "
                          "('a', 1, 10.0, 1), ('b', 0, 20.0, 0), ('c', 3, 30.0, 3)")
        before = database.snapshot()
        # row 'b' fails in the first assignment, row 'a' in the second
        with pytest.raises(ExecutionError, match="division by zero"):
            execute(executor, "update emp set salary = salary / emp_no, "
                              "dept_no = 7 / (dept_no - 1)")
        with pytest.raises(TypeError_, match="column emp.emp_no"):
            execute(executor, "update emp set emp_no = salary / 4")
        assert database.snapshot() == before

    def test_update_assigning_a_column_twice_keeps_the_last_value(
            self, database, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1)")
        [effect] = execute(
            executor, "update emp set salary = 'x', salary = salary + 1")
        assert effect.columns == ("salary", "salary")
        assert database.table("emp").rows() == [("a", 1, 11.0, 1)]

    def test_update_with_a_subquery_assignment_sees_the_old_state(
            self, database, executor):
        execute(executor, "insert into emp values "
                          "('a', 1, 10.0, 1), ('b', 2, 20.0, 1)")
        execute(executor, "update emp set salary = "
                          "(select max(salary) from emp) + emp_no")
        assert database.table("emp").rows() == [
            ("a", 1, 21.0, 1), ("b", 2, 22.0, 1)]


class TestDelete:
    def test_affected_set_has_old_rows(self, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 20.0, 2)")
        [effect] = execute(executor, "delete from emp where emp_no = 1")
        assert isinstance(effect, DeleteEffect)
        assert len(effect.entries) == 1
        handle, row = effect.entries[0]
        assert row == ("a", 1, 10.0, 1)

    def test_delete_without_where_deletes_all(self, database, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 20.0, 2)")
        [effect] = execute(executor, "delete from emp")
        assert len(effect.entries) == 2
        assert database.row_count("emp") == 0

    def test_delete_matching_nothing_empty_affected_set(self, executor):
        [effect] = execute(executor, "delete from emp where emp_no = 99")
        assert effect.entries == ()

    def test_delete_identifies_before_mutating(self, database, executor):
        """The predicate must not observe the delete's own progress."""
        execute(executor, "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 20.0, 1)")
        # Deleting everyone above the average: average computed on the
        # pre-delete state, both evaluated against it.
        [effect] = execute(
            executor,
            "delete from emp where salary >= (select avg(salary) from emp)",
        )
        assert len(effect.entries) == 1  # only 'b' (20 >= 15)


class TestUpdate:
    def test_affected_set_has_columns_and_old_rows(self, database, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1)")
        [effect] = execute(executor, "update emp set salary = 99.0")
        assert isinstance(effect, UpdateEffect)
        assert effect.columns == ("salary",)
        handle, old_row = effect.entries[0]
        assert old_row == ("a", 1, 10.0, 1)
        assert database.row("emp", handle) == ("a", 1, 99.0, 1)

    def test_identity_update_still_affects(self, executor):
        """Paper §2.1: updated columns are recorded 'regardless of whether
        a value is actually changed'."""
        execute(executor, "insert into emp values ('a', 1, 10.0, 1)")
        [effect] = execute(executor, "update emp set salary = 10.0")
        assert len(effect.entries) == 1

    def test_update_expressions_see_old_values(self, database, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1)")
        [effect] = execute(
            executor,
            "update emp set salary = salary * 2, dept_no = dept_no + 1",
        )
        handle, _ = effect.entries[0]
        assert database.row("emp", handle) == ("a", 1, 20.0, 2)

    def test_update_swap_semantics(self, database, executor):
        """Both assignments read the pre-update tuple (standard SQL)."""
        database.create_table("p", [("a", "integer"), ("b", "integer")])
        handle = database.insert_row("p", (1, 2))
        execute(executor, "update p set a = b, b = a")
        assert database.row("p", handle) == (2, 1)

    def test_update_does_not_see_sibling_updates(self, database, executor):
        """All assignment expressions evaluate against the pre-update
        state, so a subquery cannot observe partial effects."""
        execute(executor, "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 20.0, 1)")
        execute(executor, "update emp set salary = (select sum(salary) from emp)")
        rows = sorted(r[2] for r in database.table("emp").rows())
        assert rows == [30.0, 30.0]

    def test_update_unknown_column_raises(self, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1)")
        with pytest.raises(Exception):
            execute(executor, "update emp set nope = 1")

    def test_update_where_filters(self, database, executor):
        execute(executor, "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 20.0, 2)")
        [effect] = execute(executor, "update emp set salary = 0 where dept_no = 2")
        assert len(effect.entries) == 1


class TestBlocks:
    def test_block_returns_effect_per_operation(self, executor):
        effects = execute(
            executor,
            "insert into emp values ('a', 1, 10.0, 1); "
            "update emp set salary = 20.0; "
            "delete from emp",
        )
        assert [type(e) for e in effects] == [
            InsertEffect, UpdateEffect, DeleteEffect,
        ]

    def test_select_in_block_no_effect_by_default(self, executor):
        effects = execute(executor, "select * from emp")
        assert effects == []


class TestSelectTracking:
    def test_select_effect_when_tracking(self, database):
        executor = DmlExecutor(database, track_selects=True)
        execute(executor, "insert into emp values ('a', 1, 10.0, 1), ('b', 2, 20.0, 2)")
        effects = execute(executor, "select name from emp where salary > 15")
        assert len(effects) == 1
        effect = effects[0]
        assert isinstance(effect, SelectEffect)
        assert len(effect.entries) == 1  # only 'b' survives the WHERE
        table, handle, columns = effect.entries[0]
        assert table == "emp"
        assert "name" in columns and "salary" in columns

    def test_select_star_touches_all_columns(self, database):
        executor = DmlExecutor(database, track_selects=True)
        execute(executor, "insert into emp values ('a', 1, 10.0, 1)")
        [effect] = execute(executor, "select * from emp")
        _, _, columns = effect.entries[0]
        assert set(columns) == {"name", "emp_no", "salary", "dept_no"}
