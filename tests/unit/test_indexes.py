"""Unit tests for sorted indexes and indexed-equality pushdown."""

import pytest

from repro import ActiveDatabase
from repro.errors import CatalogError
from repro.relational.database import Database
from repro.relational.plan.pushdown import conjuncts, index_candidates
from repro.sql.parser import parse_expression


@pytest.fixture
def database():
    db = Database()
    db.create_table(
        "emp",
        [("name", "varchar"), ("emp_no", "integer"), ("dept_no", "integer")],
    )
    return db


class TestHashIndexMaintenance:
    def test_build_from_existing_rows(self, database):
        h1 = database.insert_row("emp", ("a", 1, 10))
        h2 = database.insert_row("emp", ("b", 2, 10))
        index = database.create_index("idx", "emp", "dept_no")
        assert index.lookup(10) == [h1, h2]
        assert index.lookup(99) == []

    def test_insert_updates_index(self, database):
        index = database.create_index("idx", "emp", "dept_no")
        handle = database.insert_row("emp", ("a", 1, 7))
        assert index.lookup(7) == [handle]

    def test_delete_updates_index(self, database):
        index = database.create_index("idx", "emp", "dept_no")
        handle = database.insert_row("emp", ("a", 1, 7))
        database.delete_row("emp", handle)
        assert index.lookup(7) == []

    def test_update_moves_between_buckets(self, database):
        index = database.create_index("idx", "emp", "dept_no")
        handle = database.insert_row("emp", ("a", 1, 7))
        database.update_row("emp", handle, {"dept_no": 8})
        assert index.lookup(7) == []
        assert index.lookup(8) == [handle]

    def test_nulls_not_indexed(self, database):
        index = database.create_index("idx", "emp", "dept_no")
        database.insert_row("emp", ("a", 1, None))
        assert index.lookup(None) == []
        assert index.key_count == 0

    def test_rollback_keeps_index_consistent(self, database):
        index = database.create_index("idx", "emp", "dept_no")
        kept = database.insert_row("emp", ("a", 1, 7))
        database.transactions.begin()
        doomed = database.insert_row("emp", ("b", 2, 7))
        database.update_row("emp", kept, {"dept_no": 9})
        database.delete_row("emp", kept)
        database.transactions.rollback()
        assert index.lookup(7) == [kept]
        assert index.lookup(9) == []

    def test_duplicate_index_name_rejected(self, database):
        database.create_index("idx", "emp", "dept_no")
        with pytest.raises(CatalogError):
            database.create_index("idx", "emp", "emp_no")

    def test_drop_index(self, database):
        database.create_index("idx", "emp", "dept_no")
        database.drop_index("idx")
        assert database.table("emp").index_on("dept_no") is None
        with pytest.raises(CatalogError):
            database.drop_index("idx")

    def test_drop_table_drops_its_indexes(self, database):
        database.create_index("idx", "emp", "dept_no")
        database.drop_table("emp")
        assert database.indexes.names() == []

    def test_index_on_unknown_column_rejected(self, database):
        with pytest.raises(CatalogError):
            database.create_index("idx", "emp", "ghost")


class TestPlanner:
    def test_conjunct_splitting(self):
        parts = list(conjuncts(parse_expression("a = 1 and b = 2 and c > 3")))
        assert len(parts) == 3

    def test_or_is_one_conjunct(self):
        parts = list(conjuncts(parse_expression("a = 1 or b = 2")))
        assert len(parts) == 1

    def candidates(self, database, where_sql, binding_names=("emp",)):
        table = database.table("emp")
        return index_candidates(
            parse_expression(where_sql), table, set(binding_names)
        )

    def test_no_index_returns_none(self, database):
        database.insert_row("emp", ("a", 1, 7))
        assert self.candidates(database, "dept_no = 7") is None

    def test_indexed_equality_narrows(self, database):
        database.create_index("idx", "emp", "dept_no")
        target = database.insert_row("emp", ("a", 1, 7))
        database.insert_row("emp", ("b", 2, 8))
        assert self.candidates(database, "dept_no = 7") == [target]

    def test_reversed_operands(self, database):
        database.create_index("idx", "emp", "dept_no")
        target = database.insert_row("emp", ("a", 1, 7))
        assert self.candidates(database, "7 = dept_no") == [target]

    def test_qualified_reference(self, database):
        database.create_index("idx", "emp", "dept_no")
        target = database.insert_row("emp", ("a", 1, 7))
        assert self.candidates(database, "emp.dept_no = 7") == [target]

    def test_foreign_qualifier_ignored(self, database):
        database.create_index("idx", "emp", "dept_no")
        database.insert_row("emp", ("a", 1, 7))
        assert self.candidates(database, "other.dept_no = 7") is None

    def test_multiple_indexed_conjuncts_intersect(self, database):
        database.create_index("idx_d", "emp", "dept_no")
        database.create_index("idx_e", "emp", "emp_no")
        target = database.insert_row("emp", ("a", 1, 7))
        database.insert_row("emp", ("b", 2, 7))
        assert (
            self.candidates(database, "dept_no = 7 and emp_no = 1")
            == [target]
        )

    def test_null_literal_not_pushed(self, database):
        database.create_index("idx", "emp", "dept_no")
        database.insert_row("emp", ("a", 1, 7))
        assert self.candidates(database, "dept_no = null") is None

    def test_disjunction_not_pushed(self, database):
        database.create_index("idx", "emp", "dept_no")
        database.insert_row("emp", ("a", 1, 7))
        assert self.candidates(database, "dept_no = 7 or dept_no = 8") is None


class TestEndToEnd:
    def make_db(self):
        db = ActiveDatabase()
        db.execute("create table emp (name varchar, emp_no integer, "
                   "dept_no integer)")
        db.execute(
            "insert into emp values "
            + ", ".join(f"('e{i}', {i}, {i % 10})" for i in range(100))
        )
        return db

    def test_create_index_statement(self):
        db = self.make_db()
        db.execute("create index idx_dept on emp (dept_no)")
        assert "idx_dept" in db.database.indexes.names()
        db.execute("drop index idx_dept")
        assert db.database.indexes.names() == []

    def test_query_results_identical_with_index(self):
        expected = None
        for use_index in (False, True):
            db = self.make_db()
            if use_index:
                db.execute("create index idx_dept on emp (dept_no)")
            rows = sorted(
                db.rows("select emp_no from emp where dept_no = 3")
            )
            if expected is None:
                expected = rows
            assert rows == expected
        assert len(expected) == 10

    def test_dml_results_identical_with_index(self):
        outcomes = []
        for use_index in (False, True):
            db = self.make_db()
            if use_index:
                db.execute("create index idx_dept on emp (dept_no)")
            db.execute("delete from emp where dept_no = 3 and emp_no > 50")
            db.execute("update emp set name = 'x' where dept_no = 4")
            outcomes.append(sorted(db.rows("select * from emp")))
        assert outcomes[0] == outcomes[1]

    def test_rule_actions_use_indexes_transparently(self):
        db = self.make_db()
        db.execute("create index idx_dept on emp (dept_no)")
        db.execute("create table tombstone (emp_no integer)")
        db.execute(
            "create rule archive when deleted from emp "
            "then insert into tombstone (select emp_no from deleted emp)"
        )
        db.execute("delete from emp where dept_no = 5")
        assert db.query("select count(*) from tombstone").scalar() == 10

    def test_index_ddl_inside_transaction_rejected(self):
        db = self.make_db()
        db.begin()
        from repro.errors import TransactionError

        with pytest.raises(TransactionError):
            db.execute("create index idx on emp (dept_no)")
        db.rollback()
