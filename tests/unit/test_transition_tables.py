"""Unit tests for transition tables (paper §3) and reference validation."""

import pytest

from repro.core.effects import TransitionEffect
from repro.core.transition_tables import (
    TransitionTableResolver,
    validate_transition_references,
)
from repro.errors import ExecutionError, InvalidRuleError
from repro.relational.database import Database
from repro.relational.dml import DeleteEffect, InsertEffect, UpdateEffect
from repro.sql import ast
from repro.sql.parser import (
    parse_statement,
    parse_transition_predicates,
)


@pytest.fixture
def database():
    db = Database()
    db.create_table("emp", [("name", "varchar"), ("salary", "float")])
    return db


def ref(kind, table, column=None):
    return ast.TransitionTableRef(kind, table, column)


class TestResolver:
    def test_inserted_serves_current_rows(self, database):
        handle = database.insert_row("emp", ("a", 10.0))
        info = TransitionEffect.from_op_effects([InsertEffect("emp", (handle,))])
        resolver = TransitionTableResolver(database, info)
        columns, rows = resolver.resolve(ref(ast.TransitionKind.INSERTED, "emp"))
        assert columns == ("name", "salary")
        assert rows == [("a", 10.0)]

    def test_inserted_reflects_later_updates(self, database):
        """inserted t shows the *current* state of inserted tuples."""
        handle = database.insert_row("emp", ("a", 10.0))
        info = TransitionEffect.from_op_effects([InsertEffect("emp", (handle,))])
        database.update_row("emp", handle, {"salary": 99.0})
        info.apply(UpdateEffect("emp", ("salary",), ((handle, ("a", 10.0)),)))
        resolver = TransitionTableResolver(database, info)
        _, rows = resolver.resolve(ref(ast.TransitionKind.INSERTED, "emp"))
        assert rows == [("a", 99.0)]

    def test_deleted_serves_baseline_rows(self, database):
        handle = database.insert_row("emp", ("a", 10.0))
        database.delete_row("emp", handle)
        info = TransitionEffect.from_op_effects(
            [DeleteEffect("emp", ((handle, ("a", 10.0)),))]
        )
        resolver = TransitionTableResolver(database, info)
        _, rows = resolver.resolve(ref(ast.TransitionKind.DELETED, "emp"))
        assert rows == [("a", 10.0)]

    def test_old_and_new_updated(self, database):
        handle = database.insert_row("emp", ("a", 10.0))
        old_row = database.row("emp", handle)
        database.update_row("emp", handle, {"salary": 20.0})
        info = TransitionEffect.from_op_effects(
            [UpdateEffect("emp", ("salary",), ((handle, old_row),))]
        )
        resolver = TransitionTableResolver(database, info)
        _, old_rows = resolver.resolve(
            ref(ast.TransitionKind.OLD_UPDATED, "emp", "salary")
        )
        _, new_rows = resolver.resolve(
            ref(ast.TransitionKind.NEW_UPDATED, "emp", "salary")
        )
        assert old_rows == [("a", 10.0)]
        assert new_rows == [("a", 20.0)]

    def test_updated_column_narrowing(self, database):
        h1 = database.insert_row("emp", ("a", 10.0))
        h2 = database.insert_row("emp", ("b", 20.0))
        info = TransitionEffect.from_op_effects(
            [
                UpdateEffect("emp", ("salary",), ((h1, ("a", 10.0)),)),
                UpdateEffect("emp", ("name",), ((h2, ("b", 20.0)),)),
            ]
        )
        resolver = TransitionTableResolver(database, info)
        _, salary_rows = resolver.resolve(
            ref(ast.TransitionKind.OLD_UPDATED, "emp", "salary")
        )
        _, all_rows = resolver.resolve(
            ref(ast.TransitionKind.OLD_UPDATED, "emp")
        )
        assert len(salary_rows) == 1
        assert len(all_rows) == 2

    def test_base_table_falls_through(self, database):
        database.insert_row("emp", ("a", 10.0))
        resolver = TransitionTableResolver(database, TransitionEffect())
        columns, rows = resolver.resolve(ast.BaseTableRef("emp"))
        assert len(rows) == 1

    def test_empty_info_gives_empty_tables(self, database):
        resolver = TransitionTableResolver(database, TransitionEffect())
        for kind in (
            ast.TransitionKind.INSERTED,
            ast.TransitionKind.DELETED,
            ast.TransitionKind.OLD_UPDATED,
            ast.TransitionKind.NEW_UPDATED,
        ):
            _, rows = resolver.resolve(ref(kind, "emp"))
            assert rows == []


class TestBaseResolverRejectsTransitionTables:
    def test_plain_query_cannot_use_transition_tables(self, database):
        from repro.relational.select import BaseTableResolver

        resolver = BaseTableResolver(database)
        with pytest.raises(ExecutionError):
            resolver.resolve(ref(ast.TransitionKind.INSERTED, "emp"))


class TestReferenceValidation:
    """Paper §3: a rule may only reference transition tables corresponding
    to its basic transition predicates — checked at create-rule time."""

    def check(self, when, action_sql):
        predicates = parse_transition_predicates(when)
        action = parse_statement(action_sql)
        validate_transition_references("r", predicates, action)

    def test_matching_reference_passes(self):
        self.check(
            "deleted from dept",
            "delete from emp where dept_no in (select dept_no from deleted dept)",
        )

    def test_missing_predicate_rejected(self):
        with pytest.raises(InvalidRuleError):
            self.check(
                "inserted into emp",
                "delete from emp where dept_no in "
                "(select dept_no from deleted dept)",
            )

    def test_updated_column_must_match_exactly(self):
        with pytest.raises(InvalidRuleError):
            self.check(
                "updated emp.name",
                "delete from emp where salary in "
                "(select salary from old updated emp.salary)",
            )

    def test_whole_table_predicate_serves_whole_table_ref(self):
        self.check(
            "updated emp",
            "delete from emp where salary in "
            "(select salary from old updated emp)",
        )

    def test_whole_table_ref_needs_whole_table_predicate(self):
        with pytest.raises(InvalidRuleError):
            self.check(
                "updated emp.salary",
                "delete from emp where salary in "
                "(select salary from old updated emp)",
            )

    def test_new_updated_matches_updated_predicate(self):
        self.check(
            "updated emp.salary",
            "delete from emp where salary in "
            "(select salary from new updated emp.salary)",
        )

    def test_none_node_passes(self):
        validate_transition_references(
            "r", parse_transition_predicates("inserted into emp"), None
        )

    def test_deeply_nested_reference_found(self):
        with pytest.raises(InvalidRuleError):
            self.check(
                "inserted into emp",
                "delete from emp where exists "
                "(select * from emp e where e.salary > "
                "(select avg(salary) from deleted emp))",
            )
