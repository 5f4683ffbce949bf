"""Unit tests for transition predicate satisfaction (paper §3)."""

import pytest

from repro.core.predicates import (
    basic_predicate_satisfied,
    describe_predicate,
    predicate_tables,
    transition_predicate_satisfied,
)
from repro.core.effects import TransitionEffect
from repro.relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)
from repro.sql.parser import parse_transition_predicates

ROW = ("x", 1)


def info_from(*ops):
    return TransitionEffect.from_op_effects(ops)


def pred(text):
    return parse_transition_predicates(text)[0]


class TestInserted:
    def test_satisfied_by_matching_table(self):
        info = info_from(InsertEffect("emp", (1,)))
        assert basic_predicate_satisfied(pred("inserted into emp"), info)

    def test_not_satisfied_by_other_table(self):
        info = info_from(InsertEffect("dept", (1,)))
        assert not basic_predicate_satisfied(pred("inserted into emp"), info)

    def test_not_satisfied_after_net_delete(self):
        info = info_from(
            InsertEffect("emp", (1,)), DeleteEffect("emp", ((1, ROW),))
        )
        assert not basic_predicate_satisfied(pred("inserted into emp"), info)


class TestDeleted:
    def test_satisfied(self):
        info = info_from(DeleteEffect("emp", ((1, ROW),)))
        assert basic_predicate_satisfied(pred("deleted from emp"), info)

    def test_empty_info_not_satisfied(self):
        assert not basic_predicate_satisfied(
            pred("deleted from emp"), TransitionEffect()
        )


class TestUpdated:
    def test_column_specific(self):
        info = info_from(UpdateEffect("emp", ("salary",), ((1, ROW),)))
        assert basic_predicate_satisfied(pred("updated emp.salary"), info)
        assert not basic_predicate_satisfied(pred("updated emp.name"), info)

    def test_whole_table_matches_any_column(self):
        info = info_from(UpdateEffect("emp", ("salary",), ((1, ROW),)))
        assert basic_predicate_satisfied(pred("updated emp"), info)

    def test_update_of_inserted_tuple_does_not_trigger(self):
        """Insert-then-update nets to an insertion (§2.2), so an
        updated-predicate rule must NOT trigger."""
        info = info_from(
            InsertEffect("emp", (1,)),
            UpdateEffect("emp", ("salary",), ((1, ROW),)),
        )
        assert not basic_predicate_satisfied(pred("updated emp.salary"), info)
        assert basic_predicate_satisfied(pred("inserted into emp"), info)

    def test_update_then_delete_triggers_deleted_only(self):
        info = info_from(
            UpdateEffect("emp", ("salary",), ((1, ROW),)),
            DeleteEffect("emp", ((1, ROW),)),
        )
        assert not basic_predicate_satisfied(pred("updated emp.salary"), info)
        assert basic_predicate_satisfied(pred("deleted from emp"), info)


class TestSelected:
    def test_column_and_table_forms(self):
        info = info_from(SelectEffect((("emp", 1, ("salary",)),)))
        assert basic_predicate_satisfied(pred("selected emp"), info)
        assert basic_predicate_satisfied(pred("selected emp.salary"), info)
        assert not basic_predicate_satisfied(pred("selected emp.name"), info)
        assert not basic_predicate_satisfied(pred("selected dept"), info)


class TestDisjunction:
    def test_any_predicate_suffices(self):
        predicates = parse_transition_predicates(
            "inserted into emp or deleted from dept"
        )
        info = info_from(DeleteEffect("dept", ((1, ROW),)))
        assert transition_predicate_satisfied(predicates, info)

    def test_none_satisfied(self):
        predicates = parse_transition_predicates(
            "inserted into emp or deleted from dept"
        )
        info = info_from(UpdateEffect("emp", ("salary",), ((1, ROW),)))
        assert not transition_predicate_satisfied(predicates, info)


class TestHelpers:
    def test_predicate_tables(self):
        predicates = parse_transition_predicates(
            "inserted into emp or deleted from dept or updated emp.salary"
        )
        assert predicate_tables(predicates) == {"emp", "dept"}

    @pytest.mark.parametrize(
        "text",
        [
            "inserted into emp",
            "deleted from dept",
            "updated emp.salary",
            "updated emp",
            "selected emp.name",
        ],
    )
    def test_describe_roundtrip(self, text):
        assert describe_predicate(pred(text)) == text
