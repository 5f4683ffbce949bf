"""Unit tests for transition effects and Definition 2.1 composition."""

import pytest

from repro.core.effects import TableEffect, TransitionEffect, compose_all
from repro.relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)


def effect(I=(), D=(), U=(), S=(), pre=None):
    """A one-table effect from flat handle sets and (handle, column)
    pairs."""
    updated, selected = {}, {}
    for pairs, columns_of in ((U, updated), (S, selected)):
        for handle, column in pairs:
            columns_of[handle] = columns_of.get(handle, frozenset()) | {column}
    return TransitionEffect({"t": TableEffect(I, D, updated, selected, pre)})


def base(op):
    """The base-case effect of one operation (§2.2)."""
    return TransitionEffect.from_op_effects([op])


class TestBasics:
    def test_empty(self):
        assert TransitionEffect().is_empty()

    def test_non_empty(self):
        assert not effect(I=[1]).is_empty()
        assert not effect(D=[1]).is_empty()
        assert not effect(U=[(1, "c")]).is_empty()

    def test_well_formedness(self):
        assert effect(I=[1], D=[2], U=[(3, "c")]).is_well_formed()
        assert not effect(I=[1], D=[1]).is_well_formed()
        assert not effect(I=[1], U=[(1, "c")]).is_well_formed()
        assert not effect(D=[1], U=[(1, "c")]).is_well_formed()

    def test_updated_handles(self):
        e = effect(U=[(1, "a"), (1, "b"), (2, "a")])
        assert e.tables["t"].updated_handles() == [1, 2]

    def test_summary(self):
        assert effect(I=[1, 2], D=[3], U=[(4, "c")]).summary() == "[I:2 D:1 U:1]"

    def test_summary_with_selected(self):
        assert "S:1" in effect(S=[(1, "c")]).summary()


class TestCompositionDefinition21:
    """The paper's worked net-effect cases (§2.2)."""

    def test_insert_then_delete_vanishes(self):
        """"an insertion followed by a deletion is not considered at all"."""
        composed = effect(I=[1]).compose(effect(D=[1]))
        assert composed.is_empty()

    def test_insert_then_update_is_insert(self):
        """"an insertion followed by an update is considered as an
        insertion of the updated tuple"."""
        composed = effect(I=[1]).compose(effect(U=[(1, "c")]))
        assert composed == effect(I=[1])

    def test_update_then_delete_is_delete(self):
        """"if a tuple is updated by several operations and then deleted,
        we consider only the deletion"."""
        composed = effect(U=[(1, "c")]).compose(effect(D=[1]))
        assert composed == effect(D=[1])

    def test_multiple_updates_merge(self):
        """"multiple updates of a tuple are considered as a single
        update"."""
        composed = effect(U=[(1, "a")]).compose(effect(U=[(1, "b"), (1, "a")]))
        assert composed == effect(U=[(1, "a"), (1, "b")])

    def test_delete_then_insert_is_not_update(self):
        """"we never consider deletion of a tuple followed by insertion of
        a new tuple as an update" — handles differ, both survive."""
        composed = effect(D=[1]).compose(effect(I=[2]))
        assert composed == effect(D=[1], I=[2])

    def test_disjoint_effects_union(self):
        composed = effect(I=[1], D=[2], U=[(3, "c")]).compose(
            effect(I=[4], D=[5], U=[(6, "d")])
        )
        assert composed == effect(
            I=[1, 4], D=[2, 5], U=[(3, "c"), (6, "d")]
        )

    def test_identity_element(self):
        e = effect(I=[1], D=[2], U=[(3, "c")])
        assert TransitionEffect().compose(e) == e
        assert e.compose(TransitionEffect()) == e

    def test_associativity_worked_example(self):
        # insert(1); update(1); delete(1) -> empty, either grouping
        e1, e2, e3 = effect(I=[1]), effect(U=[(1, "c")]), effect(D=[1])
        assert e1.compose(e2).compose(e3) == e1.compose(e2.compose(e3))
        assert e1.compose(e2).compose(e3).is_empty()

    def test_composition_preserves_well_formedness(self):
        e1 = effect(I=[1], U=[(2, "c")])
        e2 = effect(D=[2], U=[(1, "c"), (3, "d")])
        assert e1.compose(e2).is_well_formed()

    def test_or_operator_is_compose(self):
        e1, e2 = effect(I=[1]), effect(D=[1])
        assert (e1 | e2) == e1.compose(e2)

    def test_compose_all(self):
        parts = [effect(I=[1]), effect(U=[(1, "c")]), effect(I=[2]), effect(D=[2])]
        assert compose_all(parts) == effect(I=[1])


class TestSelectedComposition:
    """Our documented choice for the §5.1 S component: S = (S1 ∪ S2) − D,
    D the composite's net deletions."""

    def test_select_then_delete_drops(self):
        composed = effect(S=[(1, "c")]).compose(effect(D=[1]))
        assert composed.selected == frozenset()

    def test_select_of_inserted_kept(self):
        composed = effect(I=[1]).compose(effect(S=[(1, "c")]))
        assert composed.selected == {(1, "c")}

    def test_selects_union(self):
        composed = effect(S=[(1, "a")]).compose(effect(S=[(2, "b")]))
        assert composed.selected == {(1, "a"), (2, "b")}


class TestFromOpEffects:
    def test_insert_base_case(self):
        op = InsertEffect("t", (1, 2))
        assert base(op) == effect(I=[1, 2])

    def test_delete_base_case(self):
        op = DeleteEffect("t", ((1, ("a",)), (2, ("b",))))
        assert base(op) == effect(D=[1, 2], pre={1: ("a",), 2: ("b",)})

    def test_update_base_case_expands_columns(self):
        op = UpdateEffect("t", ("a", "b"), ((1, ("x",)),))
        assert base(op) == effect(U=[(1, "a"), (1, "b")], pre={1: ("x",)})

    def test_select_base_case(self):
        op = SelectEffect((("t", 1, ("a", "b")),))
        assert base(op) == effect(S=[(1, "a"), (1, "b")])

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            base(object())

    def test_from_op_effects_folds(self):
        ops = [
            InsertEffect("t", (1,)),
            UpdateEffect("t", ("c",), ((1, ("x",)), (2, ("y",)))),
            DeleteEffect("t", ((2, ("y",)),)),
        ]
        # insert 1; update 1 and 2; delete 2
        # net: inserted {1} (its update folds in), deleted {2} (its update
        # drops), nothing in U
        assert TransitionEffect.from_op_effects(ops) == effect(
            I=[1], D=[2], pre={2: ("y",)}
        )
