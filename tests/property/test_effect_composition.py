"""Property-based tests for Definition 2.1 and the Figure 1 algorithm.

Strategy: generate random *well-formed* operation sequences by simulating
tuple lifecycles (insert fresh handles, update/delete live ones), then
check the paper's algebraic claims on the resulting effects:

* ``⊕`` is associative (the paper asserts this after Definition 2.1);
* the empty effect is a two-sided identity;
* composition preserves the net-effect invariant (a handle appears in at
  most one of I, D, U);
* the per-table effect agrees exactly with the replaced representations
  (``tests/reference/figure1.py``): the Figure 1 ``trans-info`` fold on
  I, D, U, S and pre-images, the frozenset Definition 2.1 composition on
  I, D and U;
* net semantics: I/D/U membership can be predicted from each handle's
  operation history.
"""

from hypothesis import given, settings, strategies as st

from repro.core.effects import TransitionEffect, compose_all
from repro.relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)
from tests.reference import figure1

COLUMNS = ("a", "b", "c")


@st.composite
def op_sequences(draw, max_ops=30, initial_handles=5):
    """A well-formed operation sequence over simulated tuple lifecycles.

    Returns ``(initial, ops)`` where ``initial`` is the set of handles
    live before the sequence and ``ops`` is a list of per-operation
    effect records (one handle each, so groupings can be arbitrary).
    """
    next_handle = initial_handles + 1
    live = set(range(1, initial_handles + 1))
    initial = frozenset(live)
    ops = []
    count = draw(st.integers(min_value=0, max_value=max_ops))
    for step in range(count):
        choices = ["insert"]
        if live:
            choices += ["delete", "update", "select"]
        kind = draw(st.sampled_from(choices))
        # the row value just before the operation, tagged with the step
        # so that a pre-image names the operation it came from
        row = ("row", step)
        if kind == "insert":
            handle = next_handle
            next_handle += 1
            live.add(handle)
            ops.append(InsertEffect("t", (handle,)))
        elif kind == "delete":
            handle = draw(st.sampled_from(sorted(live)))
            live.discard(handle)
            ops.append(DeleteEffect("t", ((handle, row),)))
        else:
            handle = draw(st.sampled_from(sorted(live)))
            column = draw(st.sampled_from(COLUMNS))
            ops.append(
                UpdateEffect("t", (column,), ((handle, row),))
                if kind == "update"
                else SelectEffect((("t", handle, (column,)),))
            )
    return initial, ops


def reference_fold(ops):
    info = figure1.TransInfo()
    for op in ops:
        info.apply(op)
    return info


def pairs(info_upd):
    return {(h, c) for h, (_, columns) in info_upd.items() for c in columns}


def split_points(sequence, a, b):
    """Split a sequence at two cut points into three chunks."""
    a, b = sorted((a % (len(sequence) + 1), b % (len(sequence) + 1)))
    return sequence[:a], sequence[a:b], sequence[b:]


class TestCompositionAlgebra:
    @given(op_sequences(), st.integers(), st.integers())
    @settings(max_examples=200)
    def test_associativity(self, seq, cut_a, cut_b):
        _, ops = seq
        first, second, third = split_points(ops, cut_a, cut_b)
        e1 = TransitionEffect.from_op_effects(first)
        e2 = TransitionEffect.from_op_effects(second)
        e3 = TransitionEffect.from_op_effects(third)
        assert (e1 | e2) | e3 == e1 | (e2 | e3)

    @given(op_sequences())
    @settings(max_examples=100)
    def test_identity(self, seq):
        _, ops = seq
        effect = TransitionEffect.from_op_effects(ops)
        empty = TransitionEffect()
        assert empty | effect == effect
        assert effect | empty == effect

    @given(op_sequences())
    @settings(max_examples=200)
    def test_net_effect_invariant(self, seq):
        _, ops = seq
        assert TransitionEffect.from_op_effects(ops).is_well_formed()

    @given(op_sequences(), st.integers(), st.integers())
    @settings(max_examples=200)
    def test_compose_preserves_well_formedness(self, seq, cut_a, cut_b):
        """Closure: composing well-formed effects (in any grouping, at
        every intermediate step) yields a well-formed effect."""
        _, ops = seq
        running = TransitionEffect()
        for chunk in split_points(ops, cut_a, cut_b):
            effect = TransitionEffect.from_op_effects(chunk)
            assert effect.is_well_formed()
            running = running.compose(effect)
            assert running.is_well_formed()

    @given(op_sequences(), st.integers(), st.integers())
    @settings(max_examples=200)
    def test_any_grouping_equals_full_fold(self, seq, cut_a, cut_b):
        _, ops = seq
        chunks = split_points(ops, cut_a, cut_b)
        grouped = compose_all(
            TransitionEffect.from_op_effects(chunk) for chunk in chunks
        )
        assert grouped == TransitionEffect.from_op_effects(ops)


class TestNetSemantics:
    @given(op_sequences())
    @settings(max_examples=200)
    def test_membership_predicted_by_history(self, seq):
        initial, ops = seq
        effect = TransitionEffect.from_op_effects(ops)

        # replay the history per handle
        inserted_during = set()
        deleted_during = set()
        updated_cols = {}
        for op in ops:
            if isinstance(op, InsertEffect):
                inserted_during.update(op.handles)
            elif isinstance(op, DeleteEffect):
                deleted_during.update(h for h, _ in op.entries)
            elif isinstance(op, UpdateEffect):
                for handle, _ in op.entries:
                    updated_cols.setdefault(handle, set()).update(op.columns)

        for handle in inserted_during:
            if handle in deleted_during:
                # insert-then-delete: vanishes entirely
                assert handle not in effect.inserted
                assert handle not in effect.deleted
            else:
                assert handle in effect.inserted
            assert handle not in {h for h, _ in effect.updated}

        for handle in deleted_during:
            if handle in inserted_during:
                assert handle not in effect.deleted
            else:
                assert handle in effect.deleted
            assert handle not in {h for h, _ in effect.updated}

        for handle, columns in updated_cols.items():
            survived = (
                handle not in deleted_during and handle not in inserted_during
            )
            if survived:
                for column in columns:
                    assert (handle, column) in effect.updated


class TestFigure1Agreement:
    @given(op_sequences())
    @settings(max_examples=200)
    def test_trans_info_equals_composition(self, seq):
        """The per-table effect holds exactly what Figure 1's
        modify-trans-info folds (I, D, U, S and every pre-image), and
        exactly the frozenset Definition 2.1 composite on I, D and U."""
        _, ops = seq
        effect = TransitionEffect.from_op_effects(ops)
        info = reference_fold(ops)
        part = effect.tables.get("t")
        assert effect.inserted == info.ins
        assert effect.deleted == set(info.deleted)
        assert effect.updated == pairs(info.upd)
        assert effect.selected == info.sel
        expected_pre = dict(info.deleted)
        expected_pre.update((h, row) for h, (row, _) in info.upd.items())
        assert (part.pre if part else {}) == expected_pre
        composed = figure1.TransitionEffect()
        for op in ops:
            composed = composed.compose(figure1.TransitionEffect.from_op_effect(op))
        assert (composed.inserted, composed.deleted, composed.updated) == (
            effect.inserted, effect.deleted, effect.updated)

    @given(op_sequences(), st.integers())
    @settings(max_examples=100)
    def test_incremental_application_order_insensitive_to_chunking(
        self, seq, cut
    ):
        _, ops = seq
        position = cut % (len(ops) + 1)
        effect = TransitionEffect.from_op_effects(ops[:position])
        effect.extend(TransitionEffect.from_op_effects(ops[position:]))
        assert effect == TransitionEffect.from_op_effects(ops)

    @given(op_sequences())
    @settings(max_examples=100)
    def test_deleted_values_are_baseline_pre_images(self, seq):
        """A handle updated then deleted must record its value as of the
        first update (the baseline pre-image), per get-old-value."""
        _, ops = seq
        part = TransitionEffect.from_op_effects(ops).tables.get("t")
        first_seen_row = {}
        for op in ops:
            if isinstance(op, (DeleteEffect, UpdateEffect)):
                for handle, row in op.entries:
                    first_seen_row.setdefault(handle, row)
        for handle in part.deleted if part else ():
            assert part.pre[handle] == first_seen_row[handle]
