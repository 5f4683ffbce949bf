"""Unit tests for Figure 1's trans-info: one transition's net effect
folded from its operations, and the transaction's log of them with one
cursor per rule (:class:`repro.core.effects.TransitionLog`)."""

import sys

import pytest

from repro.core.effects import TransitionEffect, TransitionLog
from repro.relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)


ROW_V0 = ("a", 1, 10.0)
ROW_V1 = ("a", 1, 20.0)
ROW_V2 = ("a", 1, 30.0)


def fold(*ops):
    return TransitionEffect.from_op_effects(ops)


class TestInitTransInfo:
    def test_insert(self):
        part = fold(InsertEffect("t", (1, 2))).tables["t"]
        assert part.inserted == {1, 2}
        assert not part.deleted and not part.updated

    def test_delete_records_values(self):
        part = fold(DeleteEffect("t", ((1, ROW_V0),))).tables["t"]
        assert part.deleted == {1}
        assert part.pre == {1: ROW_V0}

    def test_update_records_pre_image_and_columns(self):
        part = fold(UpdateEffect("t", ("salary",), ((1, ROW_V0),))).tables["t"]
        assert part.updated == {1: {"salary"}}
        assert part.pre == {1: ROW_V0}

    def test_empty(self):
        assert TransitionLog(["r"]).info("r").is_empty()


class TestModifyTransInfo:
    """The Figure 1 modify-trans-info cases."""

    def test_insert_then_delete_forgotten(self):
        effect = fold(InsertEffect("t", (1,)), DeleteEffect("t", ((1, ROW_V0),)))
        assert effect.is_empty()
        assert effect.tables["t"].pre == {}

    def test_insert_then_update_stays_insert(self):
        part = fold(
            InsertEffect("t", (1,)),
            UpdateEffect("t", ("salary",), ((1, ROW_V0),)),
        ).tables["t"]
        assert part.inserted == {1}
        assert not part.updated

    def test_update_then_delete_keeps_original_pre_image(self):
        """Figure 1's get-old-value: a tuple updated (v0 -> v1) then
        deleted keeps its *baseline* value v0 as its pre-image, and its U
        entry is dropped."""
        part = fold(
            UpdateEffect("t", ("salary",), ((1, ROW_V0),)),
            DeleteEffect("t", ((1, ROW_V1),)),
        ).tables["t"]
        assert part.deleted == {1}
        assert part.deleted_rows() == [ROW_V0]
        assert not part.updated

    def test_repeated_update_keeps_first_pre_image(self):
        part = fold(
            UpdateEffect("t", ("salary",), ((1, ROW_V0),)),
            UpdateEffect("t", ("salary",), ((1, ROW_V1),)),
        ).tables["t"]
        assert part.updated == {1: {"salary"}}
        assert part.pre == {1: ROW_V0}

    def test_second_column_update_shares_baseline(self):
        """All (h, c, v) entries for one handle share one pre-image v."""
        part = fold(
            UpdateEffect("t", ("salary",), ((1, ROW_V0),)),
            UpdateEffect("t", ("name",), ((1, ROW_V1),)),
        ).tables["t"]
        assert part.pre[1] == ROW_V0  # not ROW_V1
        assert part.updated[1] == {"salary", "name"}

    def test_plain_delete(self):
        effect = fold(DeleteEffect("t", ((1, ROW_V0),)))
        effect.apply(InsertEffect("t", (2,)))
        assert effect.tables["t"].deleted_rows() == [ROW_V0]
        assert effect.tables["t"].inserted == {2}

    def test_incremental_equals_batch(self):
        """Logging the operations as four transitions composes to the
        effect of one transition holding all four."""
        ops = [
            InsertEffect("t", (1,)),
            UpdateEffect("t", ("salary",), ((1, ROW_V0), (2, ROW_V0))),
            DeleteEffect("t", ((2, ROW_V1),)),
            InsertEffect("t", (3,)),
        ]
        log = TransitionLog(["r"])
        for op in ops:
            log.append(fold(op))
        assert log.info("r") == fold(*ops)
        assert log.transaction is log.info("r")


class TestToEffect:
    def test_matches_pure_composition(self):
        """Folding operations and composing their base-case effects
        agree — Figure 1 is a correct implementation of Definition 2.1."""
        ops = [
            InsertEffect("t", (1, 2)),
            UpdateEffect("t", ("c",), ((1, ROW_V0), (3, ROW_V0))),
            DeleteEffect("t", ((2, ROW_V0), (3, ROW_V1))),
            InsertEffect("t", (4,)),
            UpdateEffect("t", ("d",), ((4, ROW_V0),)),
        ]
        composed = TransitionEffect()
        for op in ops:
            composed = composed | fold(op)
        assert composed == fold(*ops)
        assert composed.inserted == {1, 4}
        assert composed.deleted == {3}
        assert composed.tables["t"].pre == {3: ROW_V0}

    def test_expands_columns(self):
        effect = fold(UpdateEffect("t", ("a", "b"), ((1, ROW_V0),)))
        assert effect.updated == {(1, "a"), (1, "b")}


class TestCopyIndependence:
    """Rules at different cursors read different compositions, and no
    composition shares a mutable part with a logged transition."""

    def test_copies_do_not_alias(self):
        log = TransitionLog(["early", "late"])
        first = fold(
            InsertEffect("t", (1,)),
            UpdateEffect("t", ("c",), ((2, ROW_V0),)),
        )
        log.append(first)
        log.restart("late")
        log.append(fold(
            DeleteEffect("t", ((2, ROW_V1),)),
            UpdateEffect("t", ("d",), ((3, ROW_V0),)),
        ))
        early, late = log.info("early").tables["t"], log.info("late").tables["t"]
        assert 2 in first.tables["t"].updated  # the logged entry is intact
        assert 2 in early.deleted and early.pre[2] == ROW_V0
        assert 2 in late.deleted and late.pre[2] == ROW_V1
        assert 1 in early.inserted and 1 not in late.inserted

    def test_column_sets_do_not_alias(self):
        log = TransitionLog(["r"])
        first = fold(UpdateEffect("t", ("a",), ((1, ROW_V0),)))
        log.append(first)
        log.append(fold(UpdateEffect("t", ("b",), ((1, ROW_V1),))))
        assert first.tables["t"].updated[1] == {"a"}
        assert log.info("r").tables["t"].updated[1] == {"a", "b"}


class TestRetention:
    def test_a_long_cascade_keeps_only_the_held_compositions(self):
        """The log counts transitions; what it holds is one running
        composition per cursor still held (and cursor 0), never a
        transition's own effect."""
        log = TransitionLog(["early", "late", "gone"])
        for handle in range(1, 201):
            effect = fold(InsertEffect("t", (handle,)))
            references = sys.getrefcount(effect)
            log.append(effect)
            assert sys.getrefcount(effect) == references
            assert set(log._running) == {0, *log.cursors.values()}
            log.restart("late")
            if handle == 100:
                log.restart("gone")
                log.forget("gone")
        assert log.transitions == 200
        assert log.info("early").tables["t"].inserted == set(range(1, 201))
        assert log.info("early") is log.transaction
        assert log.info("late").is_empty()


class TestAccessors:
    """Every read is in ascending handle order."""

    def make(self):
        return fold(
            InsertEffect("t", (9, 1)),
            InsertEffect("u", (2,)),
            DeleteEffect("t", ((7, ROW_V1), (3, ROW_V0))),
            UpdateEffect("t", ("salary",), ((8, ROW_V0), (4, ROW_V0))),
            UpdateEffect("t", ("name",), ((5, ROW_V1),)),
        )

    def test_inserted_handles_filters_table(self):
        effect = self.make()
        assert effect.tables["t"].inserted_handles() == [1, 9]
        assert effect.tables["u"].inserted_handles() == [2]

    def test_deleted_rows(self):
        assert self.make().tables["t"].deleted_rows() == [ROW_V0, ROW_V1]
        assert self.make().tables["u"].deleted_rows() == []

    def test_updated_handles_whole_table(self):
        assert self.make().tables["t"].updated_handles() == [4, 5, 8]

    def test_updated_handles_by_column(self):
        part = self.make().tables["t"]
        assert part.updated_handles("salary") == [4, 8]
        assert part.updated_handles("name") == [5]

    def test_table_of(self):
        assert set(self.make().tables) == {"t", "u"}


class TestSelectTracking:
    def test_select_entries(self):
        effect = fold(SelectEffect((("t", 1, ("a", "b")),)))
        assert effect.selected == {(1, "a"), (1, "b")}
        part = effect.tables["t"]
        assert part.selected_handles() == [1]
        assert part.selected_handles("a") == [1]
        assert part.selected_handles("zzz") == []

    def test_select_then_delete_drops(self):
        effect = fold(
            SelectEffect((("t", 1, ("a",)),)),
            DeleteEffect("t", ((1, ROW_V0),)),
        )
        assert effect.selected == set()

    def test_unknown_op_type_raises(self):
        with pytest.raises(TypeError):
            TransitionEffect().apply(object())
