"""Reference transition bookkeeping, test-only: the per-rule Figure 1
fold (:class:`TransInfo`, one eager copy per rule) and the frozenset
Definition 2.1 effect that :class:`repro.core.effects.TransitionLog`'s
cursors replaced, verbatim minus what no test reads. The differential
``tests/property/test_transition_log_differential.py`` and
``test_effect_composition.py`` hold the new representation to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)


class TransInfo:
    """Figure 1's ``trans-info`` for one rule: ``ins`` handles,
    ``deleted`` handle → baseline row, ``upd`` handle → (baseline row,
    columns), ``sel`` (handle, column) pairs, ``tables`` handle → table."""

    def __init__(self):
        self.ins = set()
        self.deleted = {}
        self.upd = {}
        self.sel = set()
        self.tables = {}

    def apply(self, op_effect):
        if isinstance(op_effect, InsertEffect):
            self._apply_insert(op_effect)
        elif isinstance(op_effect, DeleteEffect):
            self._apply_delete(op_effect)
        elif isinstance(op_effect, UpdateEffect):
            self._apply_update(op_effect)
        elif isinstance(op_effect, SelectEffect):
            self._apply_select(op_effect)
        else:
            raise TypeError(
                f"unknown operation effect {type(op_effect).__name__}"
            )

    def _apply_insert(self, op_effect):
        for handle in op_effect.handles:
            self.ins.add(handle)
            self.tables[handle] = op_effect.table

    def _apply_delete(self, op_effect):
        for handle, old_row in op_effect.entries:
            self.tables.setdefault(handle, op_effect.table)
            if handle in self.ins:
                self.ins.discard(handle)
                continue
            self.deleted[handle] = self._old_value(handle, old_row)
            self.upd.pop(handle, None)
            if self.sel:
                self.sel = {pair for pair in self.sel if pair[0] != handle}

    def _apply_update(self, op_effect):
        for handle, old_row in op_effect.entries:
            self.tables.setdefault(handle, op_effect.table)
            if handle in self.ins:
                continue
            entry = self.upd.get(handle)
            if entry is None:
                self.upd[handle] = (old_row, set(op_effect.columns))
            else:
                entry[1].update(op_effect.columns)

    def _apply_select(self, op_effect):
        for table, handle, columns in op_effect.entries:
            self.tables.setdefault(handle, table)
            for column in columns:
                self.sel.add((handle, column))

    def _old_value(self, handle, current_old_row):
        entry = self.upd.get(handle)
        if entry is not None:
            return entry[0]
        return current_old_row


@dataclass(frozen=True)
class TransitionEffect:
    """``[I, D, U(, S)]`` as frozensets of handles and of
    (handle, column) pairs, composed with ``S = (S1 ∪ S2) − D2``."""

    inserted: frozenset = frozenset()
    deleted: frozenset = frozenset()
    updated: frozenset = frozenset()
    selected: frozenset = frozenset()

    def compose(self, other):
        inserted = (self.inserted | other.inserted) - other.deleted
        deleted = (self.deleted | other.deleted) - self.inserted
        dead_or_new = other.deleted | self.inserted
        updated = frozenset(
            pair
            for pair in (self.updated | other.updated)
            if pair[0] not in dead_or_new
        )
        selected = frozenset(
            pair
            for pair in (self.selected | other.selected)
            if pair[0] not in other.deleted
        )
        return TransitionEffect(inserted, deleted, updated, selected)

    @classmethod
    def from_op_effect(cls, op_effect):
        if isinstance(op_effect, InsertEffect):
            return cls(inserted=frozenset(op_effect.handles))
        if isinstance(op_effect, DeleteEffect):
            return cls(
                deleted=frozenset(handle for handle, _ in op_effect.entries)
            )
        if isinstance(op_effect, UpdateEffect):
            pairs = frozenset(
                (handle, column)
                for handle, _ in op_effect.entries
                for column in op_effect.columns
            )
            return cls(updated=pairs)
        if isinstance(op_effect, SelectEffect):
            pairs = frozenset(
                (handle, column)
                for _, handle, columns in op_effect.entries
                for column in columns
            )
            return cls(selected=pairs)
        raise TypeError(f"unknown operation effect {type(op_effect).__name__}")
