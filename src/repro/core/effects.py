"""Transition effects, their composition, and a transaction's log of them
(paper Sections 2.2 and 4, Figure 1).

The *effect* of a transition is a triple ``[I, D, U]``:

* ``I`` — handles of tuples inserted by the transition (and not
  subsequently deleted within it);
* ``D`` — handles of tuples deleted by the transition that existed before
  it began;
* ``U`` — (handle, column) pairs for tuples updated by the transition
  that existed before it and were not subsequently deleted.

Because the triple represents the *net* effect, a handle appears in at
most one of the three sets. Definition 2.1 gives the composition
operator ``⊕`` for treating two consecutive transitions as one:

* ``I = (I1 ∪ I2) − D2``
* ``D = (D1 ∪ D2) − I1``
* ``U = (U1 ∪ U2) − (D2 ∪ I1)`` — with the set difference applied
  handle-wise to the (handle, column) pairs.

With the Section 5.1 extension enabled, effects also carry an ``S``
component of (handle, column) pairs for retrieved data. The paper leaves
``S``'s composition open; we adopt ``S = (S1 ∪ S2) − D``, with ``D`` the
composite's own net deletions: a read of a tuple the composite deleted is
dropped, reads of tuples it inserted are kept (DESIGN.md records the
choice). ``S1 ∪ S2`` is what is stored and ``D`` is subtracted when ``S``
is read, which keeps ``⊕`` associative.

An effect is kept per table (:class:`TableEffect`), and each table's part
also carries the pre-image row of every ``D ∪ U`` handle: the row before
the first operation of the composite that touched it — Figure 1's
``get-old-value`` — so under ``⊕`` the earlier pre-image wins. That is
all a rule's transition tables need. Every read is in ascending handle
order, which is storage's scan order.

Figure 1 keeps one ``trans-info`` per rule, starting where the rule's
action last executed. Since ``⊕`` is associative, that is ``⊕`` of the
transaction's transitions from the rule's baseline on: a
:class:`TransitionLog` nets each transition once, holds one cursor per
rule and one running composition per distinct cursor.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..relational.dml import (
    DeleteEffect,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)

Row = tuple[Any, ...]
Columns = frozenset[str]


class TableEffect:
    """One table's part of an effect: ``I`` and ``D`` as handle sets,
    ``U`` as handle → columns, ``pre``, the pre-image of each ``D ∪ U``
    handle, and ``selected``, every read since the baseline as handle →
    columns — the §5.1 ``S`` is :meth:`reads`."""

    __slots__ = ("inserted", "deleted", "updated", "selected", "pre")

    def __init__(self, inserted: Iterable[int] = (),
                 deleted: Iterable[int] = (),
                 updated: dict[int, Columns] | None = None,
                 selected: dict[int, Columns] | None = None,
                 pre: dict[int, Row] | None = None):
        self.inserted = set(inserted)
        self.deleted = set(deleted)
        self.updated: dict[int, Columns] = dict(updated) if updated else {}
        self.selected: dict[int, Columns] = dict(selected) if selected else {}
        self.pre: dict[int, Row] = dict(pre) if pre else {}

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted or self.updated
                    or self.selected)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableEffect):
            return NotImplemented
        return (self.inserted == other.inserted
                and self.deleted == other.deleted
                and self.updated == other.updated
                and self.reads() == other.reads()
                and self.pre == other.pre)

    # -- Figure 1's modify-trans-info, one kind of entry at a time ---------

    def delete(self, entries: Iterable[tuple[int, Row | None]]) -> None:
        """Fold in deletions of ``(handle, row before it)``: a handle
        inserted within this composite is forgotten; any other becomes
        net-deleted, keeping its earliest pre-image, and leaves U."""
        inserted, deleted, updated, pre = (
            self.inserted, self.deleted, self.updated, self.pre)
        for handle, row in entries:
            if handle in inserted:
                inserted.discard(handle)
                continue
            deleted.add(handle)
            if updated.pop(handle, None) is None and row is not None:
                pre[handle] = row

    def update(self, entries: Iterable[tuple[int, Columns, Row | None]]
               ) -> None:
        """Fold in updates of ``(handle, columns, row before it)``; an
        update of a tuple inserted within this composite is part of its
        insertion."""
        inserted, updated, pre = self.inserted, self.updated, self.pre
        for handle, columns, row in entries:
            if handle in inserted:
                continue
            current = updated.get(handle)
            if current is None:
                updated[handle] = columns
                if row is not None:
                    pre[handle] = row
            elif not columns <= current:
                updated[handle] = current | columns

    def select(self, entries: Iterable[tuple[int, Columns]]) -> None:
        selected = self.selected
        for handle, columns in entries:
            current = selected.get(handle)
            selected[handle] = columns if current is None else current | columns

    def extend(self, other: TableEffect) -> None:
        """``self := self ⊕ other`` (Definition 2.1), in place."""
        pre = other.pre.get
        self.delete((handle, pre(handle)) for handle in other.deleted)
        self.inserted |= other.inserted
        self.update(
            (handle, columns, pre(handle))
            for handle, columns in other.updated.items()
        )
        self.select(other.selected.items())

    # -- reads, ascending handle order ----------------------------------

    def inserted_handles(self) -> list[int]:
        return sorted(self.inserted)

    def deleted_rows(self) -> list[Row]:
        """Pre-images of the net-deleted tuples."""
        pre = self.pre
        return [pre[handle] for handle in sorted(self.deleted)]

    def updated_handles(self, column: str | None = None) -> list[int]:
        """Net-updated handles (of those whose ``column`` was updated)."""
        if column is None:
            return sorted(self.updated)
        updated = self.updated
        return sorted(
            handle for handle in updated if column in updated[handle]
        )

    def reads(self) -> dict[int, Columns]:
        """``S``: the reads of handles this composite did not delete."""
        deleted = self.deleted
        if not deleted:
            return self.selected
        return {handle: columns for handle, columns in self.selected.items()
                if handle not in deleted}

    def selected_handles(self, column: str | None = None) -> list[int]:
        reads = self.reads()
        return sorted(
            handle for handle in reads
            if column is None or column in reads[handle]
        )


class TransitionEffect:
    """The net effect of a transition: the paper's ``[I, D, U]`` triple
    plus the optional §5.1 ``S`` component, as ``tables``, one
    :class:`TableEffect` per table it touched.

    The flat views ``inserted`` / ``deleted`` (handles) and ``updated`` /
    ``selected`` ((handle, column) pairs) are built on demand.
    ``version`` counts the in-place changes (:meth:`apply`,
    :meth:`extend`): rows cached from this effect's transition tables
    are current while it stands still.
    """

    __slots__ = ("tables", "version")

    def __init__(self, tables: dict[str, TableEffect] | None = None):
        self.tables = {} if tables is None else tables
        self.version = 0

    @classmethod
    def from_op_effects(cls, op_effects: Iterable[object]
                        ) -> TransitionEffect:
        """``E(B) = E(op1) ⊕ ... ⊕ E(opn)`` for a block's operation
        effects (paper §2.2: an insert op is ``[A(op), ∅, ∅]``, a delete
        ``[∅, A(op), ∅]``, an update ``[∅, ∅, A(op)]``), folded in place."""
        effect = cls()
        for op_effect in op_effects:
            effect.apply(op_effect)
        return effect

    def _part(self, table: str) -> TableEffect:
        part = self.tables.get(table)
        if part is None:
            part = self.tables[table] = TableEffect()
        return part

    def apply(self, op_effect: object) -> None:
        """``self := self ⊕ E(op)`` for one executed operation."""
        self.version += 1
        if isinstance(op_effect, InsertEffect):
            self._part(op_effect.table).inserted.update(op_effect.handles)
        elif isinstance(op_effect, DeleteEffect):
            self._part(op_effect.table).delete(op_effect.entries)
        elif isinstance(op_effect, UpdateEffect):
            columns = frozenset(op_effect.columns)
            self._part(op_effect.table).update(
                (handle, columns, row) for handle, row in op_effect.entries
            )
        elif isinstance(op_effect, SelectEffect):
            for table, handle, columns in op_effect.entries:
                self._part(table).select(((handle, frozenset(columns)),))
        else:
            raise TypeError(
                f"unknown operation effect {type(op_effect).__name__}"
            )

    def extend(self, other: TransitionEffect) -> TransitionEffect:
        """``self := self ⊕ other``, in place; returns ``self``. Never
        shares a mutable part with ``other``."""
        self.version += 1
        tables = self.tables
        for name, part in other.tables.items():
            mine = tables.get(name)
            if mine is None:
                tables[name] = TableEffect(part.inserted, part.deleted,
                                           part.updated, part.selected, part.pre)
            else:
                mine.extend(part)
        return self

    def compose(self, other: TransitionEffect) -> TransitionEffect:
        """Definition 2.1: the effect of this transition followed by
        ``other``, treated as a single indivisible transition."""
        return TransitionEffect().extend(self).extend(other)

    def __or__(self, other: TransitionEffect) -> TransitionEffect:
        """``e1 | e2`` is shorthand for ``e1.compose(e2)``."""
        return self.compose(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionEffect):
            return NotImplemented
        return self._touched() == other._touched()

    def _touched(self) -> dict[str, TableEffect]:
        return {name: part for name, part in self.tables.items() if part}

    # -- flat views ------------------------------------------------------

    @property
    def inserted(self) -> frozenset[int]:
        return frozenset(h for p in self.tables.values() for h in p.inserted)

    @property
    def deleted(self) -> frozenset[int]:
        return frozenset(h for p in self.tables.values() for h in p.deleted)

    @property
    def updated(self) -> frozenset[tuple[int, str]]:
        return _pairs(part.updated for part in self.tables.values())

    @property
    def selected(self) -> frozenset[tuple[int, str]]:
        return _pairs(part.reads() for part in self.tables.values())

    def counts(self) -> tuple[int, int, int, int]:
        """``(|I|, |D|, |U| in handles, |S| in pairs)``."""
        inserted = deleted = updated = selected = 0
        for part in self.tables.values():
            inserted += len(part.inserted)
            deleted += len(part.deleted)
            updated += len(part.updated)
            if part.selected:
                selected += sum(map(len, part.reads().values()))
        return inserted, deleted, updated, selected

    def size(self) -> int:
        """Tracked entries — handles in I, D and U plus pairs in S — the
        observability layer's measure of a rule's trans-info."""
        return sum(self.counts())

    def is_empty(self) -> bool:
        """True when all components are empty (no rule can be triggered —
        §4.2: "If all three sets in E1 are empty, then no rules can be
        triggered and step 2 is trivial")."""
        return not any(self.tables.values())

    def is_well_formed(self) -> bool:
        """Check the net-effect invariant: a handle appears in at most one
        of I, D, U (the paper's observation after Definition 2.1)."""
        return all(
            part.inserted.isdisjoint(part.deleted)
            and part.inserted.isdisjoint(part.updated)
            and part.deleted.isdisjoint(part.updated)
            for part in self.tables.values()
        )

    def summary(self) -> str:
        """Compact human-readable description, for traces and logs."""
        updated = sum(
            len(columns) for part in self.tables.values()
            for columns in part.updated.values()
        )
        inserted, deleted, _, selected = self.counts()
        return (
            f"[I:{inserted} D:{deleted} U:{updated}"
            + (f" S:{selected}" if selected else "")
            + "]"
        )


def _pairs(maps: Iterable[dict[int, Columns]]) -> frozenset[tuple[int, str]]:
    return frozenset(
        (handle, column)
        for columns_of in maps
        for handle, columns in columns_of.items()
        for column in columns
    )


def compose_all(effects: Iterable[TransitionEffect]) -> TransitionEffect:
    """Fold ``⊕`` over a sequence of effects (associative, Definition 2.1)."""
    result = TransitionEffect()
    for effect in effects:
        result.extend(effect)
    return result


class TransitionLog:
    """One transaction's transitions and every rule's baseline in them.

    ``transitions`` counts the transitions appended so far, and a
    cursor is such a count. A rule's trans-info is ``⊕`` of the
    transitions from ``cursors[rule]`` on; one running composition is
    kept per distinct cursor, so rules with the same baseline share it,
    and a transition's own effect is not kept once every running
    composition has taken it in. Cursor 0 is always kept: it is the
    whole transaction's effect.

    The footnote-8 resets — execution, consideration, triggering — and a
    rule defined mid-transaction are all :meth:`restart`: a cursor move.
    """

    __slots__ = ("transitions", "cursors", "_running")

    def __init__(self, names: Iterable[str] = ()):
        self.transitions = 0
        self.cursors: dict[str, int] = dict.fromkeys(names, 0)
        self._running: dict[int, TransitionEffect] = {0: TransitionEffect()}

    @property
    def transaction(self) -> TransitionEffect:
        """The composite of every transition so far (cursor 0)."""
        return self._running[0]

    def info(self, name: str) -> TransitionEffect:
        """Rule ``name``'s trans-info. Read it, never change it."""
        return self._running[self.cursors[name]]

    def restart(self, name: str) -> None:
        """Move ``name``'s baseline to now: its trans-info is empty until
        the next transition."""
        at = self.transitions
        self.cursors[name] = at
        if at not in self._running:
            self._running[at] = TransitionEffect()

    def forget(self, name: str) -> None:
        self.cursors.pop(name, None)

    def append(self, effect: TransitionEffect) -> None:
        """Log one transition: every running composition takes it in."""
        running = self._running
        held = set(self.cursors.values())
        for at in [at for at in running if at and at not in held]:
            del running[at]
        for composite in running.values():
            composite.extend(effect)
        self.transitions += 1
