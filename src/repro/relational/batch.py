"""Column batches: the unit of vectorized execution.

A :class:`Batch` is a selection over columnar storage — a tuple of
slot-indexed column lists plus a *selection vector* (``sel``) of slot
positions in scan order. Batch kernels (see
:mod:`repro.relational.compiled`) evaluate expressions column-at-a-time
over a selection vector instead of row-at-a-time over tuples; predicates
narrow ``sel``, projections gather column slices, join keys gather key
columns.

Batches over base tables share the table's live column lists (zero
copy); slot positions are only meaningful until the next mutation of
the underlying table (a delete may trigger compaction, renumbering
slots), so a selection vector must never be held across mutations —
identification always completes before modification, matching the
engine's identify-then-mutate discipline.

There is no row view beside the columns: a row is built on demand, and
:meth:`Batch.rows` builds a whole selection's rows in one gather.
Transient batches (transition-table pre-images, deleted rows) transpose
a row list once via :meth:`Batch.from_rows`.

A :class:`JoinedBatch` is what a columnar hash join emits: the input
batches' storage side by side, one slot vector per binding aligned by
output position, and a selection of positions — no row tuples and no
combinations.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any


class Batch:
    """A selection of rows over columnar storage.

    Attributes:
        cols: tuple of slot-indexed column sequences (one per schema
            column). Shared with the owning table for base-table batches.
        sel: list of slot positions, in scan (ascending handle) order
            for full scans, in the requested order otherwise.
        handles: slot-indexed handle sequence, or ``None`` for transient
            batches that have no tuple identity (transition pre-images).
        label: the base table's name (for touched-handle bookkeeping),
            or ``None`` for transient batches.
        zones: the owning table's per-column zone maps (see
            :mod:`repro.relational.stats`), or ``None`` for transient
            batches — zone-map pruning only applies to base-table
            storage, whose zones are maintained by the same mutators
            that invalidate selection vectors.
        ordered: True when ``sel`` is ascending (scan order). Zone
            pruning's contiguous fast path rebuilds the selection from
            zone ranges, which is only order-preserving for ascending
            selections — index lookups (handle order) must say False.
    """

    __slots__ = ("cols", "sel", "handles", "label", "zones", "ordered")

    def __init__(self, cols: Sequence[Sequence[Any]], sel: list[int],
                 handles: Sequence[int] | None = None,
                 label: str | None = None, zones: Any = None,
                 ordered: bool = False) -> None:
        self.cols = cols
        self.sel = sel
        self.handles = handles
        self.label = label
        self.zones = zones
        self.ordered = ordered

    def __len__(self) -> int:
        return len(self.sel)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[Any, ...]], arity: int,
                  label: str | None = None) -> Batch:
        """A transient batch transposing ``rows`` (a list of value
        tuples); ``arity`` disambiguates the empty case."""
        cols: tuple[list[Any], ...]
        if rows:
            cols = tuple(list(column) for column in zip(*rows))
        else:
            cols = tuple([] for _ in range(arity))
        return cls(cols, list(range(len(rows))), label=label, ordered=True)

    def with_sel(self, sel: list[int]) -> Batch:
        """The same storage narrowed to a new selection vector (a
        subsequence of the current one, so ascent is preserved)."""
        return Batch(self.cols, sel, self.handles, self.label, self.zones,
                     self.ordered)

    def unlabeled(self) -> Batch:
        """The same selection with touched-handle attribution stripped —
        used for transition-table views over live base storage."""
        return Batch(self.cols, self.sel, self.handles, None, self.zones,
                     self.ordered)

    def row(self, slot: int) -> tuple[Any, ...]:
        """The value tuple at ``slot``."""
        return tuple([column[slot] for column in self.cols])

    def rows(self) -> list[tuple[Any, ...]]:
        """The selected rows as value tuples, in selection order."""
        return gather_rows(self.cols, self.sel)

    def handle(self, slot: int) -> int:
        """The handle at ``slot`` (base-table batches only)."""
        if self.handles is None:
            raise TypeError("a transient batch has no tuple handles")
        return self.handles[slot]

    #: as for a JoinedBatch: kernels read a single binding's columns
    slots = None

    @property
    def parts(self) -> tuple[Batch, ...]:
        return (self,)

    def row_tuples(self, slot: int) -> tuple[tuple[Any, ...], ...]:
        """The rows behind one selected entry, one per binding."""
        return (self.row(slot),)


class JoinedBatch:
    """A join's output over several bindings' storage.

    Attributes:
        parts: one :class:`Batch` per binding, in binding order; only
            its ``cols``, ``handles`` and ``label`` are read.
        slots: per binding, the storage slot behind each output
            position (``slots[b][p]``).
        sel: the selected output positions, ascending.
    """

    __slots__ = ("parts", "slots", "sel")

    #: zone maps describe one table's storage, never a join's output
    zones = None

    def __init__(self, parts: Sequence[Batch], slots: Sequence[Sequence[int]],
                 sel: Sequence[int]) -> None:
        self.parts = tuple(parts)
        self.slots = tuple(slots)
        self.sel = sel

    @property
    def cols(self) -> tuple[Sequence[Sequence[Any]], ...]:
        """Per binding, its slot-indexed column sequences."""
        return tuple(part.cols for part in self.parts)

    def with_sel(self, sel: Sequence[int]) -> JoinedBatch:
        return JoinedBatch(self.parts, self.slots, sel)

    def row_tuples(self, position: int) -> tuple[tuple[Any, ...], ...]:
        """The rows one output position combines, one per binding."""
        return tuple(
            part.row(slots[position])
            for part, slots in zip(self.parts, self.slots)
        )


def entry_pairs(batch: Batch | JoinedBatch
                ) -> Iterator[tuple[tuple[str, int] | None, ...]]:
    """Per selected entry, one ``(table, handle)`` per binding — None for
    a binding with no tuple identity (a transient batch, or a transition
    view, whose members are not retrieved tuples): the row path's
    per-combination ``pairs``."""
    specs = [
        None if part.handles is None or part.label is None
        else (part.label, part.handles, slots)
        for part, slots in zip(batch.parts, batch.slots or (None,))
    ]
    for entry in batch.sel:
        yield tuple(
            None if spec is None
            else (spec[0], spec[1][entry if spec[2] is None
                                   else spec[2][entry]])
            for spec in specs
        )


def gather_rows(cols: Sequence[Sequence[Any]],
                slots: Sequence[int]) -> list[tuple[Any, ...]]:
    """The rows at ``slots`` of column-wise storage, built column by
    column in one pass each (no per-row Python loop)."""
    return list(zip(*[map(column.__getitem__, slots) for column in cols]))
