"""System tuple handles (paper Section 2).

"We assume that associated with each tuple is a system tuple handle — a
distinct, non-reusable value identifying the tuple and its containing
table." Handles identify tuples across states: some name live tuples,
others name tuples that existed in a previous state and have since been
deleted. Transition effects ([I, D, U] triples) are sets of handles, so
handle identity is the backbone of the whole rule semantics.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

from ..errors import HandleClaimError


def encode_runs(handles: Iterable[int]) -> list[int]:
    """Ascending distinct handles as flat ``[start, count, ...]`` runs."""
    runs: list[int] = []
    expected: int | None = None
    for handle in handles:
        if handle == expected:
            runs[-1] += 1
        else:
            runs += (handle, 1)
        expected = handle + 1
    return runs


class HandleAllocator:
    """Allocates distinct, non-reusable tuple handles.

    Each handle is a monotonically increasing integer; the allocator also
    records, permanently, which table each handle belongs to (handles of
    deleted tuples keep their table association — transition predicates
    such as ``deleted from t`` need it after the tuple is gone). Handles
    are issued in ascending contiguous blocks, so what is kept is the
    blocks — ``_starts[i] <= handle < _ends[i]`` belongs to table
    ``_names[i]``, neighbouring blocks of one table merged — and a
    lookup is a bisection: memory follows the number of times the
    writing table changed, not the number of handles ever issued.

    Handle allocation is *not* undone on transaction rollback: the paper
    requires handles never be reused, and rolling back the counter could
    hand out an already-seen value.
    """

    def __init__(self) -> None:
        self._next = 1
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._names: list[str] = []

    def allocate(self, table_name: str) -> int:
        """Return a fresh handle associated with ``table_name``."""
        return self.allocate_many(table_name, 1)[0]

    def allocate_many(self, table_name: str, count: int) -> list[int]:
        """Issue ``count`` fresh handles associated with ``table_name``;
        returns them as an ascending list, every one larger than any
        handle issued before — so storing them is an append (see
        :mod:`repro.relational.table`)."""
        handles = list(range(self._next, self._next + count))
        self._record(self._next, count, table_name)
        self._next += count
        return handles

    def restore(self, handles: Iterable[int], table_name: str) -> None:
        """Re-register handles from durable state (crash recovery).

        The allocator resumes past them, so handles stay non-reusable
        across system lifetimes, not just within one.

        Raises:
            HandleClaimError: before recording any of them, if one is
                already recorded — for another table, or for this one.
        """
        runs = encode_runs(sorted(handles))
        blocks = list(zip(runs[::2], runs[1::2]))
        for start, count in blocks:
            claimed = self._claimed(start, start + count)
            if claimed is not None:
                handle, owner = claimed
                raise HandleClaimError(
                    f"handle {handle} claimed by table {table_name!r} "
                    f"already belongs to table {owner!r}"
                )
        for start, count in blocks:
            self._record(start, count, table_name)
        if runs:
            self.advance_past(runs[-2] + runs[-1] - 1)

    def _claimed(self, start: int, end: int) -> tuple[int, str] | None:
        """The first recorded handle in ``start .. end - 1`` and its
        table, or None: a bisection to the blocks either side."""
        starts = self._starts
        at = bisect_right(starts, start)
        if at and self._ends[at - 1] > start:
            return start, self._names[at - 1]
        if at < len(starts) and starts[at] < end:
            return starts[at], self._names[at]
        return None

    def _record(self, start: int, count: int, table_name: str) -> None:
        """Note that ``start .. start + count - 1`` belong to
        ``table_name``, merging with the blocks on either side."""
        starts, ends, names = self._starts, self._ends, self._names
        end = start + count
        at = bisect_right(starts, start)
        if at and ends[at - 1] == start and names[at - 1] == table_name:
            at -= 1
            ends[at] = end
        else:
            starts.insert(at, start)
            ends.insert(at, end)
            names.insert(at, table_name)
        after = at + 1
        if (after < len(starts) and starts[after] == end
                and names[after] == table_name):
            ends[at] = ends[after]
            del starts[after], ends[after], names[after]

    def advance_past(self, handle: int) -> None:
        """Ensure future allocations exceed ``handle`` (recovery uses
        this with the WAL's recorded high-water mark, which may sit above
        any live tuple when a committed transaction deleted its newest
        inserts)."""
        if handle >= self._next:
            self._next = handle + 1

    def table_of(self, handle: int) -> str:
        """The table a handle belongs(/belonged) to.

        Raises:
            KeyError: for a handle this allocator never issued.
        """
        at = bisect_right(self._starts, handle) - 1
        if at < 0 or handle >= self._ends[at]:
            raise KeyError(handle)
        return self._names[at]

    def blocks(self) -> list[tuple[int, int, str]]:
        """``(start, end, table)`` per allocation block, ascending: the
        handles ``start .. end - 1`` belong to ``table``."""
        return list(zip(self._starts, self._ends, self._names))

    def knows(self, handle: int) -> bool:
        """True if this allocator issued ``handle``."""
        at = bisect_right(self._starts, handle) - 1
        return at >= 0 and handle < self._ends[at]

    @property
    def issued_count(self) -> int:
        """How many handles have been issued so far."""
        return self._next - 1
