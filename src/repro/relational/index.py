"""Sorted indexes over single columns.

The paper's semantics never mention physical design — indexes are pure
substrate engineering, here to make the reproduction usable at realistic
scale (and to demonstrate, per §1, that ordinary relational optimization
"is directly applicable to the rules themselves": rule conditions and
actions go through the same access paths as user queries).

An index is two aligned vectors: the indexed column's values, sorted by
(value, handle), and an ``array('q')`` of their handles. The values are
the column's own objects, so an entry costs a list slot and eight bytes
of handle — there is no per-key container. A column is typed, so its
values are one comparable kind; equal values form one *run*, and a
lookup is two bisections returning the run's handles in ascending order.

NULL and NaN are not indexed: SQL ``=`` matches neither (NaN equals
nothing, itself included), and the full predicate always re-runs on an
index's candidates. Maintenance is wired into
:class:`repro.relational.table.Table`'s three set mutators, so
transaction undo (which replays through the same mutators) keeps indexes
consistent automatically.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from itertools import islice, repeat
from operator import ne
from typing import Any

from ..errors import CatalogError


class SortedIndex:
    """An equality index on one column of one table."""

    def __init__(self, name: str, table_name: str, column: str,
                 position: int) -> None:
        self.name = name
        self.table_name = table_name
        self.column = column
        self.position = position
        #: the column's non-NULL, non-NaN values, sorted by (value, handle)
        self._keys: list[Any] = []
        #: the handle of each entry of ``_keys``
        self._handles = array("q")

    # -- maintenance (called by the Table set mutators) -------------------
    #
    # Each call takes distinct handles and the aligned values of the
    # indexed column. A call touching m of n entries bisects O(m log n)
    # and then rewrites the vectors in at most one pass.

    def insert_many(self, handles: Sequence[int],
                    values: Sequence[Any]) -> None:
        self._change((), (), handles, values)

    def delete_many(self, handles: Sequence[int],
                    values: Sequence[Any]) -> None:
        self._change(handles, values, (), ())

    def assign_many(self, handles: Sequence[int], old_values: Sequence[Any],
                    new_values: Sequence[Any]) -> None:
        moved = [at for at, old in enumerate(old_values)
                 if old != new_values[at]]
        if moved:
            handles = [handles[at] for at in moved]
            self._change(handles, [old_values[at] for at in moved],
                         handles, [new_values[at] for at in moved])

    def _position(self, value: Any, handle: int) -> int:
        """Where the entry (``value``, ``handle``) is, or would go."""
        keys, stored = self._keys, self._handles
        high = bisect_right(keys, value)
        if not high or keys[high - 1] != value or stored[high - 1] < handle:
            return high
        if stored[high - 1] == handle:  # the last of its run
            return high - 1
        low = bisect_left(keys, value, 0, high)
        return bisect_left(stored, handle, low, high)

    def _change(self, old_handles: Sequence[int], old_values: Sequence[Any],
                new_handles: Sequence[int],
                new_values: Sequence[Any]) -> None:
        """Remove the entries of ``old_handles`` and add those of
        ``new_handles``, each with its aligned value."""
        keys, stored = self._keys, self._handles
        drops: list[int] = []
        for handle, value in zip(old_handles, old_values):
            if value is not None and value == value:
                at = self._position(value, handle)
                if at < len(stored) and stored[at] == handle:
                    drops.append(at)
        order = [at for at, value in enumerate(new_values)
                 if value is not None and value == value]
        order.sort(key=new_handles.__getitem__)
        order.sort(key=new_values.__getitem__)
        added = [new_values[at] for at in order]
        handles = [new_handles[at] for at in order]
        places = list(map(self._position, added, handles))
        if not drops and places and places[0] == len(keys):
            keys += added  # all past every entry: an append
            stored.extend(handles)
        elif not drops and len(places) == 1:  # a C memmove
            keys.insert(places[0], added[0])
            stored.insert(places[0], handles[0])
        elif not places and len(drops) == 1:
            del keys[drops[0]]
            del stored[drops[0]]
        elif drops or places:
            self._splice(drops, places, added, handles)

    def _splice(self, drops: list[int], places: list[int], added: list[Any],
                handles: list[int]) -> None:
        """Rebuild both vectors in one pass, dropping the entries at
        positions ``drops`` and inserting each ``added`` value with its
        handle before the entry at its ``places`` (positions in the
        vectors as they were; an insertion precedes a drop there)."""
        keys, stored = self._keys, self._handles
        new_keys: list[Any] = []
        new_handles = array("q")
        start = 0
        count = len(added)
        events: Iterable[tuple[int, int]] = zip(places, range(count))
        if drops:  # insertions ascend already; merge in the drops
            events = sorted([*events, *zip(drops, repeat(count))])
        for at, which in events:
            new_keys += keys[start:at]
            new_handles += stored[start:at]
            if which < count:
                new_keys.append(added[which])
                new_handles.append(handles[which])
                start = at
            else:
                start = at + 1
        new_keys += keys[start:]
        new_handles += stored[start:]
        self._keys, self._handles = new_keys, new_handles

    def build(self, handles: Sequence[int], values: Sequence[Any],
              slots: Iterable[int]) -> None:
        """(Re)build from a table's storage: its slot ``handles``, the
        indexed column's slot ``values`` and the live ``slots``,
        ascending. Sorting the slots by value is stable, so equal values
        keep ascending handle order."""
        order = [slot for slot in slots
                 if (value := values[slot]) is not None and value == value]
        order.sort(key=values.__getitem__)
        self._keys = list(map(values.__getitem__, order))
        self._handles = array("q", map(handles.__getitem__, order))

    # -- lookup -----------------------------------------------------------

    def _run(self, value: Any) -> tuple[int, int]:
        """The entries equal to ``value``: ``(low, high)``. A NULL or
        NaN probe, or one of another kind than the column's (a string
        into a numeric column), is equal to none."""
        if value is None or value != value:
            return 0, 0
        keys = self._keys
        try:
            low = bisect_left(keys, value)
        except TypeError:
            return 0, 0
        if low == len(keys) or keys[low] != value:
            return 0, 0
        if low + 1 == len(keys) or keys[low + 1] != value:
            return low, low + 1  # a unique value: no second bisection
        return low, bisect_right(keys, value, low + 2)

    def lookup(self, value: Any) -> list[int]:
        """Live handles whose indexed column equals ``value``,
        ascending (a fresh list)."""
        low, high = self._run(value)
        return self._handles[low:high].tolist()

    @property
    def key_count(self) -> int:
        """Distinct indexed values: the column's distinct non-NULL,
        non-NaN values (counted on demand, one pass)."""
        keys = self._keys
        return sum(map(ne, keys, islice(keys, 1, None))) + bool(keys)

    def buckets(self) -> dict[Any, set[int]]:
        """``{value: handles}`` for every indexed value (a copy)."""
        buckets: dict[Any, set[int]] = {}
        for value, handle in zip(self._keys, self._handles):
            buckets.setdefault(value, set()).add(handle)
        return buckets

    def __repr__(self) -> str:
        return (
            f"SortedIndex({self.name}: {self.table_name}.{self.column}, "
            f"{self.key_count} keys)"
        )


class IndexRegistry:
    """All indexes of one database, by name and by (table, column)."""

    def __init__(self) -> None:
        self._by_name: dict[str, SortedIndex] = {}

    def add(self, index: SortedIndex) -> None:
        if index.name in self._by_name:
            raise CatalogError(f"index {index.name!r} already exists")
        self._by_name[index.name] = index

    def drop(self, name: str) -> SortedIndex:
        index = self._by_name.pop(name, None)
        if index is None:
            raise CatalogError(f"index {name!r} does not exist")
        return index

    def get(self, name: str) -> SortedIndex:
        index = self._by_name.get(name)
        if index is None:
            raise CatalogError(f"index {name!r} does not exist")
        return index

    def names(self) -> list[str]:
        return list(self._by_name)

    def drop_for_table(self, table_name: str) -> list[str]:
        """Remove all indexes of a dropped table; returns their names."""
        doomed = [
            name
            for name, index in self._by_name.items()
            if index.table_name == table_name
        ]
        for name in doomed:
            del self._by_name[name]
        return doomed
