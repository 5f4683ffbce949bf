"""Hash indexes over single columns.

The paper's semantics never mention physical design — indexes are pure
substrate engineering, here to make the reproduction usable at realistic
scale (and to demonstrate, per §1, that ordinary relational optimization
"is directly applicable to the rules themselves": rule conditions and
actions go through the same access paths as user queries).

An index maps a column value to the set of live handles holding it.
NULLs are not indexed (SQL equality never matches NULL). Maintenance is
wired into :class:`repro.relational.table.Table`'s three set mutators, so
transaction undo (which replays through the same mutators) keeps indexes
consistent automatically.
"""

from __future__ import annotations

from ..errors import CatalogError


class HashIndex:
    """An equality index on one column of one table."""

    def __init__(self, name, table_name, column, position):
        self.name = name
        self.table_name = table_name
        self.column = column
        self.position = position
        self._entries = {}

    # -- maintenance (called by the Table set mutators) -------------------
    #
    # Each call takes distinct handles and the aligned values of the
    # indexed column.

    def insert_many(self, handles, values):
        entries = self._entries
        for handle, value in zip(handles, values):
            if value is not None:
                bucket = entries.get(value)
                if bucket is None:
                    entries[value] = {handle}
                else:
                    bucket.add(handle)

    def delete_many(self, handles, values):
        entries = self._entries
        for handle, value in zip(handles, values):
            bucket = entries.get(value) if value is not None else None
            if bucket is not None:
                bucket.discard(handle)
                if not bucket:
                    del entries[value]

    def assign_many(self, handles, old_values, new_values):
        moved = [
            triple for triple in zip(handles, old_values, new_values)
            if triple[1] != triple[2]
        ]
        if moved:
            handles, old_values, new_values = zip(*moved)
            self.delete_many(handles, old_values)
            self.insert_many(handles, new_values)

    # -- lookup -----------------------------------------------------------

    def lookup(self, value):
        """Live handles whose indexed column equals ``value`` (a copy)."""
        if value is None:
            return set()
        return set(self._entries.get(value, ()))

    def count(self, value):
        """Exact bucket size for ``value`` without copying the bucket —
        the cost model's cheapest cardinality probe."""
        if value is None:
            return 0
        return len(self._entries.get(value, ()))

    def build(self, handles, values):
        """(Re)build from a table's live handles and the aligned values
        of the indexed column."""
        self._entries = {}
        self.insert_many(handles, values)

    @property
    def key_count(self):
        return len(self._entries)

    def buckets(self):
        """``{value: handles}`` for every indexed value (a copy)."""
        return {value: set(handles) for value, handles in self._entries.items()}

    def __repr__(self):
        return (
            f"HashIndex({self.name}: {self.table_name}.{self.column}, "
            f"{self.key_count} keys)"
        )


class IndexRegistry:
    """All indexes of one database, by name and by (table, column)."""

    def __init__(self):
        self._by_name = {}

    def add(self, index):
        if index.name in self._by_name:
            raise CatalogError(f"index {index.name!r} already exists")
        self._by_name[index.name] = index

    def drop(self, name):
        index = self._by_name.pop(name, None)
        if index is None:
            raise CatalogError(f"index {name!r} does not exist")
        return index

    def get(self, name):
        index = self._by_name.get(name)
        if index is None:
            raise CatalogError(f"index {name!r} does not exist")
        return index

    def names(self):
        return list(self._by_name)

    def drop_for_table(self, table_name):
        """Remove all indexes of a dropped table; returns their names."""
        doomed = [
            name
            for name, index in self._by_name.items()
            if index.table_name == table_name
        ]
        for name in doomed:
            del self._by_name[name]
        return doomed
