"""System tuple handles (paper Section 2).

"We assume that associated with each tuple is a system tuple handle — a
distinct, non-reusable value identifying the tuple and its containing
table." Handles identify tuples across states: some name live tuples,
others name tuples that existed in a previous state and have since been
deleted. Transition effects ([I, D, U] triples) are sets of handles, so
handle identity is the backbone of the whole rule semantics.
"""

from __future__ import annotations

from itertools import repeat


class HandleAllocator:
    """Allocates distinct, non-reusable tuple handles.

    Each handle is a monotonically increasing integer; the allocator also
    records, permanently, which table each handle belongs to (handles of
    deleted tuples keep their table association — transition predicates
    such as ``deleted from t`` need it after the tuple is gone).

    Handle allocation is *not* undone on transaction rollback: the paper
    requires handles never be reused, and rolling back the counter could
    hand out an already-seen value.
    """

    def __init__(self):
        self._next = 1
        self._tables = {}

    def allocate(self, table_name):
        """Return a fresh handle associated with ``table_name``."""
        return self.allocate_many(table_name, 1)[0]

    def allocate_many(self, table_name, count):
        """Issue ``count`` fresh handles associated with ``table_name``;
        returns them as an ascending list (whose integers every index
        of the handles then shares)."""
        handles = list(range(self._next, self._next + count))
        self._next += count
        self._tables.update(zip(handles, repeat(table_name)))
        return handles

    def restore(self, handles, table_name):
        """Re-register handles from durable state (crash recovery).

        The allocator resumes past them, so handles stay non-reusable
        across system lifetimes, not just within one.
        """
        self._tables.update(zip(handles, repeat(table_name)))
        self.advance_past(max(handles, default=0))

    def advance_past(self, handle):
        """Ensure future allocations exceed ``handle`` (recovery uses
        this with the WAL's recorded high-water mark, which may sit above
        any live tuple when a committed transaction deleted its newest
        inserts)."""
        if handle >= self._next:
            self._next = handle + 1

    def table_of(self, handle):
        """The table a handle belongs(/belonged) to.

        Raises:
            KeyError: for a handle this allocator never issued.
        """
        return self._tables[handle]

    def knows(self, handle):
        """True if this allocator issued ``handle``."""
        return handle in self._tables

    @property
    def issued_count(self):
        """How many handles have been issued so far."""
        return self._next - 1
