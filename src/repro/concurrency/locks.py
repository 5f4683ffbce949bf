"""No-wait table-granularity locks: the 2PL fallback mode.

The coordinator's default mode is optimistic (validate at mount/commit);
``mode="2pl"`` instead acquires a shared lock on every table a
transaction reads and an exclusive lock on every table it writes, held
to commit/abort (strict two-phase locking). Locks are *no-wait*: any
contention raises :class:`~repro.errors.ConflictError` immediately, so
the server's single loop never blocks and no deadlock detection is needed —
the retry contract (docs/semantics.md §14) turns the immediate abort
into progress.
"""

from __future__ import annotations

from ..errors import ConflictError


class LockTable:
    """Shared/exclusive table locks keyed by session, no queuing."""

    def __init__(self):
        #: table -> (mode, set-of-holders); mode is "s" or "x" (an "x"
        #: entry always has exactly one holder)
        self._locks = {}

    def acquire_shared(self, table, holder):
        entry = self._locks.get(table)
        if entry is None:
            self._locks[table] = ("s", {holder})
            return
        mode, holders = entry
        if mode == "s":
            holders.add(holder)
            return
        if holder in holders:  # own exclusive lock covers reads
            return
        raise ConflictError(
            f"table {table!r} is exclusively locked by another session",
            tables=(table,),
        )

    def acquire_exclusive(self, table, holder):
        entry = self._locks.get(table)
        if entry is None:
            self._locks[table] = ("x", {holder})
            return
        mode, holders = entry
        if holders == {holder}:
            # sole holder: upgrade (or already exclusive)
            self._locks[table] = ("x", holders)
            return
        raise ConflictError(
            f"table {table!r} is locked by another session",
            tables=(table,),
        )

    def release_all(self, holder):
        """Drop every lock held by ``holder`` (commit or abort)."""
        for table in list(self._locks):
            mode, holders = self._locks[table]
            holders.discard(holder)
            if not holders:
                del self._locks[table]

    def held(self, holder):
        """Tables ``holder`` currently locks (for tests/introspection)."""
        return {
            table: mode
            for table, (mode, holders) in self._locks.items()
            if holder in holders
        }
