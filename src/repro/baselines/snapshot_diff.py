"""State-snapshot diffing — the naive transition-effect baseline.

Section 4.3 notes the algorithm is designed so that "the entire database
state need not be saved before each transition"; transition information
is instead accumulated incrementally as operations execute. This module
implements the alternative the paper rejects — snapshot the whole state
before a transition and diff afterwards — both to benchmark its cost
against incremental maintenance (``benchmarks/bench_transinfo_vs_snapshot``)
and to demonstrate §2.2's semantic point: the ``U`` component "is not
derivable from the database states", because an update that assigns a
column its existing value affects the tuple without changing any value.
"""

from __future__ import annotations

from ..core.effects import TableEffect, TransitionEffect


def take_snapshot(database):
    """Snapshot every table: ``{table: {handle: row}}``."""
    return database.snapshot()


def diff_snapshots(before, after):
    """The *apparent* transition effect between two snapshots.

    * ``I`` — handles live after but not before;
    * ``D`` — handles live before but not after;
    * ``U`` — handle → the positions of the columns whose value differs;

    per table, with the pre-images of ``D`` and ``U`` from ``before``.
    This is the best a snapshot-based scheme can do — and it is lossy:
    identity updates (same value re-assigned) and the paper's
    delete-then-reinsert distinction are invisible to it.
    """
    effect = TransitionEffect()
    for table in set(before) | set(after):
        rows_before = before.get(table, {})
        rows_after = after.get(table, {})
        part = TableEffect(
            inserted=[h for h in rows_after if h not in rows_before]
        )
        for handle, old_row in rows_before.items():
            new_row = rows_after.get(handle)
            if new_row is None:
                part.deleted.add(handle)
            elif new_row != old_row:
                part.updated[handle] = frozenset(
                    position for position, (old, new) in
                    enumerate(zip(old_row, new_row)) if old != new
                )
            if new_row != old_row:
                part.pre[handle] = old_row
        if part:
            effect.tables[table] = part
    return effect


class SnapshotEffectTracker:
    """Tracks transition effects by snapshotting around each transition.

    Drop-in style counterpart to the engine's incremental
    :class:`~repro.core.effects.TransitionLog`, used by the PERF-2
    benchmark::

        tracker = SnapshotEffectTracker(database)
        tracker.begin_transition()
        ... execute operations ...
        effect = tracker.end_transition()
    """

    def __init__(self, database):
        self.database = database
        self._before = None

    def begin_transition(self):
        self._before = take_snapshot(self.database)

    def end_transition(self):
        if self._before is None:
            raise RuntimeError("end_transition without begin_transition")
        after = take_snapshot(self.database)
        effect = diff_snapshots(self._before, after)
        self._before = None
        return effect
