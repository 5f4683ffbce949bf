"""Fault injection for crash-consistency testing.

A :class:`FaultInjector` is armed with one *crash point* — a named
location in the commit/checkpoint path — and an occurrence count; when
the instrumented code reaches that point for the n-th time, the injector
raises :class:`SimulatedCrash`, modelling the process dying at exactly
that instant. The in-memory database object is then considered lost;
tests "reboot" by running :func:`repro.durability.recovery.recover`
against the durability directory and assert the atomicity invariant
(recovered state == the committed-transaction prefix).

The special ``torn_wal_append`` point does not merely stop before or
after a write: it makes the WAL writer emit a strict byte *prefix* of
the record (then fsync, then crash), modelling a torn page / partial
sector write. Recovery must detect the torn tail via the record
checksum and truncate it.

One armable point is *not* a crash: ``enospc_wal_append`` writes the
same strict prefix and then fails the append with
``OSError(ENOSPC)`` — the disk filled up, the process lives on. The
writer must cut the prefix off again so the next commit does not land
behind a torn record (see :meth:`repro.durability.wal.WalWriter.append`).
It is kept out of :data:`CRASH_POINTS`, so seeded crash schedules never
draw it.

Injectors are deterministic: :meth:`FaultInjector.from_seed` derives the
crash point, occurrence and torn-write fraction from a seed, so a
failing schedule is reproducible from its seed alone.
"""

from __future__ import annotations

import errno
import os
import random

#: The named crash points, in commit-path order. ``mid_block`` and
#: ``mid_quiesce`` fire inside the transaction (before the commit
#: point); ``pre_wal_append`` fires after quiescence but before any WAL
#: bytes are written; ``torn_wal_append`` writes a partial record;
#: ``post_wal_append`` fires after the record is durable but before the
#: in-memory commit; ``mid_checkpoint_rename`` fires after the
#: checkpoint temp file is written but before the atomic rename.
CRASH_POINTS = (
    "mid_block",
    "mid_quiesce",
    "pre_wal_append",
    "torn_wal_append",
    "post_wal_append",
    "mid_checkpoint_rename",
)

#: Armable points that fail an operation with an ``OSError`` and leave
#: the process running.
IO_ERROR_POINTS = ("enospc_wal_append",)

#: The points that cut a WAL append short.
_PARTIAL_APPEND_POINTS = ("torn_wal_append", "enospc_wal_append")

#: Crash points at (or after) which the transaction's WAL record is
#: fully durable — recovery must include the transaction.
POINTS_AFTER_COMMIT_POINT = frozenset({"post_wal_append"})


class SimulatedCrash(RuntimeError):
    """Raised by a :class:`FaultInjector` at its armed crash point.

    Attributes:
        point: the crash point name.
        occurrence: which occurrence of the point triggered the crash.
    """

    def __init__(self, point, occurrence):
        super().__init__(
            f"simulated crash at {point!r} (occurrence {occurrence})"
        )
        self.point = point
        self.occurrence = occurrence


class FaultInjector:
    """Crashes the process (by exception) at one named point.

    Args:
        point: one of :data:`CRASH_POINTS` or :data:`IO_ERROR_POINTS`,
            or None for a disarmed injector (all hooks are no-ops).
        occurrence: crash at the n-th time the point is reached
            (1-based). A point never reached that often simply never
            crashes — a legal schedule, the run completes cleanly.
        torn_fraction: for ``torn_wal_append`` and
            ``enospc_wal_append``, the fraction of the record's bytes
            that reach the disk before the failure.
    """

    def __init__(self, point=None, occurrence=1, torn_fraction=0.5):
        if point is not None and point not in CRASH_POINTS + IO_ERROR_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; expected one of "
                f"{CRASH_POINTS + IO_ERROR_POINTS}"
            )
        if occurrence < 1:
            raise ValueError("occurrence is 1-based and must be >= 1")
        if not 0.0 < torn_fraction < 1.0:
            raise ValueError("torn_fraction must be strictly between 0 and 1")
        self.point = point
        self.occurrence = occurrence
        self.torn_fraction = torn_fraction
        self.counts = {}
        #: set to the crash point name once the injector has fired
        self.fired = None

    @classmethod
    def from_seed(cls, seed, points=CRASH_POINTS):
        """A deterministic schedule derived from ``seed``: which point,
        which occurrence, and how much of a torn record survives."""
        rng = random.Random(seed)
        return cls(
            point=rng.choice(tuple(points)),
            occurrence=rng.randint(1, 4),
            torn_fraction=rng.uniform(0.05, 0.95),
        )

    def describe(self):
        return (
            f"{self.point} @ occurrence {self.occurrence}"
            + (
                f" (fraction {self.torn_fraction:.2f})"
                if self.point in _PARTIAL_APPEND_POINTS
                else ""
            )
        )

    # ------------------------------------------------------------------
    # hooks called by instrumented code

    def fire(self, point):
        """Record reaching ``point``; crash if this is the armed one."""
        count = self.counts.get(point, 0) + 1
        self.counts[point] = count
        if point == self.point and count == self.occurrence:
            self.fired = point
            raise SimulatedCrash(point, count)

    def torn_write(self, nbytes):
        """WAL-writer hook for ``torn_wal_append`` / ``enospc_wal_append``.

        Returns None when no partial write is due, otherwise the number
        of bytes of the record to actually write — always a strict prefix
        that cuts into the payload, so the tail is detectably torn.
        """
        if self.point not in _PARTIAL_APPEND_POINTS:
            return None
        count = self.counts.get(self.point, 0) + 1
        self.counts[self.point] = count
        if count == self.occurrence:
            keep = int(nbytes * self.torn_fraction)
            return max(1, min(nbytes - 2, keep))
        return None

    def torn_failure(self):
        """Raise what follows the partial write: the crash, or the IO
        error that fails the append and leaves the process running."""
        self.fired = self.point
        if self.point in IO_ERROR_POINTS:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        raise SimulatedCrash(self.point, self.counts[self.point])
