"""Durability: write-ahead logging, checkpointing, crash recovery.

The paper assumes durability away ("failures are transparent", §2); this
package supplies it, together with the fault-injection harness that
makes the guarantee testable:

* :mod:`~repro.durability.wal` — append-only log of committed
  transactions' net effects, one checksummed, deflated frame per
  transaction holding one columnar JSON record; the fsync'd append is
  the commit point;
* :mod:`~repro.durability.checkpoint` — atomic full snapshots with a WAL
  high-water mark, one frame each;
* :mod:`~repro.durability.recovery` — :func:`recover`: load the last
  checkpoint, truncate torn WAL tails, replay the suffix as whole
  column vectors, verify row counts, rebuild indexes and zone maps;
* :mod:`~repro.durability.faults` — :class:`FaultInjector`, seeded
  crash schedules at named points of the commit/checkpoint path, plus a
  disk-full append that is not a crash;
* :mod:`~repro.durability.dump` — ``python -m repro.durability.dump
  DIR`` prints a directory's records as JSON lines (a command only;
  nothing imports it);
* :mod:`~repro.durability.manager` — :class:`DurabilityManager`, the
  object an :class:`~repro.ActiveDatabase` is constructed with::

      db = ActiveDatabase(durability="state_dir")
      db.execute("create table t (x integer)")
      db.execute("insert into t values (1)")     # WAL-logged, fsync'd
      db.checkpoint()
      # ... crash ...
      db = recover("state_dir")                  # same committed state
"""

from .. import _export_table

__getattr__, __dir__, __all__ = _export_table(__name__, globals(), {
    ".checkpoint": ("CheckpointError",),
    ".faults": ("CRASH_POINTS", "FaultInjector", "SimulatedCrash"),
    ".manager": ("DurabilityError", "DurabilityManager"),
    ".recovery": ("recover",),
    ".wal": ("WalError", "WalWriter", "scan_wal"),
})
