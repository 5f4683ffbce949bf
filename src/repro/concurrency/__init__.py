"""Concurrency control: many sessions, one rule engine (PR 8).

The engine and storage are single-writer by construction — the physical
database holds the committed state plus (at most) one mounted
transaction's writes. :class:`~repro.concurrency.control
.TransactionCoordinator` multiplexes client sessions over that engine by
context-switching transactions (undo/redo detach + attach, see
:meth:`repro.relational.transactions.TransactionManager.detach`) and
validates every mount and every commit with backward-looking optimistic
concurrency control. The WAL append remains the commit point and becomes
the serialization point: commit order *is* the serial order every
concurrent schedule is equivalent to (docs/semantics.md §14).
"""

from .control import Session, SwitchAbort, TransactionCoordinator

__all__ = [
    "Session",
    "SwitchAbort",
    "TransactionCoordinator",
]
