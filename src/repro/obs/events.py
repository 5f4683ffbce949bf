"""Structured engine events.

Each event marks one step of the paper's execution model (§4, Figure 1).
The ``kind`` vocabulary maps onto Figure 1 as follows:

=====================  ====================================================
event kind             Figure 1 / §4 step
=====================  ====================================================
``txn_begin``          transaction start (state S0)
``block_executed``     "an externally-generated operation block executes,
                       creating a transition" + ``init-trans-info``
``rule_considered``    ``select-eligible-rule``: one condition evaluation
                       of a triggered rule (``fired`` tells whether it won)
``rule_fired``         "execute R's action" — the rule-generated transition
``trans_info_reset``   the per-rule baseline restart: ``cause`` is
                       ``"execution"`` (Figure 1's re-init after firing),
                       ``"consideration"`` / ``"triggering"`` (footnote-8
                       policies), or ``"registered"`` (rule defined
                       mid-transaction)
``quiescent``          "no triggered rule has a true condition"
``rollback_by_rule``   a ``rollback`` action restoring S0
``loop_budget_trip``   the footnote-7 runaway guard firing
``txn_commit``         transaction commit
``txn_abort``          transaction abort (rollback action, explicit
                       rollback, or error)
=====================  ====================================================

Three further kinds belong to the durability subsystem (not part of the
paper's model — see :mod:`repro.durability`): ``wal_append`` (a commit
record reached the write-ahead log; the durable commit point),
``checkpoint`` (a full snapshot was installed), and ``recovery``
(a database was rebuilt from checkpoint + WAL after a crash).

Four kinds belong to the concurrency layer (PR 8, see
:mod:`repro.concurrency` and :mod:`repro.server`): ``session_open`` /
``session_close`` bracket one client session at the coordinator, and
``txn_conflict`` / ``txn_retry`` record backward-validation (or lock)
conflicts and the resulting statement retries.

``lint_diagnostic`` carries one static-analysis finding (see
:mod:`repro.analysis.lint`): while an attached sink takes the kind, the
rule-scoped passes run as each rule is defined, and each finding is
emitted with its flattened ``to_dict()`` payload. An analysis that
raises is reported on the same kind (``"pass": "internal"``, ``code``
None, ``error`` the exception class) — rule definition never fails
because of the analyzer, and never fails silently either.

Events carry live objects (e.g. :class:`~repro.core.effects
.TransitionEffect` instances) in ``data`` so in-process consumers — the
trace recorder, the metrics collector — pay no serialization cost;
:meth:`Event.to_json_dict` flattens them for file sinks.
"""

from __future__ import annotations

from typing import Any, Optional


class EventKind:
    """The event vocabulary (plain strings, usable as JSON keys)."""

    TXN_BEGIN = "txn_begin"
    TXN_COMMIT = "txn_commit"
    TXN_ABORT = "txn_abort"
    BLOCK_EXECUTED = "block_executed"
    RULE_CONSIDERED = "rule_considered"
    RULE_FIRED = "rule_fired"
    TRANS_INFO_RESET = "trans_info_reset"
    ROLLBACK_BY_RULE = "rollback_by_rule"
    LOOP_BUDGET_TRIP = "loop_budget_trip"
    QUIESCENT = "quiescent"
    WAL_APPEND = "wal_append"
    CHECKPOINT = "checkpoint"
    RECOVERY = "recovery"
    LINT_DIAGNOSTIC = "lint_diagnostic"
    SESSION_OPEN = "session_open"
    SESSION_CLOSE = "session_close"
    TXN_CONFLICT = "txn_conflict"
    TXN_RETRY = "txn_retry"

    ALL = (
        TXN_BEGIN,
        TXN_COMMIT,
        TXN_ABORT,
        BLOCK_EXECUTED,
        RULE_CONSIDERED,
        RULE_FIRED,
        TRANS_INFO_RESET,
        ROLLBACK_BY_RULE,
        LOOP_BUDGET_TRIP,
        QUIESCENT,
        WAL_APPEND,
        CHECKPOINT,
        RECOVERY,
        LINT_DIAGNOSTIC,
        SESSION_OPEN,
        SESSION_CLOSE,
        TXN_CONFLICT,
        TXN_RETRY,
    )


class Event:
    """One engine event (read-only by convention: sinks share it).

    Attributes:
        seq: engine-global monotone sequence number.
        kind: one of the :class:`EventKind` constants.
        txn: 1-based transaction number within the engine's lifetime.
        data: kind-specific payload (may hold live objects; see
            :meth:`to_json_dict` for the flattened form).
    """

    __slots__ = ("seq", "kind", "txn", "data")

    def __init__(self, seq: int, kind: str, txn: int,
                 data: Optional[dict[str, Any]] = None) -> None:
        self.seq = seq
        self.kind = kind
        self.txn = txn
        self.data = {} if data is None else data

    def __repr__(self) -> str:
        return (f"Event(seq={self.seq!r}, kind={self.kind!r}, "
                f"txn={self.txn!r}, data={self.data!r})")

    def to_json_dict(self) -> dict[str, Any]:
        """A JSON-serializable rendering of this event.

        Live objects are summarized: a ``TransitionEffect`` becomes its
        I/D/U(/S) cardinalities, a ``seen`` snapshot becomes per-table
        row counts, durations stay as float seconds.
        """
        return {
            "seq": self.seq,
            "kind": self.kind,
            "txn": self.txn,
            "data": {key: _jsonify(value) for key, value in self.data.items()},
        }

    def describe(self) -> str:
        """One-line human rendering (used by the REPL's ``\\events``)."""
        detail = " ".join(
            f"{key}={_jsonify(value)}" for key, value in self.data.items())
        return f"#{self.seq} txn{self.txn} {self.kind} {detail}".rstrip()


def _jsonify(value: Any) -> Any:
    """Flatten a payload value into JSON-representable primitives."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        # e.g. a `seen` snapshot {"deleted emp": [rows...]} -> row counts
        return {
            str(key): (len(inner) if isinstance(inner, (list, tuple, set))
                       else _jsonify(inner))
            for key, inner in value.items()
        }
    if isinstance(value, (list, tuple, frozenset, set)):
        return [_jsonify(item) for item in value]
    summary = getattr(value, "summary", None)
    if callable(summary):  # TransitionEffect and friends
        return summary()
    return repr(value)
