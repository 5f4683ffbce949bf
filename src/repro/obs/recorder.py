"""The transaction trace as an event-stream consumer.

Before the observability layer existed, the engine appended
:class:`~repro.core.trace.TransitionRecord` /
:class:`~repro.core.trace.ConsiderationRecord` objects to the open
:class:`~repro.core.trace.TransactionResult` directly — a parallel
mechanism that could drift from any other instrumentation. Now the
engine emits events once and this recorder (attached for the duration
of one transaction) rebuilds exactly the same trace from them, so the
trace is guaranteed consistent with what metrics and user sinks saw.

The engine still owns the result's *outcome* fields (``committed``,
``rolled_back_by``, ``select_results``): they are return-value plumbing,
not stream-derived history.
"""

from __future__ import annotations

from ..core.trace import ConsiderationRecord, TransitionRecord
from .events import EventKind
from .sinks import EventSink


class TraceRecorder(EventSink):
    """Builds one transaction's trace from its event stream."""

    kinds = frozenset({
        EventKind.RULE_CONSIDERED, EventKind.RULE_FIRED,
        EventKind.BLOCK_EXECUTED,
    })

    def __init__(self, result):
        self.result = result

    def emit(self, event):
        kind = event.kind
        data = event.data
        if kind == EventKind.RULE_CONSIDERED:
            self.result.considered.append(
                ConsiderationRecord(
                    data["after_transition"],
                    data["rule"],
                    data["condition"],
                    fired=data["fired"],
                )
            )
        elif kind == EventKind.RULE_FIRED:
            self.result.transitions.append(
                TransitionRecord(
                    data["transition"],
                    data["rule"],
                    data["effect"],
                    seen=data.get("seen") or {},
                    condition_result=data.get("condition"),
                )
            )
        elif kind == EventKind.BLOCK_EXECUTED:
            self.result.transitions.append(
                TransitionRecord(
                    data["transition"],
                    "external",
                    data["effect"],
                )
            )
