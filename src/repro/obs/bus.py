"""The event bus: one emission point, many consumers.

The engine builds each :class:`~repro.obs.events.Event` exactly once and
the bus hands it to every attached consumer that takes its kind, in
attach order — the metrics collector and the per-transaction trace
recorder are ordinary consumers, so user sinks observe exactly the
stream the engine's own introspection is built from (no parallel
mechanisms to drift apart). :meth:`EventBus.wants` lets the engine skip
building what no attached sink takes.
"""

from __future__ import annotations

from typing import Any, TypeVar

from .events import Event
from .sinks import EventSink

_Sink = TypeVar("_Sink", bound=EventSink)


class EventBus:
    """Dispatches events to the attached, enabled sinks that take them."""

    def __init__(self) -> None:
        self._sinks: list[EventSink] = []
        self._routes: dict[str, list[EventSink]] = {}  # kind → its takers
        self._seq = 0

    def attach(self, sink: _Sink) -> _Sink:
        """Attach a sink; disabled sinks (``enabled`` False) are ignored.
        The sink's ``kinds`` must not change while it is attached."""
        if sink.enabled and sink not in self._sinks:
            self._sinks.append(sink)
            for kind in sink.kinds:
                self._routes.setdefault(kind, []).append(sink)
        return sink

    def detach(self, sink: EventSink) -> None:
        """Detach a previously attached sink (no-op if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            return
        for kind in sink.kinds:
            route = self._routes[kind]
            route.remove(sink)
            if not route:
                del self._routes[kind]

    @property
    def sinks(self) -> tuple[EventSink, ...]:
        return tuple(self._sinks)

    def wants(self, kind: str) -> bool:
        """Whether some attached sink takes events of ``kind``."""
        return kind in self._routes

    def emit(self, kind: str, txn: int, data: dict[str, Any]) -> Event:
        """Construct the event and dispatch it to every sink that takes
        its kind. ``seq`` counts every emitted event, whoever takes it."""
        self._seq += 1
        event = Event(self._seq, kind, txn, data)
        for sink in self._routes.get(kind, ()):
            sink.emit(event)
        return event

    @property
    def events_emitted(self) -> int:
        return self._seq
