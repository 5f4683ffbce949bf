"""Event sinks: pluggable consumers of the engine's event stream.

Three concrete sinks cover the practical spectrum:

* :class:`NullSink` — the zero-overhead default; ``enabled`` is False so
  the engine skips payload construction for user-facing emission
  entirely;
* :class:`RingBufferSink` — keeps the last N events in memory (the
  REPL's ``\\events`` view, tests asserting event order);
* :class:`JsonLinesSink` — appends one JSON object per event to a file,
  the machine-readable trajectory the benches and CI consume.
"""

from __future__ import annotations

import json
import os
from collections import Counter, deque
from typing import Iterator, Optional, TextIO, TypeVar, Union

from .events import Event, EventKind

_Sink = TypeVar("_Sink", bound="EventSink")


class EventSink:
    """Base class. Subclasses implement :meth:`emit`.

    ``enabled`` is checked once at attach time: a disabled sink is never
    dispatched to, so it costs nothing per event. A sink is handed only
    the events whose kind is in its ``kinds`` — every kind unless a
    subclass narrows it; they must not change while it is attached.
    What the engine builds only for a listener (``lint_diagnostic``
    findings) it builds only when some attached sink takes that kind.
    """

    enabled: bool = True
    kinds: frozenset[str] = frozenset(EventKind.ALL)

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (file handles); idempotent."""

    def __enter__(self: _Sink) -> _Sink:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(EventSink):
    """Discards everything; the zero-overhead default."""

    enabled = False

    def emit(self, event: Event) -> None:
        pass


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[Event]:
        """The buffered events, oldest first."""
        return list(self._events)

    def of_kind(self, kind: str) -> list[Event]:
        """The buffered events of one kind, oldest first."""
        return [event for event in self._events if event.kind == kind]

    def kind_counts(self) -> Counter[str]:
        """``{kind: count}`` over the buffered events."""
        return Counter(event.kind for event in self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(list(self._events))


class JsonLinesSink(EventSink):
    """Writes one JSON object per event to a file (JSON-lines format).

    Args:
        target: a path (string / ``os.PathLike``) opened lazily — emptied
            at the first event, appended to after a :meth:`close` — or
            any object with a ``write`` method.
    """

    def __init__(self, target: Union[str, os.PathLike[str], TextIO]) -> None:
        #: the path this sink opens and owns (None: ``target`` is a file)
        self._path: Union[str, os.PathLike[str], None] = None
        self._file: Optional[TextIO] = None
        #: how the next open of the path opens it
        self._mode = "w"
        if isinstance(target, (str, os.PathLike)):
            self._path = target
        else:
            self._file = target
        self.emitted = 0

    def emit(self, event: Event) -> None:
        if self._file is None:
            assert self._path is not None  # only an owned file is dropped
            self._file = open(self._path, self._mode, encoding="utf-8")
            self._mode = "a"
        self._file.write(json.dumps(event.to_json_dict()) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._path is not None:
                self._file.close()
                self._file = None
