"""Spans recorded from the benchmark's own files.

The program under test has no tracing of its own yet, so the traced
slice replaces the public call boundaries of each layer with wrappers
that record ``[name, start, end, parent, op]`` spans in memory. Phase
names follow the event / condition / action vocabulary of the Reaction
RuleML classification (PAPERS.md): an ``op`` is the event, the engine's
condition and action timers come from ``stats()``, and everything else
is named after the function that was wrapped.

Parent and op id live in :mod:`contextvars`, so client threads, the
server's event-loop tasks and plain in-process calls all nest correctly
without knowing about each other.
"""

from __future__ import annotations

import contextvars
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, function) pairs wrapped wherever a repro module imported them
_FUNCTIONS = (
    ("repro.sql.parser", "parse_statement"),
    ("repro.sql.parser", "parse_select"),
    ("repro.relational.select", "evaluate_select"),
    ("repro.relational.plan.executor", "execute_source"),
    ("repro.relational.plan.executor", "execute_source_batched"),
    ("repro.durability.recovery", "recover"),
    ("repro.server.protocol", "parse_request"),
    ("repro.server.protocol", "encode_response"),
    ("repro.server.protocol", "render_result"),
)

#: (module, class, methods) wrapped on the class
_METHODS = (
    ("repro.server.client", "ReproClient", ("request",)),
    ("repro.concurrency.control", "TransactionCoordinator",
     ("execute", "query", "begin", "commit")),
    ("repro.core.engine", "RuleEngine",
     ("define_rule", "execute_block", "commit", "query")),
    ("repro.relational.dml", "DmlExecutor", ("execute_operation",)),
    ("repro.relational.plan.cache", "PlanCache", ("plan_for",)),
    ("repro.core.incremental.manager", "IncrementalManager",
     ("evaluate", "apply_transition")),
    ("repro.durability.manager", "DurabilityManager",
     ("log_commit", "flush", "checkpoint")),
)


class Tracer:
    """An in-memory span buffer plus the wrappers that fill it."""

    def __init__(self):
        #: ``[name, start, end, parent-span-or-None, op]`` lists; the
        #: parent is the span object itself until :meth:`export`
        self.spans = []
        self._parent = contextvars.ContextVar("e2e_parent", default=None)
        self._op = contextvars.ContextVar("e2e_op", default=None)
        #: the request-parsing span still waiting to learn its op id
        self._unclaimed = contextvars.ContextVar("e2e_unclaimed", default=None)
        #: server session name -> op id its client is waiting on; lets
        #: server-side spans carry the id of the request that caused them
        self.session_ops = {}

    @contextmanager
    def root(self, name, op):
        """The span of one client-observed operation."""
        span = [name, perf_counter(), 0.0, None, op]
        self.spans.append(span)
        parent_token = self._parent.set(span)
        op_token = self._op.set(op)
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._parent.reset(parent_token)
            self._op.reset(op_token)

    def wrap(self, name, function, adopt_session=False):
        """``function`` with a span around every call.

        ``adopt_session`` marks coordinator entry points: their first
        argument after ``self`` is the session, whose client-side op id
        becomes the op of this span, of the request-parsing span that
        preceded it in the same task and of every later span there.
        """
        spans, parent_var, op_var = self.spans, self._parent, self._op
        session_ops, unclaimed_var = self.session_ops, self._unclaimed
        parses_request = name == "protocol.parse_request"

        def enter(args):
            parent = parent_var.get()
            if adopt_session and parent is None:
                op = session_ops.get(args[1].name)
                if op is not None:
                    op_var.set(op)
                    unclaimed = unclaimed_var.get()
                    if unclaimed is not None:
                        unclaimed[4] = op
                        unclaimed_var.set(None)
            span = [name, perf_counter(), 0.0, parent, op_var.get()]
            spans.append(span)
            if parses_request:
                span[4] = None
                unclaimed_var.set(span)
            return span, parent_var.set(span)

        if inspect.iscoroutinefunction(function):
            async def traced(*args, **kwargs):
                span, token = enter(args)
                try:
                    return await function(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    parent_var.reset(token)
        else:
            def traced(*args, **kwargs):
                span, token = enter(args)
                try:
                    return function(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    parent_var.reset(token)

        traced.__wrapped__ = function
        return traced

    def install(self):
        """Replace the layer boundaries listed at the top of this file."""
        import importlib

        for module_name, attribute in _FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            prefix = "protocol." if "protocol" in module_name else ""
            wrapper = self.wrap(prefix + attribute, original)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
        for module_name, class_name, methods in _METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                setattr(cls, method, self.wrap(
                    f"{class_name}.{method}", vars(cls)[method],
                    adopt_session=class_name == "TransactionCoordinator",
                ))
        selection = importlib.import_module("repro.core.selection")
        for cls in vars(selection).values():
            if inspect.isclass(cls) and "order" in vars(cls) \
                    and issubclass(cls, selection.SelectionStrategy):
                cls.order = self.wrap("SelectionStrategy.order", cls.order)

    def export(self):
        """Spans as JSON-ready dicts, parents resolved to indexes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {"name": name, "start": start, "end": end,
             "parent": None if parent is None else index[id(parent)],
             "op": op}
            for name, start, end, parent, op in self.spans
        ]


def summarize(spans, first=0, last=None):
    """Total and self time per span name over ``spans[first:last]``.

    ``spans`` is the whole exported list (parents are indexes into it).
    Spans that belong to no op (housekeeping statements, the harness's
    own ``stats()`` requests) are left out. A span's self time is its
    duration minus the part of it that its direct children cover.
    Returns ``{name: {"calls", "total", "self"}}``.
    """
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    summary = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for index in range(first, len(spans) if last is None else last):
        span = spans[index]
        if span["op"] is None:
            continue
        duration = span["end"] - span["start"]
        entry = summary[span["name"]]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += max(duration - covered[index], 0.0)
    return dict(summary)
