"""The pass protocol and registry.

A pass is a named analysis that maps a :class:`~repro.analysis.lint
.context.LintContext` to diagnostics. Passes declare a ``scope``:

* ``"rule"`` — examines one rule at a time (the walk's schema and type
  findings, transition discipline, per-rule hygiene). While a sink
  takes ``lint_diagnostic``, rule-scoped passes run at definition
  time too, so a ``create rule`` gets immediate feedback.
* ``"program"`` — examines the whole rule program (triggering graph,
  conflicts, shadowing, dead reads). Program-scoped passes run only on
  full lint requests.

The registry is populated at import time by the concrete pass modules;
:func:`all_passes` returns them in registration order, which is also the
order findings are produced in before the report sorts by severity.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .context import LintContext
from .diagnostics import Diagnostic, LintReport

PassFn = Callable[[LintContext], Iterable[Diagnostic]]


class Pass:
    """One registered analysis pass."""

    def __init__(self, name: str, scope: str, run: PassFn,
                 description: str = "") -> None:
        if scope not in ("rule", "program"):
            raise ValueError(f"pass scope must be rule|program, got {scope!r}")
        self.name = name
        self.scope = scope
        self._run = run
        self.description = description

    def run(self, context: LintContext) -> list[Diagnostic]:
        return list(self._run(context))

    def __repr__(self) -> str:
        return f"Pass({self.name!r}, scope={self.scope!r})"


_REGISTRY: dict[str, Pass] = {}


def register_pass(name: str, scope: str,
                  description: str = "") -> Callable[[PassFn], PassFn]:
    """Decorator: register ``fn`` as the pass called ``name``."""

    def decorate(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ValueError(f"pass {name!r} already registered")
        _REGISTRY[name] = Pass(name, scope, fn, description)
        return fn

    return decorate


def all_passes(scope: Optional[str] = None) -> list[Pass]:
    """Registered passes, optionally filtered to one scope."""
    passes = list(_REGISTRY.values())
    if scope is not None:
        passes = [p for p in passes if p.scope == scope]
    return passes


def get_pass(name: str) -> Pass:
    return _REGISTRY[name]


def run_passes(context: LintContext,
               scope: Optional[str] = None) -> LintReport:
    """Every registered pass (of ``scope``) over ``context``, sorted."""
    report = LintReport()
    for lint_pass in all_passes(scope):
        report.extend(lint_pass.run(context))
    report.sort()
    return report
