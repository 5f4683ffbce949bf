"""The diagnostic vocabulary of the rule-program semantic analyzer.

Every finding the linter can produce is a :class:`Diagnostic` with a
stable code from the ``RPL`` catalog below, a severity, an optional
source span (present when the program was linted from SQL text), and a
fix hint. Codes are grouped by hundreds:

* ``RPL0xx`` — schema resolution (names, types, arities);
* ``RPL1xx`` — transition-table discipline (paper §3's syntactic
  restriction, surfaced at lint time instead of definition time);
* ``RPL2xx`` — triggering-graph findings (paper §6: loops, ordering
  conflicts) on the condition-refined graph;
* ``RPL3xx`` — program hygiene (dead rules, shadowing, rollback cycles,
  dead condition reads);
* ``RPL4xx`` — static type inference (operator/operand mismatches,
  incoherent CASE branches, subquery shape and type errors, lossy
  coercions) — pass tag ``types``; found by the same walk that
  resolves names;
* ``RPL5xx`` — column-granular effect conflicts across the cascade
  (write/write and write-after-read among unordered siblings) — the
  ``effects`` pass.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional

from ...records import Record
from ...sql.spans import Span


class Severity(enum.Enum):
    """How serious a finding is.

    ``ERROR`` findings describe programs that will fail (or silently
    misbehave) at run time; ``WARNING`` findings describe programs that
    run but may not do what the author intended; ``INFO`` findings are
    notes — e.g. a worst-case warning discharged by refinement.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: code → (default severity, one-line summary). The catalog is the single
#: source of truth; docs/semantics.md §11 documents each code with a
#: minimal triggering example, and ``tests/lint/corpus`` holds one seeded
#: defect per code.
CODES: dict[str, tuple[Severity, str]] = {
    "RPL001": (Severity.ERROR, "unknown table or alias"),
    "RPL002": (Severity.ERROR, "unknown column"),
    "RPL003": (Severity.ERROR, "ambiguous column reference"),
    "RPL004": (Severity.ERROR, "incomparable types in comparison"),
    "RPL005": (Severity.ERROR, "insert arity mismatch"),
    "RPL006": (Severity.ERROR, "value type incompatible with column"),
    "RPL007": (Severity.ERROR, "unknown rule referenced"),
    "RPL101": (Severity.ERROR,
               "transition table not covered by the rule's predicates"),
    "RPL102": (Severity.ERROR,
               "transition-table column narrowing not covered"),
    "RPL103": (Severity.ERROR,
               "transition predicate names a column the schema lacks"),
    "RPL201": (Severity.WARNING, "potential triggering loop"),
    "RPL202": (Severity.INFO, "loop discharged by condition refinement"),
    "RPL203": (Severity.WARNING,
               "unordered rule pair whose firing order may matter"),
    "RPL301": (Severity.WARNING, "unreachable rule (condition never true)"),
    "RPL302": (Severity.WARNING, "deactivated rule overlaps an active rule"),
    "RPL303": (Severity.WARNING, "triggering cycle can reach a rollback"),
    "RPL304": (Severity.WARNING,
               "condition reads a column nothing ever writes"),
    "RPL401": (Severity.ERROR,
               "operator applied to an operand of the wrong type"),
    "RPL402": (Severity.WARNING, "CASE branches yield incoherent types"),
    "RPL403": (Severity.ERROR,
               "subquery column type incomparable with operand"),
    "RPL404": (Severity.ERROR,
               "subquery produces the wrong number of columns"),
    "RPL405": (Severity.WARNING,
               "lossy implicit coercion (float into integer column)"),
    "RPL501": (Severity.WARNING,
               "unordered cascade siblings with overlapping write sets"),
    "RPL502": (Severity.WARNING,
               "write-after-read hazard across the cascade"),
}


class Diagnostic(Record):
    """One lint finding.

    Attributes:
        code: stable ``RPLnnn`` identifier (key of :data:`CODES`).
        severity: :class:`Severity` (defaults to the catalog severity).
        message: the specific, human-readable statement of the defect.
        span: source location when the program came from SQL text.
        rule: name of the rule the finding is about (None for workload
            statements linted outside any rule).
        hint: a fix suggestion.
        pass_name: which analysis pass produced the finding.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    span: Optional[Span] = None
    rule: Optional[str] = None
    hint: Optional[str] = None
    pass_name: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def location(self) -> str:
        """``line:col`` of the finding, or ``?`` when unknown."""
        return self.span.location if self.span is not None else "?"

    def describe(self) -> str:
        """The conventional one-line rendering: ``code severity @ loc``."""
        parts = [f"{self.code} {self.severity}", f"[{self.location}]"]
        if self.rule:
            parts.append(f"rule {self.rule!r}:")
        parts.append(self.message)
        text = " ".join(parts)
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready flattening (used by the CLI and the obs bus)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "line": self.span.line if self.span else None,
            "column": self.span.column if self.span else None,
            "rule": self.rule,
            "hint": self.hint,
            "pass": self.pass_name,
        }


def make(code: str, message: str, *, span: Optional[Span] = None,
         rule: Optional[str] = None, hint: Optional[str] = None,
         pass_name: str = "") -> Diagnostic:
    """Build a diagnostic with the catalog's default severity for ``code``."""
    severity, _ = CODES[code]
    return Diagnostic(code, message, severity, span, rule, hint, pass_name)


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


class LintReport(Record, frozen=False):
    """The outcome of a lint run: diagnostics in severity-then-source order."""

    diagnostics: list[Diagnostic]

    def __init__(self, diagnostics: Optional[list[Diagnostic]] = None):
        self.diagnostics = [] if diagnostics is None else diagnostics

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def sort(self) -> None:
        """Order by severity, then source position, then code."""
        self.diagnostics.sort(
            key=lambda d: (
                _SEVERITY_ORDER[d.severity],
                d.span.offset if d.span else (1 << 30),
                d.code,
            )
        )

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def notes(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def findings(self) -> list[Diagnostic]:
        """Actionable diagnostics: errors and warnings (notes excluded)."""
        return [d for d in self.diagnostics if d.severity is not Severity.INFO]

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def describe(self) -> str:
        if not self.diagnostics:
            return "no findings"
        return "\n".join(d.describe() for d in self.diagnostics)
