"""Static rule analysis (paper Section 6).

Builds the rule triggering graph and derives the two warning classes the
paper calls for: potential infinite loops (triggering cycles) and
ordering conflicts (unordered rules whose firing order may change the
final state).

Usage::

    from repro.analysis import analyze

    report = analyze(db.catalog)
    for warning in report.loops:
        print(warning.describe())
    for warning in report.conflicts:
        print(warning.describe())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .confluence import (
    ProbeResult,
    canonical_state,
    probe_conflicts,
    probe_order_sensitivity,
)
from .conflicts import (
    ConflictWarning,
    actions_interfere,
    find_ordering_conflicts,
    predicates_overlap,
    rule_reads,
    rule_writes,
)
from .graph import (
    ProvidedEffect,
    TriggeringGraph,
    action_provides,
    effect_matches_predicate,
    may_trigger,
)
from .loops import LoopWarning, find_potential_loops, may_loop


@dataclass
class AnalysisReport:
    """The outcome of a full static analysis pass."""

    graph: TriggeringGraph
    loops: list = field(default_factory=list)
    conflicts: list = field(default_factory=list)

    @property
    def warning_count(self) -> int:
        return len(self.loops) + len(self.conflicts)

    def describe(self) -> str:
        lines = []
        for warning in self.loops:
            lines.append("LOOP: " + warning.describe())
        for warning in self.conflicts:
            lines.append("CONFLICT: " + warning.describe())
        if not lines:
            lines.append("no warnings")
        return "\n".join(lines)


def analyze(catalog: Any) -> AnalysisReport:
    """Run all static checks over a rule catalog."""
    return AnalysisReport(
        graph=TriggeringGraph.from_catalog(catalog),
        loops=find_potential_loops(catalog),
        conflicts=find_ordering_conflicts(catalog),
    )


__all__ = [
    "AnalysisReport",
    "ConflictWarning",
    "ProbeResult",
    "LoopWarning",
    "ProvidedEffect",
    "TriggeringGraph",
    "action_provides",
    "actions_interfere",
    "analyze",
    "canonical_state",
    "effect_matches_predicate",
    "find_ordering_conflicts",
    "find_potential_loops",
    "may_loop",
    "may_trigger",
    "predicates_overlap",
    "probe_conflicts",
    "probe_order_sensitivity",
    "rule_reads",
    "rule_writes",
]
