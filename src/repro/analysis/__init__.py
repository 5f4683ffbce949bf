"""Static rule analysis (paper Section 6).

One analysis per rule catalog (:mod:`repro.analysis.program`): each
rule is walked once, on first request, one triggering graph is derived
from those walks, and the two warning classes the paper calls for —
potential infinite loops (triggering cycles) and ordering conflicts
(unordered rules whose firing order may change the final state) — are
views of it, as are the RPLnnn diagnostics of :mod:`repro.analysis.lint`.

Usage::

    from repro.analysis import analyze

    report = analyze(db.catalog)
    for warning in report.loops:
        print(warning.describe())
    for warning in report.conflicts:
        print(warning.describe())
"""

from __future__ import annotations

from .confluence import (
    ProbeResult,
    canonical_state,
    probe_conflicts,
    probe_order_sensitivity,
)
from .lint.triggering import TriggeringGraph
from .program import (
    AnalysisReport,
    ConflictWarning,
    LoopWarning,
    ProgramAnalysis,
    analysis_of,
    analyze,
)

__all__ = [
    "AnalysisReport",
    "ConflictWarning",
    "LoopWarning",
    "ProbeResult",
    "ProgramAnalysis",
    "TriggeringGraph",
    "analysis_of",
    "analyze",
    "canonical_state",
    "probe_conflicts",
    "probe_order_sensitivity",
]
