"""Incremental rule-condition evaluation (docs/semantics.md §12).

Maintainable conditions become persisted support counters updated from
each transition's net ``[I, D, U]`` effects instead of being re-run from
scratch every consideration; the refined triggering graph additionally
skips conditions a transition provably cannot affect. Full
re-evaluation remains the fallback for every unmaintainable condition
and the differential oracle (``tests/reference/full_reeval.py``).
"""

from .classify import (
    CounterConjunct,
    DeltaConjunct,
    MaintenancePlan,
    classify_condition,
)
from .manager import IncrementalManager, IncrementalStats
from .views import MaintainedView

__all__ = [
    "CounterConjunct",
    "DeltaConjunct",
    "IncrementalManager",
    "IncrementalStats",
    "MaintainedView",
    "MaintenancePlan",
    "classify_condition",
]
