"""The paper's contribution: set-oriented production rules.

* :mod:`~repro.core.effects` — transition effects ``[I, D, U]``, the
  Definition 2.1 composition operator, and the transaction's transition
  log whose per-rule cursors are Figure 1's ``trans-info``;
* :mod:`~repro.core.predicates` — transition predicate satisfaction;
* :mod:`~repro.core.transition_tables` — the logical ``inserted`` /
  ``deleted`` / ``old updated`` / ``new updated`` tables;
* :mod:`~repro.core.rules` / :mod:`~repro.core.selection` — the rule
  catalog, priority partial order, and selection strategies (§4.4);
* :mod:`~repro.core.engine` — the rule execution algorithm (Figure 1);
* :mod:`~repro.core.external` — external-procedure actions (§5.2);
* :mod:`~repro.core.trace` — transition traces and transaction results.
"""

from .effects import TransitionEffect, compose_all
from .engine import RuleEngine
from .external import ExternalAction, ExternalActionContext
from .predicates import (
    basic_predicate_satisfied,
    transition_predicate_satisfied,
)
from .rules import Rule, RuleCatalog
from .selection import (
    CreationOrder,
    LeastRecentlyConsidered,
    MostRecentlyConsidered,
    PriorityOrder,
    SelectionStrategy,
    TotalOrder,
)
from .trace import ConsiderationRecord, TransactionResult, TransitionRecord
from .transition_tables import TransitionTableResolver

__all__ = [
    "ConsiderationRecord",
    "CreationOrder",
    "ExternalAction",
    "ExternalActionContext",
    "LeastRecentlyConsidered",
    "MostRecentlyConsidered",
    "PriorityOrder",
    "Rule",
    "RuleCatalog",
    "RuleEngine",
    "SelectionStrategy",
    "TotalOrder",
    "TransactionResult",
    "TransitionEffect",
    "TransitionRecord",
    "TransitionTableResolver",
    "basic_predicate_satisfied",
    "compose_all",
    "transition_predicate_satisfied",
]
