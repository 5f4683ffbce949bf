"""Dynamic order-sensitivity probing.

The static conflict check (:func:`repro.analysis.analyze`) is
conservative: it flags rule pairs whose firing order *may* affect the
final state. This module provides the dynamic counterpart the paper's §6
tooling vision implies: execute the same transaction on identical
databases with the two candidate orders forced, and compare the final
states. A confirmed divergence is a concrete witness that the pair needs
a ``create rule priority`` decision; agreement on the probe workload is
evidence (not proof) of commutativity.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..core.selection import TotalOrder
from ..records import Record
from ..relational.types import sort_key
from .program import analyze


def canonical_state(db: Any) -> dict:
    """A handle-free, order-free rendering of the database contents:
    ``{table: sorted list of row tuples}`` — comparable across separately
    built database instances."""
    state = {}
    for name in db.database.table_names():
        rows = db.database.table(name).rows()
        state[name] = sorted(
            rows, key=lambda row: tuple(sort_key(value) for value in row)
        )
    return state


class ProbeResult(Record):
    """Outcome of one order-sensitivity probe.

    Attributes:
        first/second: the rule pair probed.
        order_sensitive: True if the two forced orders produced different
            final states (or different commit/rollback outcomes).
        state_first_first: canonical state when ``first`` was considered
            first; ``state_second_first`` likewise.
        outcome_first_first / outcome_second_first: ``None`` for commit,
            else the name of the rule that rolled the transaction back.
    """

    first: str
    second: str
    order_sensitive: bool
    state_first_first: dict
    state_second_first: dict
    outcome_first_first: object = None
    outcome_second_first: object = None

    def describe(self) -> str:
        if not self.order_sensitive:
            return (
                f"rules {self.first!r} and {self.second!r} commuted on the "
                "probe workload"
            )
        return (
            f"rules {self.first!r} and {self.second!r} are ORDER SENSITIVE: "
            "the probe workload reaches different final states depending on "
            "which is considered first — add a "
            f"'create rule priority' pairing"
        )


def probe_order_sensitivity(factory: Callable[[], Any], block: Any,
                            first: str, second: str) -> ProbeResult:
    """Run ``block`` under both forced orders of a rule pair.

    Args:
        factory: zero-argument callable building a fresh, fully populated
            :class:`~repro.system.ActiveDatabase` with all rules defined
            (called twice; must be deterministic).
        block: the triggering operation block (SQL text or AST).
        first/second: names of the rule pair to probe.

    Returns:
        :class:`ProbeResult`.
    """
    snapshots = []
    outcomes = []
    for order in ((first, second), (second, first)):
        db = factory()
        remaining = [
            name for name in db.rule_names() if name not in order
        ]
        db.engine.strategy = TotalOrder(list(order) + remaining)
        result = db.execute(block)
        snapshots.append(canonical_state(db))
        outcomes.append(result.rolled_back_by)
    sensitive = snapshots[0] != snapshots[1] or outcomes[0] != outcomes[1]
    return ProbeResult(
        first=first,
        second=second,
        order_sensitive=sensitive,
        state_first_first=snapshots[0],
        state_second_first=snapshots[1],
        outcome_first_first=outcomes[0],
        outcome_second_first=outcomes[1],
    )


def probe_conflicts(factory: Callable[[], Any], block: Any,
                    warnings: Optional[Sequence] = None,
                    ) -> list[ProbeResult]:
    """Probe every statically-flagged conflict pair against a workload.

    ``warnings`` defaults to running the static analysis on a freshly
    built database's catalog. Returns the list of :class:`ProbeResult`,
    order-sensitive ones first.
    """
    if warnings is None:
        warnings = analyze(factory().catalog).conflicts
    results = [
        probe_order_sensitivity(factory, block, warning.first, warning.second)
        for warning in warnings
    ]
    results.sort(key=lambda result: not result.order_sensitive)
    return results
