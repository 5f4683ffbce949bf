"""Reference condition evaluation: re-run every condition, every time.

Figure 1 of the paper evaluates a triggered rule's condition as a query
against the current state and the rule's transition tables. The engine's
``_check_condition`` does exactly that, and is production code — every
condition the incremental layer cannot maintain goes through it.
:class:`FullReevaluation` has ``IncrementalManager``'s hook surface,
keeps no views and no provenance, and answers ``"fallback"`` to every
:meth:`evaluate`, so an engine carrying it takes that arm for *every*
consideration: no maintained counter, no delta shortcut, no
refined-graph skip.

Test-only: it left ``src/`` together with the switch that selected it.
The incremental differential suite, the serializability matrix and the
inference-soundness configurations require an engine with the real
manager to fire the same rules in the same order with the same
condition values and the same final state (docs/semantics.md §12).
"""

from __future__ import annotations

from repro.core.incremental import IncrementalStats


class FullReevaluation:
    def __init__(self):
        self.stats = IncrementalStats()

    def evaluate(self, rule, info):
        return "fallback", None

    def stats_snapshot(self):
        return {}

    def _ignore(self, *args):
        """Transaction, fold and rule-set hooks: nothing is maintained,
        so there is nothing to begin, fold, invalidate or resume."""

    on_begin = on_commit = on_abort = _ignore
    before_transition = apply_transition = _ignore
    suspend = resume = discard_suspended = _ignore
    on_rule_defined = on_rule_dropped = _ignore


def install(db):
    """Make ``db`` (an ``ActiveDatabase``) re-evaluate every condition in
    full; returns it. Call before the first transaction."""
    db.engine.incremental = FullReevaluation()
    return db
