"""Delta-driven incremental rule-condition evaluation.

The quiescence loop re-evaluates every triggered rule's condition after
every transition; with N rules that is N condition queries per round,
each scanning its base tables from scratch (PERF-3a: 0.86ms → 2.85ms per
transaction from 1 → 128 rules). "Declarative Semantics for Active
Rules" frames rule conditions as *maintained derived relations* — this
module implements that framing for the maintainable fragment:

* conditions classify into counter conjuncts (base-table ``exists`` as
  persisted support counts, see :mod:`.classify` / :mod:`.views`) and
  delta conjuncts (transition-table ``exists``, O(delta) by
  construction);
* the engine's fold points — exactly where Figure 1 runs
  ``modify-trans-info`` — feed each transition's net ``[I, D, U]``
  effects to every affected view.

Full re-evaluation (the engine's ``_check_condition``) remains the
semantic oracle: any classification gap, maintenance error or
invalidation simply falls back to it, and
``tests/reference/full_reeval.py`` — this manager's hook surface with an
``evaluate`` that always answers ``"fallback"`` — runs whole programs
through nothing else. The invariance guarantee — same fired-rule
sequences, same final state, same trace either way — is
docs/semantics.md §12, enforced by the incremental differential suite.
"""

from __future__ import annotations

from ...relational.expressions import Evaluator, Scope
from ..transition_tables import TransitionTableResolver
from .classify import CounterConjunct, classify_condition
from .views import MaintainedView, NetDelta

#: cap on distinct maintained views; overflow clears wholesale
#: (correctness is refresh-on-miss anyway)
MAX_VIEWS = 512


class IncrementalStats:
    """Monotone counters for the incremental layer
    (``stats()["incremental"]``)."""

    __slots__ = (
        "classifications",
        "rules_classified",
        "rules_unclassifiable",
        "view_refreshes",
        "deltas_applied",
        "delta_rows",
        "hits",
        "refreshes",
        "fallbacks",
        "invalidations",
        "errors",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        self.classifications = 0
        self.rules_classified = 0
        self.rules_unclassifiable = 0
        self.view_refreshes = 0
        self.deltas_applied = 0
        self.delta_rows = 0
        self.hits = 0
        self.refreshes = 0
        self.fallbacks = 0
        self.invalidations = 0
        self.errors = 0


class IncrementalManager:
    """Owns the maintenance plans and the shared views.

    The engine calls the ``on_*``/``before_transition``/
    ``apply_transition`` hooks at its transaction and fold points and
    :meth:`evaluate` from the consideration loop; everything else is
    internal.
    """

    def __init__(self, database):
        self.database = database
        self.stats = IncrementalStats()
        self._plans = {}        # rule name -> (schema_version, plan|None)
        self._views = {}        # (table, binding, where) -> MaintainedView
        self._touched = set()   # views written during the open transaction
        self._expected_version = -1

    # ------------------------------------------------------------------
    # transaction lifecycle (engine hooks)

    def on_begin(self):
        self._touched = set()

    def on_commit(self):
        self._touched = set()

    def on_abort(self):
        """Transaction rollback restores tuples through the undo log
        without bumping ``database.version`` — every view written during
        the transaction now reflects discarded state and must refresh."""
        for view in self._touched:
            if not view.stale:
                view.stale = True
                self.stats.invalidations += 1
        self._touched = set()

    def suspend(self):
        """Bundle the per-transaction state for a context switch (the
        concurrency coordinator multiplexes transactions over one
        engine); the manager returns to its idle configuration."""
        state = (self._touched, self._expected_version)
        self._touched = set()
        self._expected_version = -1
        return state

    def resume(self, state):
        """Restore state captured by :meth:`suspend`. The stale
        ``_expected_version`` is deliberate: the database version moved
        while we were suspended, so the next ``before_transition``
        distrusts every view — they may hold another session's folds."""
        self._touched, self._expected_version = state

    def discard_suspended(self, state):
        """Abort a suspended transaction: invalidate the views it
        touched, exactly as :meth:`on_abort` would have."""
        touched, _ = state
        for view in touched:
            if not view.stale:
                view.stale = True
                self.stats.invalidations += 1

    def before_transition(self):
        """Called before a block or rule action executes: if the
        database version moved since our last synchronization, some
        mutation bypassed the fold hooks (direct ``Database`` use, a
        rolled-back partial block) — distrust every view."""
        if self._expected_version != self.database.version:
            self._invalidate_all()
            self._expected_version = self.database.version

    def apply_transition(self, effect):
        """Fold one transition's net effect (a
        :class:`~repro.core.effects.TransitionEffect`) into every
        affected view (called from the engine's ``modify-trans-info``
        point, right after the transition's operations executed)."""
        database = self.database
        if not self._views:
            self._expected_version = database.version
            return
        touched = {
            name: part for name, part in effect.tables.items()
            if part.inserted or part.deleted or part.updated
        }
        deltas = {}
        for view in self._views.values():
            if view.broken or view.stale:
                continue
            if view.schema_version != database.schema_version:
                view.stale = True
                continue
            part = touched.get(view.table)
            if part is not None:
                try:
                    delta = deltas.get(view.table)
                    if delta is None:
                        delta = deltas[view.table] = NetDelta(
                            database.table(view.table), part)
                    self.stats.delta_rows += view.apply_net(database, delta)
                except Exception:
                    # Never surface maintenance errors: the rule falls
                    # back to full evaluation, where a genuine error
                    # raises through the ordinary path.
                    view.stale = True
                    self.stats.errors += 1
                    continue
                self.stats.deltas_applied += 1
                self._touched.add(view)
            # Untouched-table views are unaffected by this transition;
            # either way the view now matches the post-transition state.
            # mark_synced (not a bare version stamp) also records the
            # table's mutation counter — the concurrent-writer tripwire:
            # one session's fold can no longer certify a view against
            # state another session is about to swap out from under it.
            view.mark_synced(database)
        self._expected_version = database.version

    # ------------------------------------------------------------------
    # rule-set changes

    def on_rule_defined(self, rule):
        self._plans.pop(rule.name, None)

    def on_rule_dropped(self, name):
        self._plans.pop(name, None)

    # ------------------------------------------------------------------
    # condition evaluation

    def evaluate(self, rule, info):
        """Evaluate ``rule``'s condition incrementally; ``info`` is its
        trans-info.

        Returns ``(outcome, value)`` with outcome one of ``"hit"`` /
        ``"refresh"`` / ``"fallback"``; value is None on fallback (the
        engine then runs the full path).
        """
        plan = self._plan_for(rule)
        if plan is None:
            self.stats.fallbacks += 1
            return "fallback", None
        outcome = "hit"
        evaluator = None
        result = True
        on_read = getattr(self.database, "on_table_read", None)
        for conjunct in plan.conjuncts:
            if isinstance(conjunct, CounterConjunct):
                # A counter answer is semantically a read of the base
                # table even when no scan happens — concurrency control
                # must see it or a concurrent writer could slip past
                # validation.
                if on_read is not None:
                    on_read(conjunct.table)
                view, refreshed = self._live_view(conjunct)
                if view is None:
                    self.stats.fallbacks += 1
                    return "fallback", None
                if refreshed:
                    outcome = "refresh"
                if conjunct.negated:
                    value = view.count == 0
                else:
                    value = view.count > 0
            else:
                if evaluator is None:
                    resolver = TransitionTableResolver(self.database, info)
                    evaluator = Evaluator(
                        self.database, resolver,
                        self.database.statements.bound_node(
                            rule, pinned=True
                        ),
                    )
                # the machinery full evaluation uses for it: the
                # interpreter
                value = evaluator.evaluate_predicate(conjunct.node, Scope())
            if value is False:
                # Mirror the interpreter's conjunction short-circuit:
                # later conjuncts are not evaluated (and cannot raise).
                result = False
                break
            if value is None:
                result = None
        if outcome == "hit":
            self.stats.hits += 1
        else:
            self.stats.refreshes += 1
        return outcome, result

    def _plan_for(self, rule):
        schema_version = self.database.schema_version
        entry = self._plans.get(rule.name)
        if entry is not None and entry[0] == schema_version:
            return entry[1]
        try:
            plan = classify_condition(rule.condition, self.database)
        except Exception:  # pragma: no cover - defensive
            plan = None
            self.stats.errors += 1
        self.stats.classifications += 1
        if plan is None:
            self.stats.rules_unclassifiable += 1
        else:
            self.stats.rules_classified += 1
        self._plans[rule.name] = (schema_version, plan)
        return plan

    def _live_view(self, conjunct):
        """The healthy view for a counter conjunct, refreshing lazily.

        Returns ``(view, refreshed)``; ``(None, False)`` when the view is
        broken and the rule must fall back.
        """
        key = conjunct.view_key
        view = self._views.get(key)
        if view is None:
            if len(self._views) >= MAX_VIEWS:
                for discarded in self._views.values():
                    self.database.statements.release(discarded)
                self._views.clear()
            view = MaintainedView(
                conjunct.table, conjunct.binding, conjunct.where
            )
            self._views[key] = view
        if view.broken:
            return None, False
        if view.in_sync(self.database):
            return view, False
        try:
            view.refresh(self.database)
        except Exception:
            view.broken = True
            self.stats.errors += 1
            return None, False
        self.stats.view_refreshes += 1
        # A refresh inside a transaction reads uncommitted state: if the
        # transaction aborts, the count must not survive.
        self._touched.add(view)
        return view, True

    # ------------------------------------------------------------------
    # invalidation & observability

    def _invalidate_all(self):
        for view in self._views.values():
            if not view.stale and not view.broken:
                view.stale = True
                self.stats.invalidations += 1

    def stats_snapshot(self):
        stats = self.stats
        return {
            "views": len(self._views),
            "classifications": stats.classifications,
            "rules_classified": stats.rules_classified,
            "rules_unclassifiable": stats.rules_unclassifiable,
            "view_refreshes": stats.view_refreshes,
            "deltas_applied": stats.deltas_applied,
            "delta_rows": stats.delta_rows,
            "hits": stats.hits,
            "refreshes": stats.refreshes,
            "fallbacks": stats.fallbacks,
            "invalidations": stats.invalidations,
            "errors": stats.errors,
        }
