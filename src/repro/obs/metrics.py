"""Per-rule and per-engine metrics, aggregated from the event stream.

The collector is an ordinary :class:`~repro.obs.sinks.EventSink`; it is
attached to the engine's bus at construction and takes the kinds it
folds, so every counter is derived from exactly the events any other
sink would see. ``snapshot()`` renders everything as plain dicts
(JSON-ready), which is what ``RuleEngine.stats()`` returns.
"""

from __future__ import annotations

from ..relational.stats import RULE_FIELDS
from .events import EventKind
from .sinks import EventSink

#: where the incremental outcome counts sit among :data:`RULE_FIELDS`
_BATCHES = RULE_FIELDS.index("batches_scanned")


class RuleMetrics:
    """Counters for one rule, in :meth:`snapshot` order."""

    __slots__ = (
        "considerations", "fires", "condition_true", "condition_false",
        "condition_unknown", "condition_time", "action_time",
        "rows_inserted", "rows_deleted", "rows_updated",
        *RULE_FIELDS[:_BATCHES], "incremental_hits",
        "incremental_refreshes", "incremental_fallbacks",
        *RULE_FIELDS[_BATCHES:], "peak_trans_info_size", "resets",
        "rollbacks",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)
        self.condition_time = 0.0
        self.action_time = 0.0
        self.resets = {}

    def snapshot(self):
        snapshot = {name: getattr(self, name) for name in self.__slots__}
        snapshot["resets"] = dict(self.resets)
        return snapshot


class MetricsCollector(EventSink):
    """Aggregates the event stream into engine- and rule-level counters."""

    kinds = frozenset({
        EventKind.RULE_CONSIDERED, EventKind.RULE_FIRED,
        EventKind.BLOCK_EXECUTED, EventKind.TRANS_INFO_RESET,
        EventKind.QUIESCENT, EventKind.TXN_BEGIN, EventKind.TXN_COMMIT,
        EventKind.TXN_ABORT, EventKind.ROLLBACK_BY_RULE,
        EventKind.LOOP_BUDGET_TRIP, EventKind.TXN_CONFLICT,
        EventKind.TXN_RETRY, EventKind.SESSION_OPEN, EventKind.SESSION_CLOSE,
    })

    def __init__(self):
        self.reset()

    def reset(self):
        """Zero every counter (a fresh measurement window)."""
        self.transactions = 0
        self.commits = 0
        self.aborts = 0
        self.rollbacks_by_rule = 0
        self.loop_budget_trips = 0
        self.conflicts = 0
        self.retries = 0
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.external_blocks = 0
        self.rule_transitions = 0
        self.considerations = 0
        self.quiescence_rounds = 0
        self.max_quiescence_rounds = 0
        self.selection_time = 0.0
        self.peak_trans_info_size = 0
        self.rules = {}

    # ------------------------------------------------------------------

    def rule(self, name):
        metrics = self.rules.get(name)
        if metrics is None:
            metrics = self.rules[name] = RuleMetrics()
        return metrics

    def emit(self, event):
        kind = event.kind
        data = event.data
        if kind == EventKind.RULE_CONSIDERED:
            self._on_considered(data)
        elif kind == EventKind.RULE_FIRED:
            self._on_fired(data)
        elif kind == EventKind.BLOCK_EXECUTED:
            self.external_blocks += 1
        elif kind == EventKind.TRANS_INFO_RESET:
            metrics = self.rule(data["rule"])
            cause = data["cause"]
            metrics.resets[cause] = metrics.resets.get(cause, 0) + 1
        elif kind == EventKind.QUIESCENT:
            rounds = data["rounds"]
            self.quiescence_rounds += rounds
            self.max_quiescence_rounds = max(self.max_quiescence_rounds, rounds)
            self.selection_time += data.get("selection_time", 0.0)
        elif kind == EventKind.TXN_BEGIN:
            self.transactions += 1
        elif kind == EventKind.TXN_COMMIT:
            self.commits += 1
        elif kind == EventKind.TXN_ABORT:
            self.aborts += 1
        elif kind == EventKind.ROLLBACK_BY_RULE:
            self.rollbacks_by_rule += 1
            self.rule(data["rule"]).rollbacks += 1
        elif kind == EventKind.LOOP_BUDGET_TRIP:
            self.loop_budget_trips += 1
        elif kind == EventKind.TXN_CONFLICT:
            self.conflicts += 1
        elif kind == EventKind.TXN_RETRY:
            self.retries += 1
        elif kind == EventKind.SESSION_OPEN:
            self.sessions_opened += 1
        elif kind == EventKind.SESSION_CLOSE:
            self.sessions_closed += 1

    def _on_considered(self, data):
        self.considerations += 1
        metrics = self.rule(data["rule"])
        metrics.considerations += 1
        metrics.condition_time += data.get("duration", 0.0)
        condition = data.get("condition")
        if condition is True:
            metrics.condition_true += 1
        elif condition is False:
            metrics.condition_false += 1
        else:
            metrics.condition_unknown += 1
        self._fold_counters(metrics, data)
        self._fold_incremental(metrics, data)
        self._track_info_size(metrics, data)

    def _on_fired(self, data):
        self.rule_transitions += 1
        metrics = self.rule(data["rule"])
        metrics.fires += 1
        metrics.action_time += data.get("duration", 0.0)
        effect = data.get("effect")
        if effect is not None:
            inserted, deleted, updated, _ = effect.counts()
            metrics.rows_inserted += inserted
            metrics.rows_deleted += deleted
            metrics.rows_updated += updated
        self._fold_counters(metrics, data)
        self._track_info_size(metrics, data)

    def _fold_counters(self, metrics, data):
        """Charge the evaluation counters the engine attaches to
        consideration/firing events (:data:`RULE_FIELDS`, absent when
        a bare test double emits the event) to the rule."""
        for name, increment in data.get("counters", {}).items():
            setattr(metrics, name, getattr(metrics, name) + increment)

    def _fold_incremental(self, metrics, data):
        """Count how this consideration's condition was answered by the
        incremental layer (None when the layer was inactive or the rule
        has no condition)."""
        delta = data.get("incremental")
        if not delta:
            return
        outcome = delta.get("outcome")
        if outcome == "hit":
            metrics.incremental_hits += 1
        elif outcome == "refresh":
            metrics.incremental_refreshes += 1
        elif outcome == "fallback":
            metrics.incremental_fallbacks += 1

    def _track_info_size(self, metrics, data):
        size = data.get("trans_info_size")
        if size is not None and size > metrics.peak_trans_info_size:
            metrics.peak_trans_info_size = size
            if size > self.peak_trans_info_size:
                self.peak_trans_info_size = size

    # ------------------------------------------------------------------

    def snapshot(self, strategy=None, planner=None, compiler=None,
                 vectorized=None, optimizer=None, durability=None,
                 incremental=None, server=None, analysis=None, events=0):
        """The full stats dict (``RuleEngine.stats()``'s return value).

        ``events`` is the number of events the bus emitted in this
        window, of every kind, including those no collector folds.

        ``planner`` (plan-cache hit rate, rows scanned/visited/returned),
        ``compiler`` (expression compiles, compiled-cache hit rate,
        interpreter fallbacks), ``vectorized`` (batch-kernel scans,
        selection-vector hit ratio, per-row fallbacks) and ``optimizer``
        (zone-map prune counters) are the sections
        :meth:`~repro.relational.stats.EvaluationCounters.sections`
        renders from the database's one counter set; they cover *all*
        query evaluation on the database, while the per-rule counters
        cover only condition/action evaluations. ``durability``
        is the attached manager's
        :meth:`~repro.durability.manager.DurabilityManager.stats_snapshot`
        (WAL bytes/records/latency, checkpoints, recovery), present only
        when durability is enabled. ``incremental`` is the engine's
        :meth:`~repro.core.incremental.IncrementalManager.stats_snapshot`
        (maintained views, delta applications, hit/refresh/fallback
        counts for the delta-driven condition layer).
        ``server`` is the concurrency coordinator's
        :meth:`~repro.concurrency.control.ConcurrencyStats.snapshot`
        (sessions, statements, conflicts/retries/aborts, context
        switches), present only when the engine runs behind the
        coordinator; the bus-derived conflict/retry/session counters
        appear inside the engine section regardless. ``analysis`` is
        ``errors`` (analyses that raised) and, once something has built
        the static analysis, its conflict advisory
        (:meth:`~repro.core.engine.RuleEngine.conflict_advisory`).
        """
        engine = {
            "transactions": self.transactions,
            "commits": self.commits,
            "aborts": self.aborts,
            "rollbacks_by_rule": self.rollbacks_by_rule,
            "loop_budget_trips": self.loop_budget_trips,
            "conflicts": self.conflicts,
            "retries": self.retries,
            "sessions_opened": self.sessions_opened,
            "sessions_closed": self.sessions_closed,
            "external_blocks": self.external_blocks,
            "rule_transitions": self.rule_transitions,
            "considerations": self.considerations,
            "quiescence_rounds": self.quiescence_rounds,
            "max_quiescence_rounds": self.max_quiescence_rounds,
            "selection_time": self.selection_time,
            "peak_trans_info_size": self.peak_trans_info_size,
            "events": events,
        }
        if strategy is not None:
            engine["strategy"] = strategy
        result = {
            "engine": engine,
            "rules": {
                name: metrics.snapshot()
                for name, metrics in sorted(self.rules.items())
            },
        }
        sections = {
            "planner": planner, "compiler": compiler,
            "vectorized": vectorized, "optimizer": optimizer,
            "durability": durability, "incremental": incremental,
            "server": server, "analysis": analysis,
        }
        result.update(
            (name, section) for name, section in sections.items()
            if section is not None
        )
        return result
