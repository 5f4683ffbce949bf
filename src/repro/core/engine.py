"""The rule execution engine (paper Section 4 and Figure 1).

The engine realizes the paper's model of system execution:

1. An externally-generated operation block executes, creating a
   transition (one block per transaction in the default, §4 model).
2. Rules are repeatedly considered and executed — each execution creating
   a further transition — until no triggered rule has a true condition,
   or a ``rollback`` action aborts the transaction.
3. The transaction commits.

Per Figure 1, each rule carries composite transition information
starting from the state in which its action last executed (or the
transaction start): after a rule R fires, R's trans-info restarts from
R's own transition while every other rule's trans-info composes the new
transition in (``modify-trans-info``). The engine keeps that as one
:class:`~repro.core.effects.TransitionLog` per transaction — each
transition netted once, a cursor per rule — and rule triggering,
condition evaluation and action execution all read a rule's composite
from it, which is exactly how the §4.2 semantics ("composite effects")
becomes implementable without storing full past states.

The §5.3 extension (user-defined rule triggering points) is available
through the manual transaction API: :meth:`begin` /
:meth:`execute_block` / :meth:`assert_rules` / :meth:`commit`.
"""

from __future__ import annotations

from time import perf_counter

from ..errors import (
    ConflictError,
    ExecutionError,
    RollbackRequested,
    RuleLoopError,
    TransactionError,
)
from ..obs.bus import EventBus
from ..obs.events import EventKind
from ..obs.metrics import MetricsCollector
from ..obs.recorder import TraceRecorder
from ..relational.database import Database
from ..relational.dml import DmlExecutor
from ..relational.expressions import Evaluator, Scope
from ..relational.select import BaseTableResolver, evaluate_select
from ..sql import ast, parse_statement
from ..sql.parser import parse_transition_predicates
from .effects import TransitionEffect, TransitionLog
from .external import ExternalAction, ExternalActionContext
from .incremental import IncrementalManager
from .predicates import transition_predicate_satisfied
from .rules import RuleCatalog
from .selection import default_strategy
from .trace import TransactionResult
from .transition_tables import TransitionTableResolver


class _SuspendedTransaction:
    """Everything one open transaction owns inside the engine, bundled
    for a context switch (see :meth:`RuleEngine.suspend_transaction`)."""

    __slots__ = ("detached", "log", "considered_at", "clock",
                 "transition_index", "result", "recorder", "txn_id",
                 "incremental_state")

    def __init__(self, detached, log, considered_at, clock, transition_index,
                 result, recorder, txn_id, incremental_state):
        self.detached = detached
        self.log = log
        self.considered_at = considered_at
        self.clock = clock
        self.transition_index = transition_index
        self.result = result
        self.recorder = recorder
        self.txn_id = txn_id
        self.incremental_state = incremental_state


class RuleEngine:
    """Executes operation blocks with set-oriented production rules.

    Args:
        database: the :class:`~repro.relational.database.Database` to run
            against (a fresh one is created when omitted).
        catalog: a :class:`~repro.core.rules.RuleCatalog` (fresh if omitted).
        strategy: a rule :class:`~repro.core.selection.SelectionStrategy`;
            defaults to the paper's priority partial order.
        max_rule_transitions: per-transaction budget of rule-generated
            transitions; exceeding it rolls the transaction back and
            raises :class:`~repro.errors.RuleLoopError` (the deterministic
            equivalent of footnote 7's timeout suggestion).
        track_selects: enable the §5.1 extension (``selected`` transition
            predicates and the S effect component).
        record_seen: capture, per rule firing, what the rule's transition
            tables contained (needed to assert the paper's example
            narratives; small overhead — disable for benchmarks).
        sink: an optional :class:`~repro.obs.sinks.EventSink` receiving
            the engine's structured event stream (default: none — the
            zero-overhead equivalent of a
            :class:`~repro.obs.sinks.NullSink`). More sinks can be added
            with :meth:`attach_sink`.
        durability: an optional
            :class:`~repro.durability.manager.DurabilityManager`. When
            present, each transaction's composed net effect is appended
            to the write-ahead log (fsync'd) after rule quiescence and
            *before* the commit is acknowledged — the WAL append is the
            durable commit point. None (the default) is behavior-
            identical to an engine without the durability subsystem.
    """

    def __init__(self, database=None, catalog=None, strategy=None,
                 max_rule_transitions=10000, track_selects=False,
                 record_seen=True, sink=None, durability=None):
        self.database = database if database is not None else Database()
        self.catalog = catalog if catalog is not None else RuleCatalog()
        self.catalog.database = self.database
        self.strategy = strategy if strategy is not None else default_strategy()
        self.max_rule_transitions = max_rule_transitions
        self.track_selects = track_selects
        self.record_seen = record_seen
        self.durability = durability

        self._bus = EventBus()
        self._metrics = MetricsCollector()
        self._bus.attach(self._metrics)
        if sink is not None:
            self._bus.attach(sink)
        self._events_at_reset = 0  # bus events before the stats window
        self._recorder = None      # per-transaction TraceRecorder
        self._txn_id = 0
        self._txn_seq = 0          # allocation high-water mark (resume-safe)

        self._log = None           # the open txn's TransitionLog
        self._considered_at = {}   # rule name -> logical consideration time
        self._clock = 0
        self._transition_index = 0
        self._result = None        # TransactionResult of the open txn
        self._base_resolver = BaseTableResolver(self.database)
        #: delta-driven condition evaluation (docs/semantics.md §12):
        #: maintainable conditions are answered from maintained views,
        #: everything else falls back to _check_condition
        self.incremental = IncrementalManager(self.database)

        #: concurrency-layer hooks (see repro.concurrency). pause_hook
        #: (``callable(point)``) is invoked at the named interleaving
        #: points — ``"rule_consideration"`` before each condition
        #: evaluation and ``"wal_append"`` after quiescence, just before
        #: the durable commit point; the tests/concurrency driver and
        #: the coordinator's cooperative yield both hang off it.
        #: pre_commit_hook runs right before the WAL append and may
        #: raise ConflictError: the coordinator revalidates there as a
        #: safety check, though conflicts are caught earlier, when a
        #: parked or idle session is remounted. concurrency, when set,
        #: is the coordinator's stats object; its snapshot becomes
        #: ``stats()["server"]``.
        self.pause_hook = None
        self.pre_commit_hook = None
        self.concurrency = None

    # ------------------------------------------------------------------
    # observability

    def attach_sink(self, sink):
        """Attach an event sink (see :mod:`repro.obs`); returns it."""
        return self._bus.attach(sink)

    def detach_sink(self, sink):
        """Detach a previously attached event sink."""
        self._bus.detach(sink)

    def stats(self):
        """Per-engine and per-rule counters as a plain (JSON-ready) dict.

        ``{"engine": {...}, "rules": {name: {...}}}`` — see
        :class:`~repro.obs.metrics.MetricsCollector` for the fields.
        Counters accumulate across transactions until :meth:`reset_stats`.
        ``"analysis"`` is :meth:`conflict_advisory` once something has
        built the static analysis (``lint()``, ``analyze()``, a sink
        taking ``lint_diagnostic``, a classified OCC conflict), and
        ``{"errors": 0}`` until then: reading stats builds nothing.
        """
        database = self.database
        sections = database.counters.sections(database.enable_vectorized_eval)
        sections["planner"]["statement_cache"] = database.statements.snapshot()
        return self._metrics.snapshot(
            strategy=getattr(self.strategy, "name", None),
            **sections,
            durability=(
                self.durability.stats_snapshot()
                if self.durability is not None
                else None
            ),
            incremental=self.incremental.stats_snapshot(),
            server=(
                self.concurrency.snapshot()
                if self.concurrency is not None
                else None
            ),
            analysis=(
                self.conflict_advisory()
                if self.catalog.analysis is not None
                else {"errors": 0}
            ),
            events=self._bus.events_emitted - self._events_at_reset,
        )

    def conflict_advisory(self):
        """The static conflict forecast of the current catalog
        (:meth:`~repro.analysis.program.ProgramAnalysis.advisory` —
        built on first call, then a lookup unless the catalog changed)
        plus ``errors``, the analyses that raised. The OCC coordinator
        classifies each observed ``txn_conflict`` against its
        ``contended_tables``. Never raises: observability and conflict
        clean-up must survive an analyzer bug."""
        analysis = self.analysis
        try:
            advisory = analysis.advisory()
        except Exception:
            analysis.errors += 1
            advisory = {}
        return dict(advisory, errors=analysis.errors)

    @property
    def analysis(self):
        """The static analysis of this engine's catalog
        (:class:`~repro.analysis.program.ProgramAnalysis`): every rule
        walked on first request, one triggering graph per catalog
        version; ``lint()``, ``analyze()``, ``stats()["analysis"]`` and
        the coordinator's conflict classification read it. Execution
        does not: no kernel, plan or condition answer depends on it,
        and an engine nobody asks never imports :mod:`repro.analysis`."""
        from ..analysis.program import analysis_of

        return analysis_of(self.catalog, self.database)

    def _emit_recovery(self, info):
        """Emit the ``recovery`` event (called by
        :func:`repro.durability.recovery.recover` on the rebuilt engine)."""
        self._emit(EventKind.RECOVERY, **info)

    def reset_stats(self):
        """Zero all counters (a fresh measurement window)."""
        self._metrics.reset()
        self._events_at_reset = self._bus.events_emitted
        self.database.counters.reset()
        self.incremental.stats.reset()

    def _emit(self, kind, **data):
        self._bus.emit(kind, self._txn_id, data)

    # ------------------------------------------------------------------
    # rule definition

    def define_rule(self, definition, reset_policy="execution"):
        """Define a rule from a ``create rule`` statement (text or AST).

        ``reset_policy`` selects the footnote-8 re-triggering baseline:
        ``"execution"`` (the paper's primary semantics, default),
        ``"consideration"``, or ``"triggering"`` ([WF89b]).
        """
        if isinstance(definition, str):
            definition = parse_statement(definition)
        if not isinstance(definition, ast.CreateRule):
            raise ExecutionError(
                "define_rule expects a 'create rule' statement, got "
                f"{type(definition).__name__}"
            )
        rule = self.catalog.create_rule_from_ast(definition, reset_policy)
        self._register_rule(rule)
        return rule

    def define_external_rule(self, name, when, procedure, condition=None,
                             description=None, reset_policy="execution"):
        """Define a rule whose action is a Python procedure (§5.2).

        Args:
            name: rule name.
            when: transition-predicate text, e.g.
                ``"inserted into emp or updated emp.salary"``.
            procedure: ``callable(context)`` — see
                :class:`~repro.core.external.ExternalActionContext`.
            condition: optional SQL condition text (may reference the
                rule's transition tables).
            description: human-readable label for the procedure.
        """
        predicates = parse_transition_predicates(when)
        condition_ast = None
        if condition is not None:
            from ..sql.parser import parse_expression

            condition_ast = parse_expression(condition)
        action = ExternalAction(procedure, description)
        rule = self.catalog.create_rule(
            name, predicates, condition_ast, action, reset_policy
        )
        self._register_rule(rule)
        return rule

    def drop_rule(self, name):
        self.database.statements.release(self.catalog.rule(name))
        self.catalog.drop_rule(name)
        if self._log is not None:
            self._log.forget(name)
        self._considered_at.pop(name, None)
        self.incremental.on_rule_dropped(name)

    def add_priority(self, higher, lower):
        """``create rule priority higher before lower`` (§4.4)."""
        self.catalog.add_priority(higher, lower)

    def _register_rule(self, rule):
        # A rule defined mid-transaction starts with an empty baseline: it
        # observes only transitions that occur after its definition.
        if self.in_transaction:
            self._log.restart(rule.name)
            self._emit(
                EventKind.TRANS_INFO_RESET, rule=rule.name, cause="registered"
            )
        # (Re)definition invalidates the incremental layer's per-rule
        # plan; the static analysis follows the catalog's version. It
        # walks the rule now only for a sink that takes its findings
        # (advisory, and never raised: an analysis that raises is one
        # "internal" finding); everyone else walks it on first request.
        self.incremental.on_rule_defined(rule)
        if self._bus.wants(EventKind.LINT_DIAGNOSTIC):
            for diagnostic in self.analysis.on_rule_defined(rule):
                self._emit(EventKind.LINT_DIAGNOSTIC, **diagnostic.to_dict())

    def _rule_bound(self, rule):
        """The rule as a statement: its pinned cache entry (the plans
        and programs of its condition and action live as long as the
        rule does) and nothing to bind — a rule keeps its literals."""
        return self.database.statements.bound_node(rule, pinned=True)

    # ------------------------------------------------------------------
    # transactions

    @property
    def in_transaction(self):
        return self.database.transactions.active

    def begin(self):
        """Start a transaction (manual mode, for §5.3 triggering points)."""
        self.database.transactions.begin()
        self._log = TransitionLog(rule.name for rule in self.catalog)
        # Consideration recency restarts with the transaction: recency
        # strategies order rules within one transaction's quiescence
        # loop, and stale clocks from earlier transactions would leak
        # their consideration history into this one's ordering.
        self._considered_at = {}
        self._clock = 0
        self._transition_index = 0
        self._result = TransactionResult()
        # Allocation goes through a high-water mark: with suspended
        # transactions, _txn_id tracks the *mounted* transaction (which
        # may be older than the newest allocated id) and a plain
        # increment could reuse an id.
        self._txn_seq = max(self._txn_seq, self._txn_id) + 1
        self._txn_id = self._txn_seq
        self.incremental.on_begin()
        self._recorder = self._bus.attach(TraceRecorder(self._result))
        self._emit(EventKind.TXN_BEGIN)

    def commit(self):
        """Process rules, then commit; returns the transaction's result."""
        self._require_transaction()
        result = self._result
        try:
            self._quiesce()
        except RollbackRequested as request:
            self._abort(reason="rollback_by_rule", rule=request.rule_name)
            result.committed = False
            result.rolled_back_by = request.rule_name
            return result
        except Exception:
            self._abort(reason="error")
            raise
        if self.pause_hook is not None:
            self.pause_hook("wal_append")
        if self.pre_commit_hook is not None:
            # Backward validation at the serialization point: quiescence
            # is complete (the read/write sets cover every row fired
            # rules touched) and nothing has reached the WAL yet.
            try:
                self.pre_commit_hook()
            except ConflictError:
                self._abort(reason="conflict")
                raise
        if self.durability is not None:
            # The durable commit point: the transaction's composed net
            # effect reaches the fsync'd WAL after quiescence and before
            # the in-memory commit is acknowledged. A failure here (IO
            # error or injected crash) means the transaction did not
            # commit — unless the record was already fully written, in
            # which case recovery will (correctly) replay it.
            try:
                info = self.durability.log_commit(
                    self._txn_id, self._log.transaction, self.database
                )
            except Exception:
                self._abort(reason="wal_error",
                            wal_failure=self.durability.wal.failure)
                raise
            if info is not None:  # None: a read-only transaction
                self._emit(
                    EventKind.WAL_APPEND,
                    lsn=info["lsn"],
                    bytes=info["bytes"],
                    records=1,
                    duration=info["duration"],
                )
        self.database.transactions.commit()
        self.incremental.on_commit()
        self._emit(
            EventKind.TXN_COMMIT,
            transitions=len(result.transitions),
            rule_transitions=result.rule_firings,
        )
        self._end_transaction()
        result.committed = True
        return result

    def rollback(self):
        """Explicitly roll back the open transaction."""
        self._require_transaction()
        result = self._result
        self._abort(reason="explicit")
        result.committed = False
        return result

    def assert_rules(self):
        """§5.3 rule triggering point: "the externally-generated transition
        is considered complete, rules are processed, and a new transition
        begins". Raises on rollback-by-rule like :meth:`commit`, but the
        transaction stays open on quiescence."""
        self._require_transaction()
        result = self._result
        try:
            self._quiesce()
        except RollbackRequested as request:
            # Attribute the abort exactly as commit() does: the TXN_ABORT
            # event names the rolling-back rule and the transaction's
            # result records it (the exception still propagates — unlike
            # commit(), assert_rules has no result to hand back).
            self._abort(reason="rollback_by_rule", rule=request.rule_name)
            result.committed = False
            result.rolled_back_by = request.rule_name
            raise
        except Exception:
            self._abort(reason="error")
            raise

    def execute_block(self, block, bound=None):
        """Execute an externally-generated operation block inside the open
        transaction (no rule processing yet — that happens at the next
        triggering point or at commit). Text goes through the statement
        cache; ``bound`` comes with a block that already did."""
        self._require_transaction()
        statements = self.database.statements
        if isinstance(block, str):
            block, bound = statements.parse(block)
        if not isinstance(block, ast.OperationBlock):
            raise ExecutionError(
                f"expected an operation block, got {type(block).__name__}"
            )
        executor = DmlExecutor(
            self.database, self._base_resolver, self.track_selects,
            bound or statements.bound_node(block),
        )
        self.incremental.before_transition()
        savepoint = self.database.transactions.savepoint()
        try:
            effects = []
            for operation in block.operations:
                effect = executor.execute_operation(operation)
                if isinstance(operation, ast.SelectOperation):
                    self._result.select_results.append(
                        executor.last_select_result
                    )
                if effect is not None:
                    effects.append(effect)
        except Exception:
            # Operation blocks are indivisible (§2.1): a failing block
            # leaves no partial effects behind.
            self.database.transactions.rollback_to_savepoint(savepoint)
            raise
        self._transition_index += 1
        block_effect = TransitionEffect.from_op_effects(effects)
        self._emit(
            EventKind.BLOCK_EXECUTED,
            transition=self._transition_index,
            effect=block_effect,
            operations=len(block.operations),
            rows=sum(effect.rows_affected for effect in effects),
        )
        self._log_transition(block_effect)
        if self.durability is not None:
            self.durability.crash_point("mid_block")
        return effects

    def run_block(self, block, bound=None):
        """One whole §4 transaction: execute the external block, process
        rules to quiescence, commit. Returns the
        :class:`~repro.core.trace.TransactionResult`.
        """
        if self.in_transaction:
            raise TransactionError(
                "run_block cannot be used inside an explicit transaction; "
                "use execute_block/assert_rules/commit"
            )
        self.begin()
        try:
            self.execute_block(block, bound)
        except Exception:
            self._abort()
            raise
        return self.commit()

    def _require_transaction(self):
        if not self.in_transaction or self._result is None:
            raise TransactionError("no transaction is active; call begin()")

    def _abort(self, reason="error", **details):
        if self.database.transactions.active:
            self.database.transactions.rollback()
        self.incremental.on_abort()
        data = {"reason": reason, **details}
        self._bus.emit(EventKind.TXN_ABORT, self._txn_id, data)
        self._end_transaction()

    def _end_transaction(self):
        if self._recorder is not None:
            self._bus.detach(self._recorder)
            self._recorder = None
        self._log = None
        self._result = None

    # ------------------------------------------------------------------
    # context switching (concurrency layer, PR 8)

    def suspend_transaction(self):
        """Detach the open transaction — its writes leave the physical
        database, its engine state is bundled into the returned context
        — so another session's transaction can mount. The coordinator
        (:mod:`repro.concurrency`) owns the validate-then-resume
        protocol; the engine only moves state.

        The database version is bumped so every version-keyed cache
        (uncorrelated-subquery results, maintained views) observes the
        state change; the replay itself goes through table-level
        mutators and bumps nothing else.
        """
        self._require_transaction()
        detached = self.database.transactions.detach()
        self.database.version += 1
        if self._recorder is not None:
            self._bus.detach(self._recorder)
        context = _SuspendedTransaction(
            detached=detached,
            log=self._log,
            considered_at=self._considered_at,
            clock=self._clock,
            transition_index=self._transition_index,
            result=self._result,
            recorder=self._recorder,
            txn_id=self._txn_id,
            incremental_state=self.incremental.suspend(),
        )
        self._recorder = None
        self._log = None
        self._considered_at = {}
        self._clock = 0
        self._transition_index = 0
        self._result = None
        return context

    def resume_transaction(self, context):
        """Remount a suspended transaction. The caller must have
        validated that no concurrent commit conflicts with it — a
        passing backward validation guarantees the physical replay
        cannot touch a dead handle."""
        if self.in_transaction:
            raise TransactionError(
                "cannot resume: another transaction is mounted"
            )
        self.database.transactions.attach(context.detached)
        self.database.version += 1
        self._log = context.log
        self._considered_at = context.considered_at
        self._clock = context.clock
        self._transition_index = context.transition_index
        self._result = context.result
        self._txn_id = context.txn_id
        self.incremental.resume(context.incremental_state)
        self._recorder = context.recorder
        if self._recorder is not None:
            self._bus.attach(self._recorder)

    def discard_suspended(self, context, reason="conflict"):
        """Abort a transaction while it is suspended: its writes are
        already detached, so nothing physical needs undoing — drop the
        logs, invalidate the views it touched, account the abort."""
        self.incremental.discard_suspended(context.incremental_state)
        if context.result is not None:
            context.result.committed = False
        self._bus.emit(
            EventKind.TXN_ABORT, context.txn_id, {"reason": reason}
        )

    # ------------------------------------------------------------------
    # queries (read-only, outside rule processing)

    def query(self, select):
        """Evaluate a read-only select against the current state."""
        bound = None
        if isinstance(select, str):
            select, bound = self.database.statements.parse_select(select)
        return evaluate_select(
            self.database, select, self._base_resolver, bound=bound
        )

    # ------------------------------------------------------------------
    # the rule processing loop (Figure 1)

    def _quiesce(self):
        """Repeatedly select and execute eligible rules until none remain.

        One iteration = one consideration round over the currently
        triggered rules in strategy order; the first rule whose condition
        holds fires (Figure 1's ``select-eligible-rule``), its action
        creates a transition, and triggering is re-derived from the
        updated per-rule transition information.
        """
        result = self._result
        counts = self.database.counters
        rule_transitions = 0
        rounds = 0
        selection_time = 0.0
        while True:
            rounds += 1
            triggered = [
                rule
                for rule in self.catalog
                if rule.active
                and transition_predicate_satisfied(
                    rule.predicates, self._log.info(rule.name)
                )
            ]
            selection_start = perf_counter()
            ordered = self.strategy.order(
                triggered, self.catalog, self._considered_at
            )
            selection_time += perf_counter() - selection_start
            fired = None
            for rule in ordered:
                if self.pause_hook is not None:
                    self.pause_hook("rule_consideration")
                self._clock += 1
                self._considered_at[rule.name] = self._clock
                before = counts.counters()
                condition_start = perf_counter()
                condition_value, incremental_delta = (
                    self._evaluate_condition(rule)
                )
                condition_elapsed = perf_counter() - condition_start
                # Every consideration is recorded — the firing one
                # included — so consideration counts match what the
                # engine actually evaluated.
                self._emit(
                    EventKind.RULE_CONSIDERED,
                    rule=rule.name,
                    condition=condition_value,
                    fired=condition_value is True,
                    after_transition=self._transition_index,
                    duration=condition_elapsed,
                    trans_info_size=self._log.info(rule.name).size(),
                    counters=counts.delta_since(before),
                    incremental=incremental_delta,
                )
                if condition_value is True:
                    fired = rule
                    break
                if rule.reset_policy == "consideration":
                    # footnote 8 alternative: the baseline moves to "the
                    # most recent point at which it was chosen for
                    # consideration" — a non-firing consideration (false
                    # OR unknown condition) consumes the rule's
                    # accumulated transition information.
                    self._log.restart(rule.name)
                    self._emit(
                        EventKind.TRANS_INFO_RESET,
                        rule=rule.name,
                        cause="consideration",
                    )
            if fired is None:
                self._emit(
                    EventKind.QUIESCENT,
                    rounds=rounds,
                    rule_transitions=rule_transitions,
                    selection_time=selection_time,
                )
                return

            if fired.is_rollback:
                self._emit(EventKind.ROLLBACK_BY_RULE, rule=fired.name)
                raise RollbackRequested(fired.name)

            rule_transitions += 1
            if rule_transitions > self.max_rule_transitions:
                self._emit(
                    EventKind.LOOP_BUDGET_TRIP,
                    limit=self.max_rule_transitions,
                    rule=fired.name,
                )
                raise RuleLoopError(self.max_rule_transitions, trace=result)

            seen = self._snapshot_seen(fired) if self.record_seen else {}
            before = counts.counters()
            self.incremental.before_transition()
            action_start = perf_counter()
            effects = self._execute_rule_action(fired)
            action_elapsed = perf_counter() - action_start
            self._transition_index += 1

            # Figure 1: the fired rule's trans-info restarts from its own
            # transition; every other rule composes the transition in
            # (subject to its footnote-8 reset policy).
            effect = TransitionEffect.from_op_effects(effects)
            self._log_transition(effect, fired.name)
            self._emit(
                EventKind.RULE_FIRED,
                rule=fired.name,
                transition=self._transition_index,
                effect=effect,
                seen=seen,
                condition=True if fired.condition is not None else None,
                duration=action_elapsed,
                trans_info_size=effect.size(),
                counters=counts.delta_since(before),
            )
            self._emit(
                EventKind.TRANS_INFO_RESET,
                rule=fired.name,
                cause="execution",
            )
            if self.durability is not None:
                self.durability.crash_point("mid_quiesce")

    def _snapshot_seen(self, rule):
        """Capture the contents of the rule's transition tables at firing
        time (before the action runs), keyed by the table's SQL spelling —
        e.g. ``"deleted emp"`` or ``"new updated emp.salary"``. Used by the
        trace to reproduce the paper's example narratives."""
        resolver = TransitionTableResolver(
            self.database, self._log.info(rule.name)
        )
        seen = {}

        def capture(kind, table, column=None):
            reference = ast.TransitionTableRef(kind, table, column)
            _, rows = resolver.resolve(reference)
            key = f"{kind.value} {table}"
            if column:
                key += f".{column}"
            seen[key] = rows

        for predicate in rule.predicates:
            if predicate.kind is ast.TransitionPredicateKind.INSERTED:
                capture(ast.TransitionKind.INSERTED, predicate.table)
            elif predicate.kind is ast.TransitionPredicateKind.DELETED:
                capture(ast.TransitionKind.DELETED, predicate.table)
            elif predicate.kind is ast.TransitionPredicateKind.UPDATED:
                capture(
                    ast.TransitionKind.OLD_UPDATED,
                    predicate.table,
                    predicate.column,
                )
                capture(
                    ast.TransitionKind.NEW_UPDATED,
                    predicate.table,
                    predicate.column,
                )
            elif predicate.kind is ast.TransitionPredicateKind.SELECTED:
                capture(
                    ast.TransitionKind.SELECTED,
                    predicate.table,
                    predicate.column,
                )
        return seen

    def _log_transition(self, effect, fired=None):
        """Log one transition (Figure 1's modify-trans-info), honouring
        each rule's footnote-8 reset policy: a "triggering"-policy rule
        that is currently untriggered restarts its baseline at this
        transition — the [WF89b] semantics of "the state preceding the
        most recent triggering of the rule" — and the ``fired`` rule
        restarts from its own transition.

        This is also the incremental layer's maintenance point: the same
        net effect updates the maintained condition views."""
        self.incremental.apply_transition(effect)
        log = self._log
        for name in log.cursors:
            if name == fired:
                continue
            rule = self.catalog.rule(name)
            if rule.reset_policy != "triggering":
                continue
            info = log.info(name)
            if not (info.is_empty() or transition_predicate_satisfied(
                    rule.predicates, info)):
                log.restart(name)
                self._emit(
                    EventKind.TRANS_INFO_RESET, rule=name, cause="triggering"
                )
        if fired is not None:
            log.restart(fired)
        log.append(effect)

    def _evaluate_condition(self, rule):
        """Condition value plus the incremental layer's per-consideration
        outcome (``None`` when the condition is trivial). The
        incremental path answers from maintained views and
        transition-table deltas when it can; any rule it cannot serve —
        unclassifiable condition, broken view, maintenance error — falls
        back to :meth:`_check_condition`, the full evaluation."""
        if rule.condition is None:
            return True, None
        outcome, value = self.incremental.evaluate(
            rule, self._log.info(rule.name)
        )
        if outcome == "fallback":
            value = self._check_condition(rule)
        return value, {"outcome": outcome}

    def _check_condition(self, rule):
        """Evaluate the rule's condition against the current state and its
        transition tables (None condition means ``if true``).

        The interpreter evaluates the condition itself; the selects its
        subqueries execute run batch kernels of their own. The evaluator
        is per-consideration: it carries the rule's current trans-info
        resolver and the state-versioned subquery caches.
        """
        condition = rule.condition
        if condition is None:
            return True
        resolver = TransitionTableResolver(
            self.database, self._log.info(rule.name)
        )
        bound = self._rule_bound(rule)
        evaluator = Evaluator(self.database, resolver, bound)
        return evaluator.evaluate_predicate(condition, Scope())

    def _execute_rule_action(self, rule):
        """Execute the rule's action; returns the operation effects.

        A failure inside a rule action aborts the whole transaction (the
        caller's exception handling does the rollback) — the paper's §5.2
        notes error semantics would need extending; we pick the safe
        interpretation.
        """
        resolver = TransitionTableResolver(
            self.database, self._log.info(rule.name)
        )
        if rule.is_external:
            context = ExternalActionContext(self, rule, resolver)
            rule.action.procedure(context)
            return list(context.collected_effects)
        executor = DmlExecutor(
            self.database, resolver, self.track_selects,
            self._rule_bound(rule),
        )
        effects = []
        for operation in rule.action.operations:
            effect = executor.execute_operation(operation)
            if isinstance(operation, ast.SelectOperation):
                # §5.1: "we might want the action part of a rule to include
                # data retrieval; for example ... a rule that automatically
                # delivers a summary of employee data whenever salaries are
                # updated" — deliver the result via the transaction trace.
                self._result.select_results.append(
                    executor.last_select_result
                )
            if effect is not None:
                effects.append(effect)
        return effects

    # ------------------------------------------------------------------
    # introspection

    def transition_info(self, rule_name):
        """The rule's current composite transition info (open txn only)."""
        self._require_transaction()
        return self._log.info(rule_name)

    def triggered_rules(self):
        """Names of rules currently triggered (open txn only).

        Applies the same ``rule.active`` filter as the processing loop:
        a deactivated rule keeps accumulating transition information but
        is never considered, so it must not be reported as triggered.
        """
        self._require_transaction()
        return [
            rule.name
            for rule in self.catalog
            if rule.active
            and transition_predicate_satisfied(
                rule.predicates, self._log.info(rule.name)
            )
        ]
