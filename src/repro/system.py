"""The public facade: an active relational database with production rules.

:class:`ActiveDatabase` ties together the SQL dialect, the relational
engine and the rule engine behind a two-method surface:

* :meth:`~ActiveDatabase.execute` — run any statement: schema DDL, rule
  DDL, priority pairings, or an operation block (which runs as one
  transaction with full rule processing, per the paper's §4 model);
* :meth:`~ActiveDatabase.query` — evaluate a read-only select.

plus explicit transactions for the §5.3 triggering-point extension::

    db = ActiveDatabase()
    db.execute("create table emp (name varchar, salary float)")
    db.execute('''
        create rule no_negative_salaries
        when inserted into emp or updated emp.salary
        if exists (select * from emp where salary < 0)
        then rollback
    ''')
    result = db.execute("insert into emp values ('Jane', -10)")
    assert result.rolled_back
"""

from __future__ import annotations

import os

from .core.engine import RuleEngine
from .core.rules import RuleCatalog
from .errors import ExecutionError, TransactionError
from .obs.events import EventKind
from .relational.database import Database
from .sql import ast


class ActiveDatabase:
    """A relational database with the paper's production rules facility.

    Args:
        strategy: rule selection strategy (defaults to the §4.4 priority
            partial order).
        max_rule_transitions: per-transaction rule transition budget.
        track_selects: enable the §5.1 ``selected`` extension.
        record_seen: record transition-table snapshots in traces.
        sink: optional :class:`~repro.obs.sinks.EventSink` receiving the
            engine's structured event stream (default: none).
        durability: None (default — a purely in-memory database, exactly
            as before the durability subsystem existed), a directory
            path, or a :class:`~repro.durability.DurabilityManager`.
            With durability on, every committed transaction's net effect
            is WAL-logged (fsync'd) before the commit returns, DDL is
            logged too, and :meth:`checkpoint` /
            :func:`repro.durability.recover` complete the story.
    """

    def __init__(self, strategy=None, max_rule_transitions=10000,
                 track_selects=False, record_seen=True, sink=None,
                 durability=None):
        if isinstance(durability, (str, os.PathLike)):
            from .durability.manager import DurabilityManager

            durability = DurabilityManager(durability)
        self.database = Database()
        self.catalog = RuleCatalog()
        self.engine = RuleEngine(
            self.database,
            self.catalog,
            strategy=strategy,
            max_rule_transitions=max_rule_transitions,
            track_selects=track_selects,
            record_seen=record_seen,
            sink=sink,
            durability=durability,
        )

    # ------------------------------------------------------------------
    # statements

    def execute(self, statement, bound=None):
        """Execute one statement (SQL text or a parsed AST node).

        Text goes through the database's statement cache: a repeated
        shape of select / insert / update / delete is parsed, planned
        and compiled once, whatever its literals. ``bound`` is for
        callers that went through the cache themselves
        (``database.statements.parse``) and pass the node it gave them.

        Returns:
            * schema/rule DDL — ``None``;
            * an operation block — the transaction's
              :class:`~repro.core.trace.TransactionResult` (auto-commit
              mode) or the block's operation effects (inside an explicit
              transaction);
            * ``assert rules`` — ``None`` (requires an open transaction).
        """
        if isinstance(statement, str):
            statement, bound = self.database.statements.parse(statement)

        if isinstance(statement, ast.CreateTable):
            self._require_no_transaction("create table")
            self.database.create_table(
                statement.name,
                [(column.name, column.type_name) for column in statement.columns],
            )
            self._log_ddl(
                "create_table",
                name=statement.name,
                columns=[
                    [column.name, column.type_name]
                    for column in statement.columns
                ],
            )
            return None
        if isinstance(statement, ast.DropTable):
            self._require_no_transaction("drop table")
            self.database.drop_table(statement.name)
            self._log_ddl("drop_table", name=statement.name)
            return None
        if isinstance(statement, ast.CreateIndex):
            self._require_no_transaction("create index")
            self.database.create_index(
                statement.name, statement.table, statement.column
            )
            self._log_ddl(
                "create_index",
                name=statement.name,
                table=statement.table,
                column=statement.column,
            )
            return None
        if isinstance(statement, ast.DropIndex):
            self._require_no_transaction("drop index")
            self.database.drop_index(statement.name)
            self._log_ddl("drop_index", name=statement.name)
            return None
        if isinstance(statement, ast.CreateRule):
            rule = self.engine.define_rule(statement)
            self._log_ddl(
                "create_rule",
                sql=rule.to_sql(),
                reset_policy=rule.reset_policy,
            )
            return rule
        if isinstance(statement, ast.DropRule):
            self.engine.drop_rule(statement.name)
            self._log_ddl("drop_rule", name=statement.name)
            return None
        if isinstance(statement, ast.CreateRulePriority):
            self.engine.add_priority(statement.higher, statement.lower)
            self._log_ddl(
                "priority", higher=statement.higher, lower=statement.lower
            )
            return None
        if isinstance(statement, ast.AssertRules):
            self.engine.assert_rules()
            return None
        if isinstance(statement, ast.Explain):
            return self.explain(statement.select, bound)
        if isinstance(statement, ast.OperationBlock):
            if self.engine.in_transaction:
                return self.engine.execute_block(statement, bound)
            result = self.engine.run_block(statement, bound)
            self._maybe_checkpoint()
            return result
        raise ExecutionError(
            f"unsupported statement {type(statement).__name__}"
        )

    def execute_script(self, script):
        """Execute a ``;``-separated statement script; returns the last
        statement's result. Note rule actions also use ``;`` — place
        ``create rule`` statements last, or call :meth:`execute` per
        statement."""
        from .sql.parser import parse_script

        result = None
        for statement in parse_script(script):
            result = self.execute(statement)
        return result

    def query(self, select):
        """Evaluate a read-only select; returns a
        :class:`~repro.relational.select.SelectResult`."""
        return self.engine.query(select)

    def rows(self, select):
        """Shorthand: the result rows of :meth:`query`."""
        return self.query(select).rows

    def explain(self, select, bound=None):
        """The logical plan for a select (text or AST) as rendered text.

        Also reachable as the ``explain <select>`` statement. The plan is
        the one execution will run — EXPLAIN warms the plan cache — and
        its source nodes carry ``(act=)``: the node's output size at its
        last execution.
        """
        from .relational.plan import explain_select

        if isinstance(select, str):
            select, bound = self.database.statements.parse_select(select)
        return explain_select(self.database, select, bound)

    # ------------------------------------------------------------------
    # explicit transactions (§5.3 triggering points)

    def begin(self):
        """Open an explicit transaction."""
        self.engine.begin()

    def commit(self):
        """Process rules and commit the open transaction."""
        result = self.engine.commit()
        self._maybe_checkpoint()
        return result

    def rollback(self):
        """Abort the open transaction."""
        return self.engine.rollback()

    def assert_rules(self):
        """Process rules now (a §5.3 user-defined triggering point)."""
        self.engine.assert_rules()

    # ------------------------------------------------------------------
    # durability

    @property
    def durability(self):
        """The attached durability manager, or None (in-memory only)."""
        return self.engine.durability

    def checkpoint(self):
        """Write a durable checkpoint now (snapshot + WAL truncation).

        Returns the checkpoint info dict (``wal_lsn``, ``bytes``,
        ``duration``). Requires durability and no open transaction.
        """
        from .durability.manager import DurabilityError

        manager = self.engine.durability
        if manager is None:
            raise DurabilityError(
                "checkpoint requires a durability-enabled database "
                "(pass durability=<directory> to ActiveDatabase)"
            )
        info = manager.checkpoint(self)
        self.engine._emit(EventKind.CHECKPOINT, **info)
        return info

    def _maybe_checkpoint(self):
        manager = self.engine.durability
        if manager is not None and manager.should_checkpoint():
            self.checkpoint()

    def _log_ddl(self, op, **fields):
        manager = self.engine.durability
        if manager is not None:
            manager.log_ddl(op, **fields)

    # ------------------------------------------------------------------
    # observability

    def stats(self):
        """Engine and per-rule counters (``{"engine": ..., "rules": ...}``);
        see :meth:`repro.core.engine.RuleEngine.stats`."""
        return self.engine.stats()

    def reset_stats(self):
        """Zero all engine counters (a fresh measurement window)."""
        self.engine.reset_stats()

    def attach_sink(self, sink):
        """Attach an event sink (see :mod:`repro.obs`); returns it."""
        return self.engine.attach_sink(sink)

    def detach_sink(self, sink):
        """Detach a previously attached event sink."""
        self.engine.detach_sink(sink)

    # ------------------------------------------------------------------
    # rules convenience

    def define_external_rule(self, name, when, procedure, condition=None,
                             description=None):
        """Define a rule with a Python-procedure action (§5.2).

        Not available on a durability-enabled database: a Python
        procedure cannot be written to the WAL, so it could not survive
        recovery (the same restriction :mod:`repro.persistence` applies
        to dumps).
        """
        if self.engine.durability is not None:
            from .durability.manager import DurabilityError

            raise DurabilityError(
                f"rule {name!r} has a Python action, which cannot be made "
                "durable; use an in-memory database (durability=None) for "
                "external rules"
            )
        return self.engine.define_external_rule(
            name, when, procedure, condition, description
        )

    def rule_names(self):
        return self.catalog.rule_names()

    def lint(self, *, closed_world=False, workload_writes=()):
        """Run the full semantic analyzer over the current rule program.

        Returns a :class:`~repro.analysis.lint.LintReport` of
        diagnostics against the live catalog and schemas. Pass
        ``closed_world=True`` (optionally with ``workload_writes``:
        ``(table, column-or-None)`` pairs the application writes) to
        also enable the dead-condition-read check, which needs to
        assume no unknown writer exists.
        """
        from .analysis.lint import lint_catalog

        return lint_catalog(
            self.catalog, self.database,
            closed_world=closed_world,
            workload_writes=workload_writes,
        )

    def deactivate_rule(self, name):
        """Pause a rule: it keeps its definition and keeps accumulating
        transition information, but is never considered until reactivated."""
        self.catalog.rule(name).active = False
        self._log_ddl("set_rule_active", rule=name, active=False)

    def activate_rule(self, name):
        """Resume a previously deactivated rule."""
        self.catalog.rule(name).active = True
        self._log_ddl("set_rule_active", rule=name, active=True)

    def set_rule_reset_policy(self, name, policy):
        """Select a rule's footnote-8 re-triggering baseline:
        ``"execution"`` (default), ``"consideration"`` or
        ``"triggering"``. The paper suggests permitting "a choice of
        interpretations ... as part of rule definition"; since it defines
        no syntax for it, the choice is made through this API."""
        from .core.rules import RESET_POLICIES
        from .errors import InvalidRuleError

        if policy not in RESET_POLICIES:
            raise InvalidRuleError(
                f"reset policy must be one of {RESET_POLICIES}, "
                f"got {policy!r}"
            )
        self.catalog.rule(name).reset_policy = policy
        self._log_ddl("set_reset_policy", rule=name, policy=policy)

    # ------------------------------------------------------------------

    def _require_no_transaction(self, what):
        if self.engine.in_transaction:
            raise TransactionError(
                f"{what} is not allowed inside a transaction"
            )
