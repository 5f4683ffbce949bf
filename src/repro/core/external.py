"""External-procedure rule actions (paper Section 5.2).

"This can be done by permitting the action part of a rule to call an
arbitrary external procedure. Adding such a feature need not change the
semantics of rule execution, since the effect on the database of
executing an external procedure still corresponds to a sequence of data
manipulation operations."

An :class:`ExternalAction` wraps a Python callable. When the rule fires,
the callable receives an :class:`ExternalActionContext` through which it
may run data manipulation operations and queries; the DML it performs is
captured as ordinary operation effects, so the rule's transition is
indistinguishable from an SQL-action rule's — exactly the paper's point.
"""

from __future__ import annotations

from ..errors import ExecutionError, RollbackRequested


class ExternalAction:
    """A rule action implemented by a host-language (Python) procedure.

    The callable is invoked as ``procedure(context)`` where ``context`` is
    an :class:`ExternalActionContext`. Any value returned is ignored.
    """

    def __init__(self, procedure, description=None):
        if not callable(procedure):
            raise ExecutionError("external action requires a callable")
        self.procedure = procedure
        self.description = description

    def describe(self):
        if self.description:
            return self.description
        name = getattr(self.procedure, "__name__", None)
        return name or repr(self.procedure)

    def __repr__(self):
        return f"ExternalAction({self.describe()})"


class ExternalActionContext:
    """What an external procedure may do while its rule is firing.

    * :meth:`execute` — run an operation block (SQL text or parsed); its
      effects are folded into the rule's transition.
    * :meth:`query` — run a read-only select; the result rows are returned
      to the procedure. The rule's transition tables are visible.
    * :meth:`rollback` — abort the whole transaction (equivalent to a
      ``rollback`` action).
    * :attr:`rule_name` / :attr:`transition_tables` — introspection.
    """

    def __init__(self, engine, rule, resolver):
        self._engine = engine
        self._resolver = resolver
        self.rule_name = rule.name
        self.collected_effects = []

    def execute(self, block):
        """Execute an operation block (SQL string or parsed AST)."""
        from ..relational.dml import DmlExecutor
        from ..sql import ast

        database = self._engine.database
        bound = None
        if isinstance(block, str):
            block, bound = database.statements.parse(block)
        if not isinstance(block, ast.OperationBlock):
            raise ExecutionError(
                "external actions may only execute operation blocks"
            )
        # the block is a statement of its own, with its own literals —
        # whatever statement, of the same shape even, fired the rule
        executor = DmlExecutor(
            database, self._resolver, self._engine.track_selects,
            bound or database.statements.bound_node(block),
        )
        effects = executor.execute_block(block)
        self.collected_effects.extend(effects)
        return effects

    def query(self, select):
        """Evaluate a select (SQL string or parsed AST); returns the
        :class:`repro.relational.select.SelectResult`. Transition tables
        of the firing rule are available in FROM clauses."""
        from ..relational.select import evaluate_select

        database = self._engine.database
        bound = None
        if isinstance(select, str):
            select, bound = database.statements.parse_select(select)
        return evaluate_select(
            database, select, self._resolver, bound=bound
        )

    def rollback(self):
        """Request a rollback of the current transaction."""
        raise RollbackRequested(self.rule_name)
