"""The linted program: a uniform view over live catalogs and SQL scripts.

The analyzer runs in two modes:

* **catalog mode** (:func:`repro.analysis.lint.lint_catalog`,
  ``ActiveDatabase.lint()``) — rules come from a live
  :class:`~repro.core.rules.RuleCatalog` and carry no source spans;
* **script mode** (:func:`repro.analysis.lint.lint_script`, the
  ``python -m repro.lint`` CLI) — rules come from parsed ``create rule``
  statements and every finding points at ``line:col`` in the script.

:class:`LintRule` abstracts over both so passes never care which mode
they run in, and :class:`LintContext` carries everything a pass may
consult: the schema catalog, the rule set, the priority order, and the
workload write set (for closed-world checks like RPL304).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ...core.rules import reaches
from ...records import Record
from ...sql import ast
from ...sql.spans import Span, span_of
from ..effects.sets import RuleEffects
from .diagnostics import Diagnostic

if TYPE_CHECKING:
    from .triggering import TriggeringGraph


class LintRule(Record, frozen=False):
    """One rule as the analyzer sees it.

    ``span`` locates the rule's ``create rule`` statement (script mode
    only); ``active`` mirrors the catalog's activation flag (always True
    in script mode unless a ``-- lint: deactivate`` pragma applies).
    ``diagnostics``, ``effects`` and ``base_reads`` are the products of
    the one walk over the rule (:func:`repro.analysis.types.infer
    .walk_rule`): its schema and type findings, its effect summary, and
    the ``(table, column, node)`` base-table reads of its condition.
    """

    name: str
    predicates: tuple
    condition: Optional[ast.Expression]
    action: object
    active: bool = True
    span: Optional[Span] = None
    diagnostics: tuple = ()
    effects: RuleEffects = RuleEffects(frozenset(), None)
    base_reads: tuple = ()

    @property
    def is_rollback(self) -> bool:
        return isinstance(self.action, ast.RollbackAction)

    @property
    def is_external(self) -> bool:
        """Opaque (non-SQL) action: the analyzer must assume anything."""
        return not isinstance(
            self.action, (ast.OperationBlock, ast.RollbackAction)
        )

    @classmethod
    def from_catalog_rule(cls, rule: object) -> "LintRule":
        return cls(
            name=rule.name,
            predicates=tuple(rule.predicates),
            condition=rule.condition,
            action=rule.action,
            active=rule.active,
        )

    @classmethod
    def from_statement(cls, statement: ast.CreateRule) -> "LintRule":
        return cls(
            name=statement.name,
            predicates=tuple(statement.predicates),
            condition=statement.condition,
            action=statement.action,
            span=span_of(statement),
        )


class LintContext(Record, frozen=False):
    """Everything the passes can see.

    Attributes:
        database: the relational :class:`~repro.relational.database
            .Database` whose catalog supplies table schemas (may hold a
            scratch database in script mode).
        rules: the rule program under analysis.
        precedes: ``precedes(a, b)`` — is rule ``a`` strictly higher
            than ``b`` in the priority partial order?
        workload_writes: ``(table, column-or-None)`` pairs written by the
            known external workload (script DML, caller-supplied hints).
        closed_world: True when ``workload_writes`` is believed complete
            (script mode), enabling dead-read analysis; False on a live
            database whose future workload is unknown.
        statements: non-rule statements to lint (script mode: the DML
            blocks), as ``(statement, span)`` pairs.
        defined_names: every rule name the program ever defined,
            including rules later dropped (so ``drop rule``/priority
            references to them are not flagged as dangling).
        statement_diagnostics: the walk's findings about ``statements``.
        graph: the triggering graph over ``rules`` (built on first use
            unless the catalog's analysis supplies its own).
    """

    database: object
    rules: list[LintRule]
    precedes: Callable[[str, str], bool]
    workload_writes: set
    closed_world: bool
    statements: list
    defined_names: set
    statement_diagnostics: list[Diagnostic]
    graph: Optional["TriggeringGraph"]

    def __init__(self, database: object,
                 rules: Optional[list[LintRule]] = None,
                 precedes: Callable[[str, str], bool] = lambda a, b: False,
                 workload_writes: Optional[set] = None,
                 closed_world: bool = False,
                 statements: Optional[list] = None,
                 defined_names: Optional[set] = None,
                 statement_diagnostics: Optional[list[Diagnostic]] = None,
                 graph: Optional["TriggeringGraph"] = None):
        self.database = database
        self.rules = [] if rules is None else rules
        self.precedes = precedes
        self.workload_writes = (
            set() if workload_writes is None else workload_writes)
        self.closed_world = closed_world
        self.statements = [] if statements is None else statements
        self.defined_names = set() if defined_names is None else defined_names
        self.statement_diagnostics = (
            [] if statement_diagnostics is None else statement_diagnostics)
        self.graph = graph

    def triggering_graph(self) -> "TriggeringGraph":
        if self.graph is None:
            from .triggering import TriggeringGraph

            self.graph = TriggeringGraph(self.rules, self.schema)
        return self.graph

    def rule_named(self, name: str) -> Optional[LintRule]:
        for rule in self.rules:
            if rule.name == name:
                return rule
        return None

    def schema(self, name: str) -> object:
        return table_schema(self.database, name)


def describe_transition(node: Any) -> str:
    """``inserted t`` / ``updated t.c``: a transition-table reference
    or a basic transition predicate as the rule language writes it."""
    text = f"{node.kind.value} {node.table}"
    return f"{text}.{node.column}" if node.column else text


def table_schema(database: Any, name: str) -> Any:
    """The table's schema, or None when the table is unknown (or no
    database is attached: a bare catalog knows no schemas)."""
    if database is None or not database.catalog.has_table(name):
        return None
    return database.schema(name)


def priority_precedes(pairings: Iterable[tuple[str, str]],
                      ) -> Callable[[str, str], bool]:
    """A ``precedes`` predicate over an explicit pairing list (script
    mode, where no :class:`RuleCatalog` exists)."""
    pairings = list(pairings)
    return lambda first, second: first != second and reaches(
        pairings, first, second
    )
