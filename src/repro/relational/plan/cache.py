"""The per-database statement cache and the planner's counters.

Everything derived from a statement — its AST, the plan of each of its
selects, the compiled batch programs of its expressions — is
derived once per statement *shape* and kept in one :class:`Statement`
entry of the database's one :class:`StatementCache`.

**Two kinds of key.** Statement *text* is keyed by
:func:`repro.sql.lexer.normalise`: the token sequence, case, blanks and
comments gone, each number or string literal replaced by a placeholder
that keeps its kind only. The entry holds the *template* — the text
parsed with :class:`~repro.sql.ast.Param` leaves where those literals
are (``parse_statement(text, params)``) — and a hit costs one scan of
the text: no parser, planner or compiler runs, the literals travel
beside the template as the execution's parameter vector (a
:class:`Bound`). An AST a caller built or parsed itself — a rule's
condition and action, the ``execute(parse_statement(text))`` of API
users — is keyed by the identity of its root node and keeps its
literals.

**What a binding may change.** Which rows qualify; never the plan. A
plan is a function of the statement text and the catalog (PAPER.md §4
defines rule semantics over query results, not plans), so what reads a
literal's *value* reads it from the parameter vector as the statement
runs: index keys, zone-map prune bounds, the fused ``column op
literal`` kernels, LIKE patterns, VALUES matrices. What reads only its
*kind* — the totality analysis, typed kernels, hash-join kind checks —
reads the placeholder's, which is part of the key (docs/semantics.md
§8, §15).

**Residency.** ``max_entries`` bounds the entries resident beside the
pinned ones (rules and their condition views: as long-lived as their
definition); past it the least recently used entry goes, plans and
programs with it. ``database.schema_version`` moving (schema or index
DDL) empties every entry's plans and programs; nothing else does —
table contents never enter a plan. Templates stay: they are syntax.

**Threads.** ``TransactionCoordinator.execute`` parses before it takes
its operation lock, so an embedding application's threads may run
:meth:`StatementCache.parse` concurrently with itself and with an
executing statement. The entry maps change only
under ``_lock``; an entry's own ``plans`` and ``programs`` are touched
only while it executes, which callers serialise (an engine runs one
statement at a time). An evicted entry stays good for whoever holds it.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, NamedTuple, Optional, Sequence

from ...sql import ast
from ...sql.lexer import Normalised, literal_rows_matrix, normalise
from ...sql.parser import parse_select, parse_statement

#: counters whose deltas the engine attaches to rule events
DELTA_FIELDS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "rows_scanned",
    "rows_visited",
    "rows_returned",
)


class PlannerStats:
    """Monotone counters for plan-cache and data-flow behaviour.

    Maintained by the plan cache and the plan executor (the naive
    reference under ``tests/reference/`` counts ``rows_scanned`` /
    ``rows_visited`` into the same gauges, so planned-versus-naive
    comparisons read like for like). The engine snapshots deltas around
    condition/action evaluation and emits them on the observability bus.
    """

    __slots__ = (
        "plans_built",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_invalidations",
        "rows_scanned",
        "rows_visited",
        "rows_returned",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.plans_built = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_invalidations = 0
        self.rows_scanned = 0
        self.rows_visited = 0
        self.rows_returned = 0

    def snapshot(self) -> dict[str, Any]:
        lookups = self.plan_cache_hits + self.plan_cache_misses
        return {
            "plans_built": self.plans_built,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_invalidations": self.plan_cache_invalidations,
            "plan_cache_hit_rate": (
                self.plan_cache_hits / lookups if lookups else 0.0
            ),
            "rows_scanned": self.rows_scanned,
            "rows_visited": self.rows_visited,
            "rows_returned": self.rows_returned,
        }

    def counters(self) -> tuple[int, ...]:
        """The :data:`DELTA_FIELDS` values as a tuple (cheap to snapshot
        around a single condition/action evaluation)."""
        return tuple(getattr(self, name) for name in DELTA_FIELDS)

    def delta_since(self, before: tuple[int, ...]) -> dict[str, int]:
        """``{field: increment}`` relative to a :meth:`counters` tuple."""
        return {
            name: getattr(self, name) - then
            for name, then in zip(DELTA_FIELDS, before)
        }


class Statement:
    """One cache entry: a statement and everything derived from it.

    ``root`` is the template of a text statement (always what
    ``parse_statement`` returns, so every front door shares the entry)
    or the caller's own node. ``plans`` maps ``id(select)`` to the plan
    of that select arm; ``star_items`` maps it to the arm's select list
    with ``*`` expanded; ``programs`` maps ``(id(node), layout,
    predicate)`` to ``(program, weak reference to node)`` — most
    nodes belong to ``root`` and live as long as the entry, and one that
    does not (a conjunct the planner synthesised for a plan since
    dropped) takes its programs with it when it dies, so an id is never
    met again under a stale program. ``self_contained`` maps ``id`` of a
    subquery to ``(schema_version, verdict, subquery)``: may the
    evaluator memoise it (``expressions._select_is_self_contained``)?
    """

    __slots__ = ("root", "key", "plans", "star_items", "programs",
                 "self_contained")

    def __init__(self, root: Any, key: Optional[str] = None) -> None:
        self.root = root
        self.key = key
        self.plans: dict[int, Any] = {}
        self.star_items: dict[int, Any] = {}
        self.programs: dict[Any, Any] = {}
        self.self_contained: dict[int, Any] = {}


class Bound(NamedTuple):
    """A statement ready to run: its entry and one parameter vector."""

    statement: Statement
    params: Sequence[Any]


def _only_select(root: Any) -> Optional[ast.Select]:
    """The select of a block that is one select operation, else None."""
    if type(root) is ast.OperationBlock and len(root.operations) == 1:
        operation = root.operations[0]
        if type(operation) is ast.SelectOperation:
            return operation.select
    return None


class StatementCache:
    """Statements by normalised text or by root node, least recently
    used first; see the module docstring for keys, invalidation and
    the locking discipline."""

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max_entries
        self.evictions = 0
        self._lock = threading.Lock()
        self._by_text: dict[str, Statement] = {}
        #: id(root) -> entry, in order of last use
        self._entries: OrderedDict[int, Statement] = OrderedDict()
        #: id(root) -> entry that is never evicted (rules)
        self._pinned: dict[int, Statement] = {}
        self._schema_version: Optional[int] = None

    def __len__(self) -> int:
        return len(self._entries) + len(self._pinned)

    def snapshot(self) -> dict[str, int]:
        """``stats()["planner"]["statement_cache"]``."""
        return {
            "entries": len(self),
            "pinned": len(self._pinned),
            "evictions": self.evictions,
        }

    # -- statement text ---------------------------------------------------

    def parse(self, text: str) -> tuple[Any, Optional[Bound]]:
        """``parse_statement(text)`` through the cache: ``(node,
        bound)``. ``bound`` is None for statements that are not cached
        (DDL, rule definitions); otherwise ``node`` belongs to the
        entry's template and ``bound`` carries this text's literals."""
        return self._through(text, parse_statement, False)

    def parse_select(self, text: str) -> tuple[Any, Optional[Bound]]:
        """``parse_select(text)`` through the cache; the entry is the
        one :meth:`parse` uses for the same text."""
        return self._through(text, parse_select, True)

    def _through(self, text: str, parser: Any,
                 select_only: bool) -> tuple[Any, Optional[Bound]]:
        found = normalise(text)
        if found is None or (select_only and found.explain):
            return parser(text), None
        statement, params = self._lookup(found, text)
        if statement is None:
            params = []
            root = parser(text, params)
            if type(root) is ast.Explain:
                root = root.select
            if type(root) is ast.Select:
                root = ast.OperationBlock((ast.SelectOperation(root),))
            statement = self._admit(found, root, params)
            if statement is None:
                return parser(text), None
        node = statement.root
        if select_only or found.explain:
            node = _only_select(node)
            if node is None:  # the key of a statement that is no select
                return parser(text), None  # (raises)
            if not select_only:
                node = ast.Explain(node)
        return node, Bound(statement, params)

    def _lookup(self, found: Normalised,
                text: str) -> tuple[Optional[Statement], Any]:
        with self._lock:
            statement = self._by_text.get(found.key)
            if statement is None:
                return None, None
            self._entries.move_to_end(id(statement.root))
        params = found.params
        for index, start, end in found.rows:
            params[index] = literal_rows_matrix(text, start, end)
        return statement, params

    def _admit(self, found: Normalised, template: Any,
               params: list[Any]) -> Optional[Statement]:
        """A new entry for ``template``, parsed with its literals lifted
        into ``params`` — or None unless those are, one for one, the
        literals the key left out (the parser and ``normalise`` apply
        one rule to the same tokens; this is the check that they do)."""
        lifted = params
        if found.rows and len(params) == len(found.params):
            lifted = list(params)
            for index, _, _ in found.rows:  # scanned, not yet read
                lifted[index] = None
        if lifted != found.params or (
                list(map(type, lifted)) != list(map(type, found.params))):
            return None
        statement = Statement(template, found.key)
        with self._lock:
            # a racing admission of the same key is superseded here and
            # ages out of _entries like any unused statement
            self._by_text[found.key] = statement
            self._entries[id(template)] = statement
            self._evict()
        return statement

    # -- caller-built ASTs ------------------------------------------------

    def for_node(self, node: Any, pinned: bool = False) -> Statement:
        """The entry whose root *is* ``node``, created on first sight;
        ``pinned`` entries (rules) stay until :meth:`release`."""
        key = id(node)
        with self._lock:
            statement = self._pinned.get(key)
            if statement is not None:
                return statement
            statement = self._entries.get(key)
            if statement is not None:
                self._entries.move_to_end(key)
                return statement
            statement = Statement(node)
            if pinned:
                self._pinned[key] = statement
            else:
                self._entries[key] = statement
                self._evict()
        return statement

    def bound_node(self, node: Any, pinned: bool = False) -> Bound:
        """``node`` as a statement of its own: its entry, and nothing
        to bind."""
        return Bound(self.for_node(node, pinned), ())

    def release(self, node: Any) -> None:
        """Drop the pinned entry of ``node`` (a dropped rule)."""
        with self._lock:
            self._pinned.pop(id(node), None)

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            _, statement = self._entries.popitem(last=False)
            key = statement.key
            if key is not None and self._by_text.get(key) is statement:
                del self._by_text[key]
            self.evictions += 1

    # -- derived state ----------------------------------------------------

    def _invalidate(self, database: Any, stats: Any) -> None:
        """The catalog moved since the derived state was built: drop
        every entry's plans and programs."""
        had_plans = had_programs = False
        with self._lock:
            for entries in (self._entries, self._pinned):
                for statement in entries.values():
                    had_plans = had_plans or bool(statement.plans)
                    had_programs = had_programs or bool(statement.programs)
                    statement.plans.clear()
                    statement.programs.clear()
                    statement.star_items.clear()
        if had_plans:
            stats.plan_cache_invalidations += 1
        if had_programs:
            database.compiler_stats.invalidations += 1
        self._schema_version = database.schema_version

    def plan_for(self, select: Any, database: Any, stats: Any,
                 bound: Optional[Bound] = None) -> Any:
        """The plan of one select arm of ``bound``'s statement (of
        ``select`` itself, unbound), built and kept on a miss; ``stats``
        is the :class:`PlannerStats` to count into."""
        if self._schema_version != database.schema_version:
            self._invalidate(database, stats)
        if bound is None:
            bound = self.bound_node(select)
        plans = bound.statement.plans
        plan = plans.get(id(select))
        if plan is not None:
            stats.plan_cache_hits += 1
            return plan
        stats.plan_cache_misses += 1
        stats.plans_built += 1
        from .builder import build_plan  # looked up per miss: the
        # syntactic reference planner swaps it in there

        plan = plans[id(select)] = build_plan(database, select)
        return plan

    def program_for(self, node: Any, layout: Any, database: Any,
                    predicate: bool = False, table: Optional[str] = None,
                    statement: Optional[Statement] = None) -> Any:
        """The batch program of expression ``node`` of ``statement`` (of
        ``node`` itself, when None) against ``layout``, compiled and kept
        on a miss. ``layout`` is a hashable tuple of ``(binding_name,
        columns_tuple)`` pairs; ``predicate=True`` adds the interpreter's
        predicate coercion at the root; ``table`` names the base table
        the layout's columns come from, whose catalog kinds the kernels
        specialize on."""
        if self._schema_version != database.schema_version:
            self._invalidate(database, database.planner_stats)
        if statement is None:
            statement = self.for_node(node)
        stats = database.compiler_stats
        programs = statement.programs
        key = (id(node), layout, predicate)
        entry = programs.get(key)
        if entry is not None:
            stats.cache_hits += 1
            return entry[0]
        stats.cache_misses += 1
        stats.compiles += 1
        from .. import compiled  # imports this package: not at the top

        program = compiled.compile_program(
            database, node, layout, predicate, table
        )
        stats.nodes_compiled += program.nodes_compiled
        stats.nodes_fallback += program.nodes_fallback

        def forget(_: Any) -> None:
            programs.pop(key, None)

        programs[key] = (program, weakref.ref(node, forget))
        return program


#: the name ``benchmarks/e2e/tracing.py`` wraps ``plan_for`` under
PlanCache = StatementCache
