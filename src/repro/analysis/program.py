"""The static analysis of one rule program (paper §6).

"The programmer might benefit from knowing that a set of rules may
create an infinite loop, or from knowing that ordering between certain
rules may affect the final database state. We plan to explore static
rule analysis techniques..." — one facility, analysing rules when
someone asks (``lint()``, :func:`analyze`, a sink that takes
``lint_diagnostic``, the OCC coordinator's conflict classification):

* each rule is walked **once**, on first request
  (:func:`repro.analysis.types.infer.walk_rule`: diagnostics and
  effect summary) — as it is defined when a sink takes its
  definition-time findings, else lazily, against the same catalog;
* over those summaries **one** :class:`~repro.analysis.lint.triggering
  .TriggeringGraph` holds the syntactic edges, the refined subset and
  each pruned edge's proof — built lazily, once per catalog version;
* everything else is a view of it: :func:`analyze` (the paper's
  conservative check: cycles and conflicts on the syntactic edges),
  the RPLnnn passes, and the ``stats()["analysis"]`` conflict advisory
  the OCC coordinator scores conflicts against. Execution reads none
  of it: kernels, plans and condition answers never depend on the
  analyzer.

A walk that raises is never raised: the rule is left out of every
view, ``lint()`` reports an :class:`AnalysisFailure`, and ``errors``
counts it once per rule and catalog version, whoever reads.

**Deactivated rules.** A deactivated rule is never considered, so it
can neither fire nor consume: every view draws edges among *active*
rules only — a deactivated rule closes no loop, is nobody's common
provider, conflicts with nothing and is not counted in the advisory.
It stays a node of ``to_dot()``, and RPL302 is the finding *about*
it. Edges are pairwise facts, so (de)activation
re-derives the views, not the graph.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterable, Optional

from ..records import Record
from .lint.base import run_passes
from .lint.context import LintContext, LintRule, table_schema
from .lint.diagnostics import Diagnostic, LintReport
from .lint.triggering import TriggeringGraph, interference, unordered_pairs
from .types.infer import walk_rule


# ---------------------------------------------------------------------------
# the paper's §6 report

class LoopWarning(Record):
    """A potential infinite loop among ``rules`` (a triggering cycle).

    ``assumed`` is True when some participating edge exists only because
    a rule's action is opaque (an external Python procedure): the
    analysis had to assume that action can do anything, rather than
    derive the edge from SQL the rule actually contains.
    """

    rules: tuple
    assumed: bool = False

    @property
    def is_self_loop(self) -> bool:
        return len(self.rules) == 1

    def describe(self) -> str:
        if self.is_self_loop:
            text = (
                f"rule {self.rules[0]!r} may trigger itself indefinitely "
                "(see paper §4.1 / footnote 7)"
            )
        else:
            chain = " -> ".join(self.rules) + f" -> {self.rules[0]}"
            text = f"rules may trigger each other indefinitely: {chain}"
        if self.assumed:
            text += (
                " [assumed: an opaque external action participates, so the "
                "cycle could not be ruled out]"
            )
        return text


class ConflictWarning(Record):
    """Rules ``first``/``second`` are mutually triggerable, unordered, and
    interfere on ``tables`` — execution order may affect the final state.

    ``assumed`` is True when the interference could not be derived from
    SQL: one of the actions is an opaque external procedure, so the
    analysis had to assume it touches everything."""

    first: str
    second: str
    tables: tuple
    assumed: bool = False

    def describe(self) -> str:
        tables = ", ".join(self.tables)
        text = (
            f"rules {self.first!r} and {self.second!r} may trigger on the "
            f"same transition, are not ordered by any priority, and both "
            f"touch {{{tables}}}; their relative order may affect the final "
            "database state (consider 'create rule priority ... before ...')"
        )
        if self.assumed:
            text += (
                " [assumed: an opaque external action may touch any table]"
            )
        return text


class AnalysisReport(Record, frozen=False):
    """The outcome of the paper's conservative §6 check: cycles and
    conflicts on the syntactic edges."""

    graph: TriggeringGraph
    loops: list
    conflicts: list

    def __init__(self, graph: TriggeringGraph, loops: Optional[list] = None,
                 conflicts: Optional[list] = None):
        self.graph = graph
        self.loops = [] if loops is None else loops
        self.conflicts = [] if conflicts is None else conflicts

    @property
    def warning_count(self) -> int:
        return len(self.loops) + len(self.conflicts)

    def describe(self) -> str:
        lines = []
        for warning in self.loops:
            lines.append("LOOP: " + warning.describe())
        for warning in self.conflicts:
            lines.append("CONFLICT: " + warning.describe())
        if not lines:
            lines.append("no warnings")
        return "\n".join(lines)


class AnalysisFailure(Diagnostic):
    """An analysis of one rule that raised, as an error finding of pass
    ``"internal"`` with no catalog code (``to_dict()``: ``code`` None,
    ``error`` the exception class)."""

    error: str = ""

    def __post_init__(self) -> None:
        """Any code: the finding is about the analyzer, not the rule."""

    def to_dict(self) -> dict[str, object]:
        return dict(super().to_dict(), code=None, error=self.error)


# ---------------------------------------------------------------------------
# one analysis per catalog version

class ProgramAnalysis:
    """The analysis of a live rule catalog, kept current with it.

    The engine's catalog holds one (``RuleEngine.analysis``), built on
    first request. A rule is walked in :meth:`on_rule_defined` when a
    sink takes its definition-time findings, else by the first
    :meth:`rules` after its definition; the graph and the views are
    derived on first use and kept until the catalog's version, a rule's
    ``active`` flag or the schema version moves.
    """

    def __init__(self, catalog: Any, database: Any = None) -> None:
        self.catalog = catalog
        self.database = database
        self._walked: dict[str, tuple] = {}  # name → (Rule, version, walk)
        self._failures: dict[str, AnalysisFailure] = {}  # left-out rules
        self.errors = 0  # ``stats()["analysis"]["errors"]``
        self._counted: dict[str, int] = {}  # name → catalog version
        self._key: Optional[tuple] = None
        self._graph: Optional[TriggeringGraph] = None
        self._views: dict[str, Any] = {}

    def _schema_version(self) -> Optional[int]:
        return getattr(self.database, "schema_version", None)

    def _failure(self, rule: Any, error: Exception) -> AnalysisFailure:
        if self._counted.get(rule.name) != self.catalog.version:
            self._counted[rule.name] = self.catalog.version
            self.errors += 1
        return AnalysisFailure(
            "internal",
            f"analysis of rule {rule.name!r} failed: "
            f"{type(error).__name__}: {error}",
            rule=rule.name, pass_name="internal",
            error=type(error).__name__,
        )

    def _walk(self, rule: Any) -> LintRule:
        walked = walk_rule(LintRule.from_catalog_rule(rule), self.database)
        self._walked[rule.name] = (rule, self._schema_version(), walked)
        self._graph = None
        return walked

    def on_rule_defined(self, rule: Any) -> LintReport:
        """Walk the new rule and return its definition-time findings:
        the rule-scoped passes, or the failure if the analysis raised."""
        try:
            return run_passes(
                LintContext(database=self.database, rules=[self._walk(rule)]),
                scope="rule",
            )
        except Exception as error:
            return LintReport([self._failure(rule, error)])

    def rules(self) -> list[LintRule]:
        """The walked program in catalog order, brought up to date; a
        rule whose walk raised is left out."""
        catalog = self.catalog
        version = self._schema_version()
        key = (catalog.version, version,
               tuple(rule.active for rule in catalog))
        if key != self._key:
            previous, self._walked = self._walked, {}
            self._failures = {}
            for rule in catalog:
                entry = previous.get(rule.name)
                if entry is None or entry[0] is not rule \
                        or entry[1] != version:
                    try:
                        self._walk(rule)
                    except Exception as error:
                        self._failures[rule.name] = self._failure(rule, error)
                        continue
                else:
                    self._walked[rule.name] = entry
                self._walked[rule.name][2].active = rule.active
            if previous.keys() != self._walked.keys():
                self._graph = None  # a rule was dropped
            self._views = {}
            self._key = key
        return [entry[2] for entry in self._walked.values()]

    @property
    def graph(self) -> TriggeringGraph:
        """The one triggering graph of the current catalog version."""
        rules = self.rules()
        if self._graph is None:
            self._graph = TriggeringGraph(
                rules, partial(table_schema, self.database)
            )
        return self._graph

    def _view(self, name: str, derive: Callable[[], Any]) -> Any:
        self.rules()
        if name not in self._views:
            self._views[name] = derive()
        return self._views[name]

    # ------------------------------------------------------------------
    # views

    def lint(self, *, closed_world: bool = False,
             workload_writes: Iterable = ()) -> LintReport:
        """The full semantic analysis (every RPLnnn pass), after one
        :class:`AnalysisFailure` per rule whose walk raised."""
        report = run_passes(LintContext(
            database=self.database, rules=self.rules(),
            precedes=self.catalog.precedes, graph=self.graph,
            closed_world=closed_world, workload_writes=set(workload_writes),
        ))
        report.diagnostics[:0] = self._failures.values()
        return report

    def report(self) -> AnalysisReport:
        """The paper's §6 warnings (:func:`analyze`)."""
        return self._view("report", self._report)

    def _report(self) -> AnalysisReport:
        graph = self.graph
        by_name = {rule.name: rule for rule in graph.rules}
        active = [rule for rule in graph.rules if rule.active]
        report = AnalysisReport(graph)
        for loop in graph.loops():
            report.loops.append(LoopWarning(loop, assumed=any(
                by_name[name].effects.opaque for name in loop
            )))
        for first, second in unordered_pairs(
            active, self.catalog.precedes, co_triggered=True
        ):
            tables = interference(first, second)
            if tables:
                report.conflicts.append(ConflictWarning(
                    first.name, second.name, tuple(sorted(tables)),
                    assumed=first.effects.opaque or second.effects.opaque,
                ))
        return report

    def advisory(self) -> dict:
        """Table-level conflict forecast for ``stats()["analysis"]``.

        A table is *contended* when two different active rules' effect
        sets collide on it — write/write, or write by one and read by
        another. The OCC coordinator classifies each observed
        transaction conflict by whether its tables were forecast here
        (``conflicts_predicted`` vs ``conflicts_unpredicted``); a high
        unpredicted count means the static analysis is missing workload
        structure, a high predicted count confirms the RPL5xx warnings
        point at real contention.
        """
        return self._view("advisory", self._advisory)

    def _advisory(self) -> dict:
        summaries = [rule.effects for rule in self.rules() if rule.active]
        touched = [
            (effects.written_tables(), effects.read_tables())
            for effects in summaries
        ]
        contended: set = set()
        pairs = 0
        for (wrote, read), (also_wrote, also_read) in combinations(
            touched, 2
        ):
            tables = (wrote & (also_wrote | also_read)) | (also_wrote & read)
            if tables:
                pairs += 1
                contended |= tables
        return {
            "rules_analyzed": len(summaries),
            "opaque_rules": sum(1 for s in summaries if s.opaque),
            "conflict_pairs": pairs,
            "contended_tables": sorted(contended),
        }


def analysis_of(catalog: Any, database: Any = None) -> ProgramAnalysis:
    """The analysis of ``catalog`` against ``database`` — by default
    the database of the engine that owns it. That one is built on first
    request and kept on the catalog, current with it; another database
    gets a fresh one."""
    if database is None:
        database = catalog.database
    held = catalog.analysis
    if held is not None and held.database is database:
        return held
    analysis = ProgramAnalysis(catalog, database)
    if database is catalog.database:
        catalog.analysis = analysis
    return analysis


def analyze(catalog: Any) -> AnalysisReport:
    """Run the paper's §6 static checks over a rule catalog."""
    return analysis_of(catalog).report()
