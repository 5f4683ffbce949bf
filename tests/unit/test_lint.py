"""Unit tests for the rule-program lint subsystem (repro.analysis.lint).

Covers the diagnostics framework, the pass registry, constant folding
and edge refinement, the catalog/script entry points, definition-time
lint events, and — centrally — the two analyses ISSUE 5 pins down:

* a regression test fixing the pre/post warning sets around refinement
  (the syntactic graph reports a loop, the refined graph discharges it).

That refinement never removes an edge a run can realize is theorem T2
of ``tests/property/test_analysis_theorems.py``.
"""

import pytest

from repro import ActiveDatabase
from repro.analysis import analyze
from repro.analysis.lint import (
    lint_catalog,
    lint_script,
)
from repro.analysis.lint.base import all_passes, get_pass
from repro.analysis.lint.context import LintRule
from repro.analysis.lint.diagnostics import (
    CODES,
    LintReport,
    Severity,
    make,
)
from repro.analysis.lint.refine import (
    condition_provably_false,
    constant_fold,
    edge_realizable,
    provably_false,
)
from repro.analysis.lint.triggering import TriggeringGraph
from repro.analysis.types.infer import walk_rule
from repro.obs import EventKind, RingBufferSink
from repro.sql import Span, ast
from repro.sql.parser import Parser, parse_expression
from repro.workloads import orgchart


def script_rules(source):
    """The script's rules, walked without a database (schemas unknown)."""
    statements = Parser(source).parse_script()
    return [
        walk_rule(LintRule.from_statement(statement), None)
        for statement in statements
        if isinstance(statement, ast.CreateRule)
    ]


class TestDiagnosticsFramework:
    def test_make_fills_severity_from_the_catalog(self):
        diagnostic = make("RPL001", "unknown table 'x'", rule="r")
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.code == "RPL001"

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            make("RPL999", "nope")

    def test_describe_mentions_code_location_and_rule(self):
        span = Span(3, 7, 3, 9, 0, 2)
        diagnostic = make("RPL002", "unknown column 'q'", span=span,
                          rule="guard", hint="check the schema")
        text = diagnostic.describe()
        assert "RPL002" in text
        assert "3:7" in text
        assert "guard" in text
        assert "hint" in text

    def test_to_dict_is_json_friendly(self):
        rendered = make("RPL201", "loop", rule="r").to_dict()
        assert rendered["code"] == "RPL201"
        assert rendered["severity"] == "warning"

    def test_report_sorts_errors_first_then_position(self):
        late_error = make("RPL001", "e", span=Span(9, 1, 9, 2, 90, 91))
        early_warning = make("RPL201", "w", span=Span(1, 1, 1, 2, 0, 1))
        note = make("RPL202", "n", span=Span(1, 1, 1, 2, 0, 1))
        report = LintReport([note, early_warning, late_error])
        report.sort()
        assert [d.code for d in report] == ["RPL001", "RPL201", "RPL202"]

    def test_findings_exclude_info(self):
        report = LintReport([
            make("RPL202", "discharged"),
            make("RPL201", "loop"),
            make("RPL001", "bad table"),
        ])
        report.sort()
        assert [d.code for d in report.findings] == ["RPL001", "RPL201"]
        assert [d.code for d in report.errors] == ["RPL001"]
        assert [d.code for d in report.warnings] == ["RPL201"]
        assert [d.code for d in report.notes] == ["RPL202"]

    def test_every_code_has_severity_and_description(self):
        assert len(CODES) >= 12
        for code, (severity, description) in CODES.items():
            assert code.startswith("RPL")
            assert isinstance(severity, Severity)
            assert description


class TestPassRegistry:
    def test_rule_and_program_scopes_are_populated(self):
        rule_passes = {p.name for p in all_passes("rule")}
        program_passes = {p.name for p in all_passes("program")}
        assert "schema" in rule_passes
        assert "transition" in rule_passes
        assert "triggering" in program_passes
        assert "hygiene" in program_passes
        assert not rule_passes & program_passes

    def test_get_pass(self):
        assert get_pass("schema").scope == "rule"
        with pytest.raises(KeyError):
            get_pass("no-such-pass")


class TestConstantFolding:
    def fold(self, source):
        return constant_fold(parse_expression(source), lambda ref: None)

    def test_arithmetic_and_comparison(self):
        assert self.fold("1 + 2 * 3") == 7
        assert self.fold("1 = 2") is False
        assert self.fold("2 >= 2") is True

    def test_null_propagates_through_comparison(self):
        assert self.fold("null = 1") is None
        assert self.fold("null is null") is True

    def test_kleene_three_valued_logic(self):
        assert self.fold("1 = 1 or null = 1") is True
        assert self.fold("1 = 2 and null = 1") is False
        assert self.fold("1 = 1 and null = 1") is None

    def test_division_by_zero_is_unknown_not_crash(self):
        assert provably_false(self.fold("1 = 1 and 1 = 2"))
        value = self.fold("1 / 0 > 1")
        assert value is not True  # UNKNOWN or NULL, never provably true

    def test_provably_false(self):
        assert provably_false(False)
        assert provably_false(None)  # NULL condition never satisfies
        assert not provably_false(True)
        assert not provably_false(object())  # UNKNOWN keeps the edge

    def test_condition_provably_false(self):
        assert condition_provably_false(parse_expression("1 = 2"))
        assert not condition_provably_false(parse_expression("1 = 1"))
        assert not condition_provably_false(None)  # no condition = true


DISCHARGE_PROGRAM = """
create table emp (name varchar, salary integer);

create rule clamp
when updated emp.salary
if exists (select * from new updated emp.salary where salary < 0)
then update emp set salary = 0 where salary < 0;
"""

REALIZABLE_PROGRAM = """
create table dept (dno integer, budget integer);

create rule spiral
when updated dept.budget
then update dept set budget = budget - 1 where budget > 0;
"""


class TestEdgeRefinement:
    def test_self_discharging_clamp_is_pruned(self):
        [clamp] = script_rules(DISCHARGE_PROGRAM)
        realizable, reason = edge_realizable(clamp, clamp)
        assert not realizable
        assert reason

    def test_unconditional_spiral_is_kept(self):
        [spiral] = script_rules(REALIZABLE_PROGRAM)
        realizable, _ = edge_realizable(spiral, spiral)
        assert realizable

    def test_constant_false_condition_prunes_incoming_edges(self):
        provider, consumer = script_rules(
            "create rule feeder when inserted into t "
            "then update t set x = 1 where x < 1;\n"
            "create rule dead when updated t.x if 1 = 2 "
            "then delete from t where x < 0;"
        )
        realizable, reason = edge_realizable(provider, consumer)
        assert not realizable
        assert "false" in reason

    def test_external_action_always_keeps_edges(self):
        from repro.core.external import ExternalAction

        [clamp] = script_rules(DISCHARGE_PROGRAM)
        opaque = walk_rule(LintRule(
            name="opaque",
            predicates=clamp.predicates,
            condition=None,
            action=ExternalAction(lambda context: None, "opaque"),
        ), None)
        realizable, _ = edge_realizable(opaque, clamp)
        assert realizable

    def test_refined_graph_records_the_pruning_proof(self):
        rules = script_rules(DISCHARGE_PROGRAM)
        graph = TriggeringGraph(rules)
        assert graph.successors()["clamp"] == ["clamp"]
        assert graph.successors(refined=True)["clamp"] == []
        [pruned] = graph.pruned
        assert (pruned.provider, pruned.consumer) == ("clamp", "clamp")
        assert "clamp -> clamp" in pruned.describe()


class TestRefinementRegression:
    """Pin the pre/post warning sets around condition refinement.

    The org-chart workload deliberately contains ``discharge_demo``, a
    rule the *syntactic* triggering graph flags as a self-loop but whose
    condition provably cannot survive its own action.  The syntactic
    analyzer must keep warning (it is the paper's conservative check);
    the refined analyzer must discharge exactly that warning and say so.
    """

    @pytest.fixture()
    def db(self):
        db = ActiveDatabase()
        orgchart.populate(db, depth=2)
        orgchart.define_rules(db)
        return db

    def test_syntactic_graph_still_reports_the_loop(self, db):
        loops = {w.rules for w in analyze(db.catalog).loops}
        assert loops == {("discharge_demo",)}

    def test_refinement_discharges_it(self, db):
        report = db.lint()
        assert [d.code for d in report.findings] == []
        discharged = [d for d in report.notes if d.code == "RPL202"]
        assert len(discharged) == 1
        assert "discharge_demo" in discharged[0].message
        assert not any(d.code == "RPL201" for d in report)

    def test_pre_and_post_sets_differ_by_exactly_the_discharged_loop(
        self, db
    ):
        graph = db.engine.analysis.graph
        assert analyze(db.catalog).graph is graph  # one graph, two views
        syntactic = set(graph.loops())
        refined = set(graph.loops(refined=True))
        assert syntactic - refined == {("discharge_demo",)}
        assert refined - syntactic == set()


class TestCatalogEntryPoints:
    def make_db(self):
        db = ActiveDatabase()
        db.execute("create table emp (name varchar, salary integer)")
        return db

    def test_clean_catalog_lints_clean(self):
        db = self.make_db()
        db.execute(
            "create rule guard when inserted into emp "
            "if exists (select * from inserted emp where salary < 0) "
            "then delete from emp where salary < 0"
        )
        report = db.lint()
        assert list(report.findings) == []

    def test_open_world_default_skips_dead_read_analysis(self):
        db = self.make_db()
        db.execute("create table blacklist (name varchar)")
        db.execute(
            "create rule screen when inserted into emp "
            "if exists (select * from blacklist b where b.name = 'x') "
            "then delete from emp where salary < 0"
        )
        assert not any(d.code == "RPL304" for d in db.lint())
        closed = db.lint(closed_world=True)
        assert any(d.code == "RPL304" for d in closed)

    def test_workload_writes_silence_dead_reads(self):
        db = self.make_db()
        db.execute("create table blacklist (name varchar)")
        db.execute(
            "create rule screen when inserted into emp "
            "if exists (select * from blacklist b where b.name = 'x') "
            "then delete from emp where salary < 0"
        )
        report = db.lint(
            closed_world=True, workload_writes=[("blacklist", None)]
        )
        assert not any(d.code == "RPL304" for d in report)

    def test_lint_catalog_function_matches_method(self):
        db = self.make_db()
        db.execute(
            "create rule guard when inserted into emp "
            "then delete from emp where salary < 0"
        )
        direct = lint_catalog(db.catalog, db.database)
        assert [d.code for d in direct] == [d.code for d in db.lint()]


class TestDefinitionTimeEvents:
    def test_define_rule_emits_lint_diagnostic_events(self):
        sink = RingBufferSink()
        db = ActiveDatabase(sink=sink)
        db.execute("create table emp (name varchar, salary integer)")
        db.execute(
            "create rule watcher when inserted into emp "
            "if exists (select * from inserted emp where salry > 0) "
            "then delete from emp where salary < 0"
        )
        events = sink.of_kind(EventKind.LINT_DIAGNOSTIC)
        assert events
        codes = {event.data["code"] for event in events}
        assert "RPL002" in codes
        assert events[0].data["rule"] == "watcher"

    def test_clean_rule_emits_no_lint_events(self):
        sink = RingBufferSink()
        db = ActiveDatabase(sink=sink)
        db.execute("create table emp (name varchar, salary integer)")
        db.execute(
            "create rule ok when inserted into emp "
            "then delete from emp where salary < 0"
        )
        assert sink.of_kind(EventKind.LINT_DIAGNOSTIC) == []


class TestScriptEntryPoint:
    def test_spans_point_into_the_script(self):
        source = DISCHARGE_PROGRAM + (
            "\ncreate rule broken\nwhen inserted into emp"
            "\nif exists (select * from inserted emp where salry > 0)"
            "\nthen delete from emp where salary < 0;\n"
        )
        report = lint_script(source)
        [error] = report.errors
        assert error.code == "RPL002"
        assert error.span is not None
        assert error.span.slice(source) == "salry"

    def test_drop_rule_removes_it_from_the_program(self):
        source = REALIZABLE_PROGRAM + "\ndrop rule spiral;\n"
        report = lint_script(source)
        assert not any(d.code == "RPL201" for d in report)

    def test_deactivate_pragma_for_unknown_rule_is_reported(self):
        source = "-- lint: deactivate ghost\n" + DISCHARGE_PROGRAM
        report = lint_script(source)
        assert any(d.code == "RPL007" for d in report)
