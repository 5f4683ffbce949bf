"""The engine-held analysis (repro.analysis.program): built on first
request, derived once per catalog version, the one policy for
deactivated rules, and analyzer failures counted once instead of
swallowed or raised."""

import pytest

from repro import ActiveDatabase
from repro.analysis import analyze
from repro.analysis.lint import triggering
from repro.analysis.types import infer
from repro.concurrency import TransactionCoordinator
from repro.errors import ConflictError
from repro.obs import EventKind, RingBufferSink


@pytest.fixture
def db():
    db = ActiveDatabase()
    db.execute("create table t (x integer)")
    db.execute("create table log (x integer)")
    return db


@pytest.fixture
def counted(monkeypatch):
    """Counts per-rule walks and graph builds from here on."""
    counts = {"walks": [], "graphs": 0}
    walk_init = infer.RuleWalk.__init__
    graph_init = triggering.TriggeringGraph.__init__

    def walk(self, database, rule):
        counts["walks"].append(rule)
        walk_init(self, database, rule)

    def graph(self, *args, **kwargs):
        counts["graphs"] += 1
        graph_init(self, *args, **kwargs)

    monkeypatch.setattr(infer.RuleWalk, "__init__", walk)
    monkeypatch.setattr(triggering.TriggeringGraph, "__init__", graph)
    return counts


def define_rules(db, count):
    for index in range(count):
        db.execute(
            f"create rule r{index} when inserted into t "
            f"if exists (select * from inserted t where x > {index}) "
            f"then insert into log values ({index})"
        )


def conflict(db):
    """One OCC conflict (the coordinator classifies it against the
    advisory)."""
    coord = TransactionCoordinator(db)
    first, second = coord.open_session(), coord.open_session()
    for session in (first, second):
        coord.begin(session)
        coord.execute(session, "update t set x = x + 1")
    coord.commit(second)
    with pytest.raises(ConflictError):
        coord.commit(first)
    return coord


class CommitsOnly(RingBufferSink):
    kinds = frozenset({EventKind.TXN_COMMIT})


class TestBuiltOnRequest:
    def test_nobody_asks_nothing_is_walked(self, db, counted):
        sink = db.attach_sink(CommitsOnly())
        define_rules(db, 3)
        db.execute("insert into t values (5)")
        assert counted == {"walks": [], "graphs": 0}
        assert db.catalog.analysis is None
        assert db.stats()["analysis"] == {"errors": 0}
        assert db.catalog.analysis is None  # reading stats builds nothing
        assert [event.kind for event in sink] == [EventKind.TXN_COMMIT]

    def test_a_lint_sink_walks_each_rule_as_it_is_defined(self, db, counted):
        sink = db.attach_sink(RingBufferSink())
        define_rules(db, 3)
        assert counted == {"walks": ["r0", "r1", "r2"], "graphs": 0}
        db.detach_sink(sink)
        db.execute(
            "create rule r3 when inserted into t then insert into log "
            "values (3)"
        )
        assert counted["walks"] == ["r0", "r1", "r2"]
        db.lint()
        assert counted == {"walks": ["r0", "r1", "r2", "r3"], "graphs": 1}

    def test_analyze_builds_the_engines_analysis(self, db):
        define_rules(db, 2)
        report = analyze(db.catalog)
        assert db.catalog.analysis is db.engine.analysis
        assert report.graph is db.engine.analysis.graph
        assert db.stats()["analysis"]["rules_analyzed"] == 2


class TestDerivedOncePerCatalogVersion:
    def test_defining_rule_n_plus_one_walks_one_rule(self, db, counted):
        define_rules(db, 5)
        assert counted == {"walks": [], "graphs": 0}  # nobody asked yet
        db.lint()
        assert counted == {"walks": ["r0", "r1", "r2", "r3", "r4"],
                           "graphs": 1}
        db.execute(
            "create rule r5 when inserted into t then insert into log "
            "values (5)"
        )
        db.lint()
        assert counted["walks"][5:] == ["r5"]

    def test_every_reader_shares_the_walks_and_one_graph(self, db, counted):
        define_rules(db, 5)
        db.execute("insert into t values (1)")
        db.lint()
        del counted["walks"][:]
        first = db.stats()["analysis"]
        assert db.stats()["analysis"] == first
        analyze(db.catalog)
        coord = conflict(db)
        assert coord.stats.conflicts_predicted \
            + coord.stats.conflicts_unpredicted == 1
        assert counted == {"walks": [], "graphs": 1}
        assert analyze(db.catalog).graph is db.engine.analysis.graph

    def test_what_moves_the_version_rederives_only_what_it_must(
        self, db, counted
    ):
        define_rules(db, 3)
        db.lint()
        del counted["walks"][:]
        # priorities and activation re-derive views over the same graph
        db.execute("create rule priority r0 before r1")
        db.deactivate_rule("r2")
        assert db.stats()["analysis"]["rules_analyzed"] == 2
        db.lint()
        assert counted == {"walks": [], "graphs": 1}
        # a dropped rule costs a graph, not a walk
        db.execute("drop rule r2")
        db.lint()
        assert counted == {"walks": [], "graphs": 2}
        # schema DDL re-walks: diagnostics and effects are facts about
        # the schema version
        db.execute("create table other (y integer)")
        db.lint()
        assert counted == {"walks": ["r0", "r1"], "graphs": 3}


class TestDeactivatedRules:
    """One policy on the one graph: a deactivated rule cannot fire, so
    it has no outgoing edge; RPL302 stays the finding about it."""

    def test_deactivated_self_loop_is_no_loop(self, db):
        db.execute(
            "create rule loop when inserted into t "
            "then insert into t values (1)"
        )
        assert [w.rules for w in analyze(db.catalog).loops] == [("loop",)]
        assert [d.code for d in db.lint()] == ["RPL201"]
        db.deactivate_rule("loop")
        # the parent's analyze() still said [('loop',)] here while its
        # lint() said nothing
        assert analyze(db.catalog).loops == []
        assert list(db.lint()) == []
        assert '"loop";' in analyze(db.catalog).graph.to_dot()
        db.activate_rule("loop")
        assert [w.rules for w in analyze(db.catalog).loops] == [("loop",)]

    def test_rpl302_is_still_reported_about_the_rule(self, db):
        define_rules(db, 2)
        db.deactivate_rule("r0")
        assert [(d.code, d.rule) for d in db.lint() if d.code == "RPL302"] \
            == [("RPL302", "r0")]


def broken(self, expr, scopes):
    raise ZeroDivisionError("injected")


class TestAnalyzerFailures:
    def test_a_raising_walk_is_counted_and_reported_not_raised(
        self, db, monkeypatch
    ):
        sink = db.attach_sink(RingBufferSink())
        assert db.stats()["analysis"]["errors"] == 0
        monkeypatch.setattr(infer.RuleWalk, "expression", broken)
        define_rules(db, 1)  # the definition succeeds
        monkeypatch.undo()

        assert db.stats()["analysis"]["errors"] == 1
        [event] = sink.of_kind(EventKind.LINT_DIAGNOSTIC)
        assert event.data["rule"] == "r0"
        assert event.data["error"] == "ZeroDivisionError"
        assert event.data["pass"] == "internal"
        assert "injected" in event.data["message"]
        # and the rule still runs
        result = db.execute("insert into t values (5)")
        assert [t.source for t in result.transitions] == ["external", "r0"]
        assert db.rows("select x from log") == [(0,)]
        # the next reader walks it for real
        assert list(db.lint()) == []
        assert db.stats()["analysis"] == {
            "rules_analyzed": 1, "opaque_rules": 0, "conflict_pairs": 0,
            "contended_tables": [], "errors": 1,
        }

    def test_a_failing_walk_counts_once_per_catalog_version(
        self, db, monkeypatch
    ):
        """No sink: the walk fails at the first reader, and every later
        reader meets the same failure without counting it again."""
        db.execute("insert into t values (1)")
        monkeypatch.setattr(infer.RuleWalk, "expression", broken)
        define_rules(db, 2)
        assert db.stats()["analysis"] == {"errors": 0}
        for _ in range(2):
            failure, _ = db.lint()
            assert failure.to_dict() == {
                "code": None, "severity": "error",
                "message": "analysis of rule 'r0' failed: "
                           "ZeroDivisionError: injected",
                "line": None, "column": None, "rule": "r0", "hint": None,
                "pass": "internal", "error": "ZeroDivisionError",
            }
            assert analyze(db.catalog).describe() == "no warnings"
        coord = conflict(db)  # the coordinator's path does not raise
        assert coord.stats.conflicts_unpredicted == 1
        assert db.stats()["analysis"] == {
            "rules_analyzed": 0, "opaque_rules": 0, "conflict_pairs": 0,
            "contended_tables": [], "errors": 2,
        }
        # activation re-walks the failed rules without counting them
        db.deactivate_rule("r1")
        assert [d.rule for d in db.lint()] == ["r0", "r1"]
        assert db.stats()["analysis"]["errors"] == 2
        # a new catalog version walks again, and counts again
        db.execute("create rule priority r0 before r1")
        assert [d.rule for d in db.lint()] == ["r0", "r1"]
        assert db.stats()["analysis"]["errors"] == 4
        monkeypatch.undo()
        db.activate_rule("r1")
        assert list(db.lint()) == []
        assert db.stats()["analysis"]["errors"] == 4

    def test_a_failure_at_definition_counts_once_with_its_readers(
        self, db, monkeypatch
    ):
        db.execute("insert into t values (1)")
        sink = db.attach_sink(RingBufferSink())
        monkeypatch.setattr(infer.RuleWalk, "expression", broken)
        define_rules(db, 1)
        [event] = sink.of_kind(EventKind.LINT_DIAGNOSTIC)
        [failure] = db.lint()
        assert failure.to_dict() == event.data
        conflict(db)
        assert db.stats()["analysis"]["errors"] == 1

    def test_errors_is_present_for_an_empty_catalog(self, db):
        assert db.stats()["analysis"] == {"errors": 0}
        db.lint()
        assert db.stats()["analysis"] == {
            "rules_analyzed": 0, "opaque_rules": 0, "conflict_pairs": 0,
            "contended_tables": [], "errors": 0,
        }
