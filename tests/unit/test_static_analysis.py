"""Unit tests for static rule analysis (paper §6): the facts the §6
sketch was first tested on, read off the one analysis object — a bare
catalog's :class:`ProgramAnalysis` (no database: every schema unknown,
so inserts and deletes write the ``"*"`` column)."""

import pytest

from repro.analysis import ProgramAnalysis, analyze
from repro.core.external import ExternalAction
from repro.core.rules import RuleCatalog
from repro.sql.parser import parse_statement


@pytest.fixture
def catalog():
    return RuleCatalog()


def define(catalog, sql):
    return catalog.create_rule_from_ast(parse_statement(sql))


def effects_of(catalog, rule):
    """The rule's walked effect summary."""
    walked = {r.name: r for r in ProgramAnalysis(catalog).rules()}
    return walked[rule.name].effects


def may_trigger(catalog, provider, consumer):
    return analyze(catalog).graph.has_edge(provider.name, consumer.name)


def may_loop(catalog, name):
    return any(name in warning.rules for warning in analyze(catalog).loops)


class TestActionProvides:
    def test_insert_provides_inserted(self, catalog):
        rule = define(
            catalog,
            "create rule r when inserted into a then insert into b values (1)",
        )
        writes = effects_of(catalog, rule).writes
        assert writes == {("inserted", "b", "*")}

    def test_update_provides_columns(self, catalog):
        rule = define(
            catalog,
            "create rule r when inserted into a "
            "then update b set x = 1, y = 2",
        )
        assert effects_of(catalog, rule).writes == {
            ("updated", "b", "x"), ("updated", "b", "y"),
        }

    def test_rollback_provides_nothing(self, catalog):
        rule = define(catalog, "create rule r when inserted into a then rollback")
        effects = effects_of(catalog, rule)
        assert effects.writes == frozenset() and not effects.opaque

    def test_external_action_is_opaque(self, catalog):
        rule = catalog.create_rule(
            "ext",
            parse_statement(
                "create rule x when inserted into a then rollback"
            ).predicates,
            None,
            ExternalAction(lambda c: None),
        )
        assert effects_of(catalog, rule).opaque

    def test_multi_operation_action(self, catalog):
        rule = define(
            catalog,
            "create rule r when inserted into a "
            "then delete from b; insert into c values (1)",
        )
        kinds = {(k, t) for k, t, _ in effects_of(catalog, rule).writes}
        assert kinds == {("deleted", "b"), ("inserted", "c")}


class TestMayTrigger:
    def test_matching_tables(self, catalog):
        provider = define(
            catalog,
            "create rule p when inserted into a then delete from b",
        )
        consumer = define(
            catalog,
            "create rule c when deleted from b then rollback",
        )
        assert may_trigger(catalog, provider, consumer)
        assert not may_trigger(catalog, consumer, provider)

    def test_column_narrowing(self, catalog):
        provider = define(
            catalog,
            "create rule p when inserted into a then update b set x = 1",
        )
        on_x = define(catalog, "create rule cx when updated b.x then rollback")
        on_y = define(catalog, "create rule cy when updated b.y then rollback")
        whole = define(catalog, "create rule cw when updated b then rollback")
        assert may_trigger(catalog, provider, on_x)
        assert not may_trigger(catalog, provider, on_y)
        assert may_trigger(catalog, provider, whole)

    def test_external_triggers_everything(self, catalog):
        provider = catalog.create_rule(
            "ext",
            parse_statement(
                "create rule x when inserted into a then rollback"
            ).predicates,
            None,
            ExternalAction(lambda c: None),
        )
        consumer = define(
            catalog, "create rule c when deleted from zzz then rollback"
        )
        assert may_trigger(catalog, provider, consumer)


class TestLoops:
    def test_self_loop_detected(self, catalog):
        define(
            catalog,
            "create rule r when updated t.x then update t set x = 1",
        )
        warnings = analyze(catalog).loops
        assert len(warnings) == 1
        assert warnings[0].is_self_loop
        assert warnings[0].rules == ("r",)
        assert may_loop(catalog, "r")

    def test_example_41_recursive_rule_warns(self, catalog):
        """Example 4.1's rule is self-triggering (converges at run time,
        but the static facility must still warn — paper footnote 7)."""
        define(
            catalog,
            "create rule r when deleted from emp "
            "then delete from emp where dept_no in "
            "(select dept_no from dept where mgr_no in "
            "(select emp_no from deleted emp)); "
            "delete from dept where mgr_no in "
            "(select emp_no from deleted emp)",
        )
        assert may_loop(catalog, "r")

    def test_two_rule_cycle(self, catalog):
        define(catalog, "create rule a when inserted into t then insert into u values (1)")
        define(catalog, "create rule b when inserted into u then insert into t values (1)")
        warnings = analyze(catalog).loops
        assert len(warnings) == 1
        assert set(warnings[0].rules) == {"a", "b"}
        assert not warnings[0].is_self_loop

    def test_acyclic_chain_no_warning(self, catalog):
        define(catalog, "create rule a when inserted into t then insert into u values (1)")
        define(catalog, "create rule b when inserted into u then insert into v values (1)")
        assert analyze(catalog).loops == []

    def test_describe(self, catalog):
        define(
            catalog, "create rule r when updated t then update t set x = 1"
        )
        [warning] = analyze(catalog).loops
        assert "r" in warning.describe()


class TestConflicts:
    def test_unordered_interfering_pair_warns(self, catalog):
        define(
            catalog,
            "create rule a when inserted into t then update u set x = 1",
        )
        define(
            catalog,
            "create rule b when inserted into t then delete from u",
        )
        warnings = analyze(catalog).conflicts
        assert len(warnings) == 1
        assert {warnings[0].first, warnings[0].second} == {"a", "b"}
        assert "u" in warnings[0].tables

    def test_priority_silences_warning(self, catalog):
        define(
            catalog,
            "create rule a when inserted into t then update u set x = 1",
        )
        define(
            catalog,
            "create rule b when inserted into t then delete from u",
        )
        catalog.add_priority("a", "b")
        assert analyze(catalog).conflicts == []

    def test_disjoint_predicates_no_warning(self, catalog):
        define(catalog, "create rule a when inserted into t then delete from u")
        define(catalog, "create rule b when inserted into v then delete from u")
        assert analyze(catalog).conflicts == []

    def test_non_interfering_actions_no_warning(self, catalog):
        define(catalog, "create rule a when inserted into t then delete from u")
        define(catalog, "create rule b when inserted into t then delete from v")
        assert analyze(catalog).conflicts == []

    def test_write_read_interference(self, catalog):
        define(catalog, "create rule a when inserted into t then delete from u")
        define(
            catalog,
            "create rule b when inserted into t "
            "if exists (select * from u) then delete from v",
        )
        warnings = analyze(catalog).conflicts
        assert len(warnings) == 1

    def test_reads_and_writes_helpers(self, catalog):
        rule = define(
            catalog,
            "create rule r when inserted into t "
            "if exists (select * from a) "
            "then delete from b where x in (select x from c)",
        )
        effects = effects_of(catalog, rule)
        assert effects.scans == {"a", "b", "c"}
        assert effects.written_tables() == {"b"}


class TestGraphAndReport:
    def test_graph_edges(self, catalog):
        define(catalog, "create rule a when inserted into t then insert into u values (1)")
        define(catalog, "create rule b when inserted into u then rollback")
        graph = analyze(catalog).graph
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")
        assert ("a", "b") in graph.edges()

    def test_to_dot(self, catalog):
        define(catalog, "create rule a when inserted into t then insert into u values (1)")
        define(catalog, "create rule b when inserted into u then rollback")
        dot = analyze(catalog).graph.to_dot()
        assert '"a" -> "b";' in dot

    def test_analyze_report(self, catalog):
        define(catalog, "create rule a when updated t then update t set x = 1")
        report = analyze(catalog)
        assert report.warning_count == 1
        assert "LOOP" in report.describe()

    def test_clean_catalog_reports_no_warnings(self, catalog):
        define(catalog, "create rule a when inserted into t then delete from u")
        report = analyze(catalog)
        assert report.warning_count == 0
        assert report.describe() == "no warnings"


class TestAssumedFlag:
    """Warnings derived from opaque external actions are marked assumed."""

    def test_sql_loop_is_not_assumed(self, catalog):
        define(
            catalog,
            "create rule r when updated t.x then update t set x = 1",
        )
        (warning,) = analyze(catalog).loops
        assert warning.rules == ("r",)
        assert warning.assumed is False
        assert "assumed" not in warning.describe()

    def test_external_loop_is_assumed(self, catalog):
        catalog.create_rule(
            "ext", parse_statement(
                "create rule ignored when inserted into t then rollback"
            ).predicates,
            None, ExternalAction(lambda context: None, "opaque"),
        )
        (warning,) = analyze(catalog).loops
        assert warning.rules == ("ext",)
        assert warning.assumed is True
        assert "assumed" in warning.describe()

    def test_mixed_cycle_through_external_rule_is_assumed(self, catalog):
        define(
            catalog,
            "create rule sql_rule when inserted into t "
            "then insert into u values (1)",
        )
        catalog.create_rule(
            "ext", parse_statement(
                "create rule ignored when inserted into u then rollback"
            ).predicates,
            None, ExternalAction(lambda context: None, "opaque"),
        )
        warnings = analyze(catalog).loops
        cycle = next(w for w in warnings if "sql_rule" in w.rules)
        assert cycle.assumed is True

    def test_sql_conflict_is_not_assumed(self, catalog):
        define(
            catalog,
            "create rule a when inserted into t then update t set x = 1",
        )
        define(
            catalog,
            "create rule b when inserted into t then update t set x = 2",
        )
        (warning,) = analyze(catalog).conflicts
        assert warning.assumed is False
        assert "assumed" not in warning.describe()

    def test_external_conflict_is_assumed(self, catalog):
        define(
            catalog,
            "create rule a when inserted into t then update t set x = 1",
        )
        catalog.create_rule(
            "ext", parse_statement(
                "create rule ignored when inserted into t then rollback"
            ).predicates,
            None, ExternalAction(lambda context: None, "opaque"),
        )
        warnings = analyze(catalog).conflicts
        pair = next(w for w in warnings if "ext" in (w.first, w.second))
        assert pair.assumed is True
        assert "assumed" in pair.describe()
