"""Unit tests for the static type-and-effect analyzer (docs §16):
per-rule effect sets, the effect-based triggering-graph discharge, the
and the conflict advisory."""

import pytest

from repro import ActiveDatabase
from repro.analysis.effects import ANY_COLUMN, writes_can_populate
from repro.analysis.lint import lint_script
from repro.analysis.lint.context import LintRule
from repro.analysis.types.infer import walk_rule
from repro.relational.database import Database
from repro.sql import ast
from repro.sql.parser import parse_statement


@pytest.fixture
def database():
    db = Database()
    db.create_table("emp", [("name", "varchar"), ("salary", "integer")])
    db.create_table("log", [("name", "varchar"), ("salary", "integer")])
    return db


def effects_of(sql, database):
    """The effect summary the one walk over the rule produces."""
    rule = LintRule.from_statement(parse_statement(sql))
    return walk_rule(rule, database).effects


class TestRuleEffects:
    def test_update_writes_exactly_the_assigned_columns(self, database):
        effects = effects_of(
            "create rule r when inserted into emp "
            "if exists (select * from inserted emp where salary > 0) "
            "then update emp set salary = 0 where salary < 0",
            database,
        )
        assert ("updated", "emp", "salary") in effects.writes
        assert ("updated", "emp", "name") not in effects.writes

    def test_insert_writes_every_schema_column(self, database):
        effects = effects_of(
            "create rule r when inserted into emp "
            "then insert into log (select name, salary from inserted emp)",
            database,
        )
        assert {("inserted", "log", "name"),
                ("inserted", "log", "salary")} <= effects.writes

    def test_unknown_table_write_is_wildcarded(self, database):
        effects = effects_of(
            "create rule r when inserted into emp "
            "then insert into mystery values (1)",
            database,
        )
        assert ("inserted", "mystery", ANY_COLUMN) in effects.writes

    def test_condition_and_where_columns_are_read(self, database):
        effects = effects_of(
            "create rule r when inserted into emp "
            "if exists (select * from inserted emp where salary > 10) "
            "then delete from log where name = 'x'",
            database,
        )
        assert ("emp", "salary") in effects.reads
        assert ("log", "name") in effects.reads

    def test_rollback_action_writes_nothing(self, database):
        effects = effects_of(
            "create rule r when inserted into emp then rollback",
            database,
        )
        assert effects.writes == frozenset()
        assert not effects.opaque

    def test_opaque_action_has_none_writes(self, database):
        rule = LintRule.from_statement(parse_statement(
            "create rule r when inserted into emp then rollback"
        ))
        rule.action = None
        assert walk_rule(rule, database).effects.opaque


class TestWritesCanPopulate:
    def sql(self, text):
        return parse_statement(text)

    def ref(self, sql):
        statement = self.sql(
            f"create rule probe when inserted into emp "
            f"if exists (select * from {sql}) then rollback"
        )
        (select,) = list(ast.iter_selects(statement.condition))
        return select.tables[0]

    def test_update_populates_only_assigned_columns(self):
        writes = frozenset({("updated", "emp", "salary")})
        assert writes_can_populate(writes, self.ref("new updated emp.salary"))
        assert not writes_can_populate(
            writes, self.ref("new updated emp.name")
        )

    def test_insert_does_not_populate_updated_views(self):
        writes = frozenset({("inserted", "emp", "salary")})
        assert writes_can_populate(writes, self.ref("inserted emp"))
        assert not writes_can_populate(writes, self.ref("deleted emp"))
        assert not writes_can_populate(
            writes, self.ref("new updated emp.salary")
        )

    def test_opaque_writes_can_populate_anything(self):
        assert writes_can_populate(None, self.ref("deleted emp"))


class TestEffectDischarge:
    """A provider that provably cannot fill the consumer's transition
    view must not create a triggering edge (RPL201 stays silent)."""

    SCRIPT = """
create table emp (name varchar, salary integer, bonus integer);
insert into emp values ('lee', 1, 0);

create rule cycle_a
when updated emp
if exists (select * from new updated emp.salary where salary > 0)
then update emp set bonus = 1 where salary > 0;

create rule cycle_b
when updated emp
if exists (select * from new updated emp.bonus where bonus > 0)
then update emp set {assignment} where bonus > 0;
"""

    def codes(self, assignment):
        report = lint_script(self.SCRIPT.format(assignment=assignment))
        return {d.code for d in report}

    def test_column_disjoint_cycle_is_discharged(self):
        # Both predicates match any emp update, so every syntactic edge
        # exists — but cycle_b assigns only name, which can never fill
        # cycle_a's "new updated emp.salary" view (nor its own bonus
        # view), so the effect discharge leaves no loop.
        codes = self.codes("name = 'kept'")
        assert "RPL201" not in codes

    def test_column_overlap_keeps_the_loop(self):
        assert "RPL201" in self.codes("salary = 2")


class TestConflictAdvisory:
    def advisory(self, *rules):
        db = ActiveDatabase()
        db.execute("create table emp (name varchar, salary integer)")
        db.execute("create table log (name varchar, salary integer)")
        for rule in rules:
            db.execute(rule)
        return db, db.engine.conflict_advisory()

    def test_colliding_rules_forecast_contention(self):
        _, advisory = self.advisory(
            "create rule a when inserted into emp "
            "then update emp set salary = 1",
            "create rule b when inserted into log "
            "then update emp set salary = 2",
        )
        assert advisory["rules_analyzed"] == 2
        assert advisory["conflict_pairs"] == 1
        assert advisory["contended_tables"] == ["emp"]

    def test_disjoint_rules_forecast_nothing(self):
        _, advisory = self.advisory(
            "create rule a when inserted into emp "
            "then update emp set salary = 1",
            "create rule b when inserted into log "
            "then delete from log where salary < 0",
        )
        assert advisory["conflict_pairs"] == 0
        assert advisory["contended_tables"] == []

    def test_deactivated_rules_are_not_counted(self):
        db, before = self.advisory(
            "create rule a when inserted into emp "
            "then update emp set salary = 1",
            "create rule b when inserted into log "
            "then update emp set salary = 2",
        )
        db.deactivate_rule("b")
        after = db.stats()["analysis"]  # built by the first read
        assert (before["rules_analyzed"], after["rules_analyzed"]) == (2, 1)
        assert after["contended_tables"] == []

    def test_deactivated_provider_makes_no_cascade_siblings(self):
        """Regression (two analyzers, two answers): RPL501 needs a
        common provider that can fire."""
        db = ActiveDatabase()
        for table in "abcd":
            db.execute(f"create table {table} (x integer)")
        db.execute(
            "create rule prov when inserted into a "
            "then insert into b values (1); insert into c values (1)"
        )
        db.execute(
            "create rule sib1 when inserted into b then update d set x = 1"
        )
        db.execute(
            "create rule sib2 when inserted into c then update d set x = 2"
        )
        assert [d.code for d in db.lint()] == ["RPL501"]
        db.deactivate_rule("prov")
        assert [d.code for d in db.lint()] == []
        db.activate_rule("prov")
        assert [d.code for d in db.lint()] == ["RPL501"]
