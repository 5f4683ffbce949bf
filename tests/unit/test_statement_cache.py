"""Unit tests for the statement cache (repro.relational.plan.cache) and
the text normaliser / literal lifter it keys and fills itself with
(repro.sql.lexer.normalise, repro.sql.params).

The differential suite (tests/property/test_statement_cache_differential
.py) holds ``execute(text)`` to ``execute(parse_statement(text))``; these
tests pin the mechanics: what is and is not part of a key, bounded
residency under distinct literals and distinct shapes, pinned rule
entries, and lookups from several threads.
"""

import gc
import random
import re
import sys
import threading

import pytest

from repro import ActiveDatabase
from repro.errors import ParseError
from repro.relational.plan import StatementCache
from repro.relational.select import evaluate_select
from repro.sql import ast
from repro.sql.formatter import format_node
from repro.sql.lexer import normalise
from repro.sql.params import bind
from repro.sql.parser import parse_statement
from repro.sql.spans import walk


def key_of(text):
    return normalise(text).key


class TestNormalise:
    def test_literals_leave_the_key_and_become_parameters(self):
        found = normalise("select bal from acct where id = 4711")
        assert found.key == "select bal from acct where id = ?n"
        assert found.params == [4711]
        assert key_of("select bal from acct where id = 7") == found.key

    def test_case_blanks_and_comments_are_not_part_of_the_key(self):
        assert key_of("SELECT Bal\n  FROM acct -- hot\n WHERE id=1") == \
            key_of("select bal from acct /* x */ where id = 2")

    def test_the_kind_of_a_literal_is(self):
        keys = {key_of(f"select * from t where x = {literal}")
                for literal in ("1", "1.5", "'a'", "null", "true", "-1")}
        # 1 and 1.5 are both numbers; every other spelling is a shape
        assert len(keys) == 5
        assert key_of("select * from t where 1 = x") not in keys

    def test_strings_are_unquoted(self):
        assert normalise("select 'it''s' from t").params == ["it's"]

    def test_limit_and_divisors_stay_verbatim(self):
        found = normalise("select x / 2, x % (3), x / y, 1 / x from t limit 5")
        assert found.key == \
            "select x / 2 , x % ( 3 ) , x / y , ?n / x from t limit 5"
        assert found.params == [1]
        assert key_of("select x / 2 from t") != key_of("select x / 2.0 from t")
        assert key_of("select x / 2 from t") != key_of("select x / 0 from t")

    def test_in_list_arity_is_structural(self):
        assert key_of("select * from t where x in (1, 2)") != \
            key_of("select * from t where x in (1, 2, 3)")

    def test_a_literal_values_list_is_one_parameter(self):
        text = "insert into t values (1, 'a'), (2, null)"
        found = normalise(text)
        assert found.key == "insert into t values ?r"
        assert found.rows == [(0, text.index("("), len(text))]
        # rows holding an expression are lexed value by value
        assert key_of("insert into t values (1, 1 + 1)") == \
            "insert into t values ( ?n , ?n + ?n )"

    def test_explain_is_a_flag_not_a_key(self):
        found = normalise("explain select 1")
        assert found.explain and found.key == key_of("select 2")

    @pytest.mark.parametrize("text", [
        "create table t (x integer)",
        "create rule r when inserted into t then delete from t where x = 1",
        "drop table t", "assert rules", "", "   ", "select ?",
        "select 'unterminated", "(select 1)", "explain explain select 1",
    ])
    def test_everything_else_is_not_normalised(self, text):
        assert normalise(text) is None


class TestLiftAndBind:
    @pytest.mark.parametrize("text", [
        "select bal, 1 from acct where id = 4711 and note like 'a%'",
        "select x / 2, x % (3), x / (2 + 1) from t where y between 1 and 2",
        "update t set x = x + 1, y = 'b' where z in (1, 2, 3); "
        "delete from t where k = 9",
        "insert into t values (1, 1 + 1, null, true)",
        "select case when x > 1 then 'hi' else 'lo' end from t "
        "group by x + 1 order by 2 limit 3",
        "select * from t where x = (select max(y) from u where y < 5) "
        "union select * from t where x = 6",
    ])
    def test_bind_inverts_lift(self, text):
        values = []
        template = parse_statement(text, values)
        assert values == normalise(text).params  # one rule, two readers
        assert bind(template, values) == parse_statement(text)
        kept = {
            node.value for node in walk(template)
            if isinstance(node, ast.Literal)
            and type(node.value) in (int, float, str)
        }
        assert kept <= {2, 3}  # nothing but the divisors

    def test_literal_rows_lift_to_the_matrix(self):
        text = "insert into t values (1, 'a'), (-2, null)"
        values = []
        template = parse_statement(text, values)
        assert values == [((1, "a"), (-2, None))]
        assert template.operations[0].rows == ast.Param(0, "r")
        assert format_node(bind(template, values)) == \
            format_node(parse_statement(text))

    def test_a_statement_without_literals_binds_to_itself(self):
        template = parse_statement("select a from t where a is null", [])
        assert bind(template, [1]) is template


@pytest.fixture
def db():
    adb = ActiveDatabase()
    adb.execute("create table acct (id integer, bal float)")
    adb.execute("create index acct_id on acct (id)")
    adb.execute("insert into acct values " + ", ".join(
        f"({i}, 100.0)" for i in range(200)
    ))
    adb.execute(
        "create rule no_overdraft when updated acct.bal "
        "if exists (select * from new updated acct.bal where bal < 0) "
        "then rollback"
    )
    return adb


def _hot_statements(db, count, rng):
    """The hot_sessions shapes, every literal fresh."""
    for _ in range(count):
        key = rng.randrange(200)
        assert len(db.query(f"select bal from acct where id = {key}").rows) == 1
        result = db.execute(
            f"update acct set bal = bal + {rng.randrange(1, 1000)} "
            f"where id = {key}"
        )
        assert result.committed


class TestBoundedResidency:
    def test_distinct_literals_share_one_entry_per_shape(self, db):
        rng = random.Random(7)
        _hot_statements(db, 500, rng)
        gc.collect()
        blocks = sys.getallocatedblocks()
        before = db.stats()
        _hot_statements(db, 2000, rng)  # 4,000 statements
        gc.collect()
        grown = sys.getallocatedblocks() - blocks
        after = db.stats()
        cache = after["planner"]["statement_cache"]
        # two shapes, the set-up insert, the rule and its condition view
        assert cache["entries"] <= 6 and cache["evictions"] == 0
        for section, field in (("planner", "plan_cache_misses"),
                               ("compiler", "cache_misses")):
            # nothing is re-derived for a new literal
            assert after[section][field] == before[section][field]
        assert grown < 1500, grown  # flat: nothing is kept per statement

    def test_rule_entries_survive_an_eviction_storm(self, db):
        statements = db.database.statements
        db.execute("update acct set bal = bal + 1 where id = 1")
        for width in range(2, statements.max_entries + 40):
            # one more IN-list member is one more shape
            members = ", ".join(str(i) for i in range(width))
            db.query(f"select bal from acct where id in ({members})")
        snapshot = db.stats()["planner"]["statement_cache"]
        assert snapshot["evictions"] >= 38
        assert snapshot["entries"] - snapshot["pinned"] \
            == statements.max_entries
        assert snapshot["pinned"] >= 1
        # the update's own shape was evicted and is compiled again (its
        # WHERE and its SET expression, where those are compiled at
        # all); nothing of the rule is
        compiles = db.stats()["compiler"]["compiles"]
        db.execute("update acct set bal = bal + 1 where id = 2")
        assert db.stats()["compiler"]["compiles"] - compiles <= 2
        db.execute("update acct set bal = 0 - 5 where id = 3")  # it fires
        assert db.rows("select bal from acct where id = 3") == [(100.0,)]

    def test_a_dropped_rule_releases_its_entry(self, db):
        db.execute("update acct set bal = bal + 1 where id = 1")
        pinned = db.stats()["planner"]["statement_cache"]["pinned"]
        db.execute("drop rule no_overdraft")
        assert db.stats()["planner"]["statement_cache"]["pinned"] < pinned

    def test_one_bound_on_construction(self):
        cache = StatementCache(max_entries=3)
        for column in "abcde":
            cache.parse(f"select {column} from t")
        assert len(cache) == 3 and cache.evictions == 2


class TestPlansFromTextAndCatalog:
    SHAPES = (
        "select bal from acct where id = 5",
        "select a.bal from acct a, acct b where a.id = b.id and a.bal > 10",
        "select count(*) from acct where bal < 150 and id > 20",
    )

    def test_data_churn_never_rebuilds_a_plan(self, tmp_path):
        """A plan is a function of the text and the catalog: churn past
        the table's size, a compaction and a checkpoint leave every
        cached plan in place and every EXPLAIN shape as it was."""
        db = ActiveDatabase(durability=str(tmp_path))
        db.execute("create table acct (id integer, bal float)")
        db.execute("create index acct_id on acct (id)")
        db.execute("insert into acct values " + ", ".join(
            f"({i}, 100.0)" for i in range(200)))

        def shapes():
            return [re.sub(r"  \(act=[^)]*\)", "", db.explain(text))
                    for text in self.SHAPES]

        for text in self.SHAPES:
            db.query(text)
        explained = shapes()
        built = db.stats()["planner"]["plans_built"]
        for _ in range(3):  # 600 overwritten tuples
            db.execute("update acct set bal = bal + 1")
        db.execute("delete from acct where id >= 50")
        assert db.database.table("acct").compactions == 1
        db.execute("insert into acct values " + ", ".join(
            f"({i}, 5.0)" for i in range(300, 700)))
        db.checkpoint()
        for text in self.SHAPES:
            db.query(text)
        assert db.stats()["planner"]["plans_built"] == built
        assert shapes() == explained
        db.durability.close()


class TestFrontDoors:
    def test_query_execute_and_explain_share_an_entry(self, db):
        db.query("select bal from acct where id = 3")
        db.execute("select bal from acct where id = 4")
        text = db.execute("explain select bal from acct where id = 5")
        assert "IndexLookup acct (id = 5 [acct_id])" in text
        assert "act=1" in text  # the plan the two executions ran
        assert db.stats()["planner"]["plan_cache_misses"] == 1

    def test_a_block_is_not_a_query(self, db):
        text = "select bal from acct where id = 1; select 2"
        db.execute(text)
        with pytest.raises(ParseError, match="trailing input"):
            db.query(text)
        with pytest.raises(ParseError):
            db.execute("explain delete from acct where id = 1")

    def test_errors_are_raised_each_time_and_nothing_is_kept(self, db):
        before = len(db.database.statements)
        for _ in range(2):
            with pytest.raises(ParseError):
                db.execute("select from where")
        assert len(db.database.statements) == before

    def test_schema_change_between_two_executions_of_a_shape(self, db):
        sql = "select bal from acct where bal = {}"
        assert "Scan acct" in db.explain(sql.format(100.0))
        db.execute("create index acct_bal on acct (bal)")
        assert "IndexLookup acct (bal = 99.0 [acct_bal])" in \
            db.explain(sql.format(99.0))
        assert len(db.rows(sql.format(100.0))) == 200


class TestThreads:
    def test_two_threads_hammer_one_shape(self, db):
        """The server parses outside the coordinator's lock: lookups,
        admissions and evictions from several threads, execution under
        a lock of the caller's — every thread sees its own binding."""
        statements = db.database.statements
        statements.max_entries = 4  # keep evicting while they run
        execution = threading.Lock()
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def client(seed):
            rng = random.Random(seed)
            try:
                for step in range(400):
                    key = rng.randrange(200)
                    if step % 7 == 0:  # a shape of this thread's own
                        text = (f"select id from acct where id = {key} "
                                f"and {seed} = {seed}"
                                + " and 1 = 1" * (step % 5))
                    else:
                        text = f"select id from acct where id = {key}"
                    select, bound = statements.parse_select(text)
                    with execution:
                        rows = evaluate_select(
                            db.database, select, bound=bound
                        ).rows
                    if rows != [(key,)]:
                        failures.append((text, rows))
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(repr(error))

        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]
        assert len(statements) - db.stats()["planner"]["statement_cache"][
            "pinned"] <= 4
