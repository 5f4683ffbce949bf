"""Differential property test: ``execute(text)`` ≡ ``execute(parse(text))``.

The statement cache (repro.relational.plan.cache) runs a repeated
statement *shape* from one template whose literals are parameters,
planned and compiled once with the binding that met the miss. The cold
path — the caller parses, every literal in place, every statement its
own cache entry — is what the system did before the cache existed, and
is the oracle here: the same seeded statement stream goes through
``execute(text)`` / ``query(text)`` on one database and through
``execute(parse_statement(text))`` / ``query(parse_select(text))`` on
its twin, and every statement must yield the same rows, the same
:class:`~repro.core.trace.TransactionResult` (effects, firings and
handles included), the same error type *and message*; at the end the
two hold the same tuples under the same handles and their write-ahead
logs are the same bytes.

The streams are drawn from templates and literal pools chosen to
collide: literals that differ in kind only, divisors (whose value a
compile-time proof reads), IN lists of several lengths, LIKE patterns,
literals in every clause, a conjunct a literal's kind makes partial
(docs/semantics.md §8), one statement under several spellings, DDL and
statistics rebuilds between two executions of one shape, bindings that
match nothing.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import ActiveDatabase
from repro.concurrency import TransactionCoordinator
from repro.durability.wal import WAL_FILENAME
from repro.sql.parser import parse_select, parse_statement
from tests.concurrency.driver import InterleaveDriver

NUMBERS = ["0", "1", "2", "3", "7", "1.5", "2.0", "99999", "-1", "- 2"]
STRINGS = ["'a'", "'b'", "'ab'", "'a%'", "'%b'", "'_b'", "'100%'",
           "'it''s'", "''"]
OTHERS = ["null", "true", "false"]
LITERALS = NUMBERS + STRINGS + OTHERS

number = st.sampled_from(NUMBERS)
string = st.sampled_from(STRINGS)
literal = st.sampled_from(LITERALS)


def in_list(draw):
    return ", ".join(draw(st.lists(literal, min_size=1, max_size=4)))


@st.composite
def selects(draw):
    shape = draw(st.integers(min_value=0, max_value=13))
    if shape == 0:
        return f"select * from t where x = {draw(literal)}"
    if shape == 1:
        return f"select x, s from t where {draw(literal)} = x"
    if shape == 2:
        op = draw(st.sampled_from(["/", "%"]))
        return (f"select x {op} {draw(number)}, y {op} ({draw(number)}) "
                f"from t where x > {draw(number)}")
    if shape == 3:
        return f"select x from t where x in ({in_list(draw)})"
    if shape == 4:
        negated = draw(st.sampled_from(["", "not "]))
        return f"select s from t where s {negated}like {draw(literal)}"
    if shape == 5:
        return (f"select * from t where x between {draw(literal)} "
                f"and {draw(literal)}")
    if shape == 6:
        n = draw(number)
        return (f"select x + {n}, count(*), {draw(literal)} from t "
                f"group by x + {draw(st.sampled_from([n, draw(number)]))} "
                f"order by 1 limit {draw(st.integers(0, 3))}")
    if shape == 7:
        # the literal's kind makes the second conjunct partial
        return (f"select * from t where y > {draw(number)} "
                f"and x = {draw(literal)}")
    if shape == 8:
        return (f"select t.x, u.v from t, u where t.x = u.k "
                f"and u.v > {draw(number)} and t.s <> {draw(string)}")
    if shape == 9:
        return (f"select x from t where x = {draw(number)} "
                f"union select k from u where v = {draw(number)}")
    if shape == 10:
        return (f"select * from t where x > (select min(k) from u "
                f"where v <> {draw(number)}) or s = {draw(string)}")
    if shape == 11:
        return (f"select case when x > {draw(number)} then {draw(literal)} "
                f"else {draw(literal)} end from t order by x")
    if shape == 12:
        return f"select {draw(literal)}, {draw(literal)}"
    return (f"select x from t where x = {draw(number)} "
            f"and y = {draw(number)} and s = {draw(string)}")


@st.composite
def writes(draw):
    shape = draw(st.integers(min_value=0, max_value=8))
    if shape == 0:
        rows = draw(st.lists(st.tuples(number, number, literal, st.sampled_from(
            ["true", "false", "null"])), min_size=1, max_size=3))
        return "insert into t values " + ", ".join(
            "(" + ", ".join(row) + ")" for row in rows
        )
    if shape == 1:
        return (f"insert into t (x, s) values ({draw(number)} + 1, "
                f"{draw(literal)})")
    if shape == 2:
        return (f"update t set y = y + {draw(number)} "
                f"where x = {draw(literal)}")
    if shape == 3:
        return (f"update t set s = {draw(literal)}, y = {draw(number)} "
                f"where x in ({in_list(draw)})")
    if shape == 4:
        return f"delete from t where x = {draw(number)}"
    if shape == 5:
        return f"delete from t where s like {draw(string)}"
    if shape == 6:
        return (f"insert into u values ({draw(number)}, {draw(number)}); "
                f"update u set v = v + {draw(number)} where k = {draw(number)}")
    if shape == 7:
        return (f"insert into u (select x, {draw(number)} from t "
                f"where x > {draw(number)})")
    return (f"update t set y = y / {draw(number)} where x > {draw(number)}; "
            f"select x, y from t where y > {draw(number)}")


@st.composite
def spelled(draw, statement):
    """One of several spellings of the same statement."""
    text = draw(statement)
    style = draw(st.integers(min_value=0, max_value=3))
    if style == 1:
        text = text.replace("select", "SELECT").replace(" from ", "  FROM ")
    elif style == 2:
        text = text.replace(" where ", " -- a comment\n WHERE ")
    elif style == 3:
        text = "/* hi */ " + text.replace(", ", " ,\t")
    return text


#: what happens between two statements of a stream
EVENTS = st.one_of(
    spelled(selects()).map(lambda sql: ("query", sql)),
    spelled(selects()).map(lambda sql: ("execute", sql)),
    spelled(writes()).map(lambda sql: ("execute", sql)),
    spelled(writes()).map(lambda sql: ("transaction", sql)),
    st.sampled_from([
        ("ddl", "create index t_x on t (x)"),
        ("ddl", "drop index t_x"),
        ("ddl", "create index t_s on t (s)"),
        ("ddl", "create table extra (z integer)"),
        ("rebuild", "t"),
        ("rebuild", "u"),
    ]),
)

SETUP = [
    "create table t (x integer, y float, s varchar, b boolean)",
    "create table u (k integer, v integer)",
    "create table log (x integer, note varchar)",
    "insert into t values (1, 1.0, 'a', true), (2, 2.5, 'ab', false), "
    "(3, 0.0, null, null), (null, 4.0, 'it''s', true), (7, 7.0, '100%', null)",
    "insert into u values (1, 10), (2, 20), (7, 0)",
    "create rule audit when updated t.y "
    "then insert into log select x, 'upd' from new updated t.y",
    "create rule guard when inserted into t "
    "if exists (select * from inserted t where x < 0) then rollback",
]


def outcome(call):
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return ("error", type(error).__name__, str(error))
    if hasattr(result, "rows"):
        return ("rows", result.columns, result.rows)
    return ("result", result)


class Twin:
    """One database driven by text, one by ASTs parsed by the caller."""

    def __init__(self, workdir, setup=SETUP):
        self.directories = [os.path.join(workdir, name)
                            for name in ("text", "ast")]
        self.text, self.parsed = (
            ActiveDatabase(durability=directory)
            for directory in self.directories
        )
        for statement in setup:
            self.text.execute(statement)
            self.parsed.execute(statement)

    def apply(self, kind, sql):
        if kind == "query":
            return (outcome(lambda: self.text.query(sql)),
                    outcome(lambda: self.parsed.query(parse_select(sql))))
        if kind == "execute":
            return (
                outcome(lambda: self.text.execute(sql)),
                outcome(lambda: self.parsed.execute(parse_statement(sql))),
            )
        if kind == "transaction":
            def run(db, statement):
                db.begin()
                try:
                    effects = db.execute(statement)
                except Exception:
                    db.rollback()
                    raise
                return effects, db.commit()
            return (outcome(lambda: run(self.text, sql)),
                    outcome(lambda: run(self.parsed, parse_statement(sql))))
        if kind == "ddl":
            return (outcome(lambda: self.text.execute(sql)),
                    outcome(lambda: self.parsed.execute(sql)))
        assert kind == "rebuild"
        for db in (self.text, self.parsed):
            db.database.table(sql).rebuild_stats()
        return None, None

    def assert_same_state(self):
        left, right = self.text.database, self.parsed.database
        assert left.snapshot() == right.snapshot()
        assert left.handles.issued_count == right.handles.issued_count
        logs = []
        for db, directory in zip((self.text, self.parsed), self.directories):
            db.durability.close()
            with open(os.path.join(directory, WAL_FILENAME), "rb") as handle:
                logs.append(handle.read())
        assert logs[0] == logs[1]


class TestStatementStreams:
    @given(st.lists(EVENTS, min_size=1, max_size=25))
    @settings(max_examples=120, deadline=None)
    def test_text_equals_caller_parsed(self, events):
        with tempfile.TemporaryDirectory() as workdir:
            twin = Twin(workdir)
            for kind, sql in events:
                through_text, through_ast = twin.apply(kind, sql)
                assert through_text == through_ast, (kind, sql)
            twin.assert_same_state()

    @given(st.lists(spelled(selects()), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_a_tiny_cache_changes_nothing(self, queries):
        """Eviction under load: with room for two statements every
        shape is re-admitted over and over — same answers."""
        with tempfile.TemporaryDirectory() as workdir:
            twin = Twin(workdir)
            twin.text.database.statements.max_entries = 2
            for sql in queries + queries:
                through_text, through_ast = twin.apply("query", sql)
                assert through_text == through_ast, sql

    @pytest.mark.parametrize("first, second", [
        ("select * from t where x = 1", "select * from t where x = 1.5"),
        ("select * from t where x = 1", "select * from t where x = 'a'"),
        ("select * from t where x = 1", "select * from t where x = null"),
        ("select * from t where x = 1", "select * from t where x = -1"),
        ("select * from t where x = 1", "select * from t where 1 = x"),
        ("select x / 2 from t", "select x / 2.0 from t"),
        ("select x / 2 from t", "select x / 0 from t"),
        ("select x % 2 from t", "select x % 0 from t"),
        ("select y / (2) from t", "select y / (0) from t"),
        ("select x from t where x in (1, 2)",
         "select x from t where x in (1, 2, 3)"),
        ("select s from t where s like 'a%'", "select s from t where s like '_b'"),
        ("select s from t where s like '100%'",
         "select s from t where s like 'it''s'"),
        ("select x from t where x between 1 and 3",
         "select x from t where x between 3 and 1"),
        ("select x + 1, count(*) from t group by x + 1",
         "select x + 1, count(*) from t group by x + 2"),
        ("select 1, 'a' from t order by 1 limit 2",
         "select 2, 'b' from t order by 2 limit 3"),
        ("select * from t where y > 0 and x = 1",
         "select * from t where y > 0 and x = 'a'"),
        ("select x from t where x = 1", "SELECT x\nFROM t -- c\nWHERE x=2"),
        ("select * from t where x = 1", "select * from t where x = 99999"),
        ("update t set y = y + 1 where x = 1",
         "update t set y = y + 1.5 where x = 99999"),
        ("insert into t values (5, 5.0, 'e', true)",
         "insert into t values (6, 6.0, 'f', false), (8, 8.0, null, null)"),
        ("insert into t values (5, 5.0, 'e', true)",
         "insert into t values (5, 5.0, 'e')"),
        ("insert into t values (-5, 5.0, 'e', true)",
         "insert into t values (5, 'e', 5.0, true)"),
    ])
    def test_collisions(self, first, second):
        """Each pair shares (or nearly shares) a key; whatever the first
        binding planned and compiled must not leak into the second —
        in either order, with index and zone pruning in play."""
        for order in ((first, second, first), (second, first, second)):
            with tempfile.TemporaryDirectory() as workdir:
                twin = Twin(workdir)
                for sql in order:
                    through_text, through_ast = twin.apply("execute", sql)
                    assert through_text == through_ast, sql
                twin.apply("ddl", "create index t_x on t (x)")
                for sql in order:
                    through_text, through_ast = twin.apply("execute", sql)
                    assert through_text == through_ast, sql
                twin.assert_same_state()


class TestReentrancy:
    def test_an_external_procedure_runs_the_firing_shape(self):
        """A rule's Python action executes text of the very shape whose
        execution fired it: two bindings of one template are live at
        once, each statement must see its own."""
        def run(parse):
            db = ActiveDatabase()
            db.execute("create table acct (id integer, bal float)")
            db.execute("insert into acct values (1, 100.0), (2, 200.0), "
                       "(3, 300.0)")
            seen = []

            def cascade(context):
                rows = context.query(parse(
                    "select id, bal from acct where id = 1", parse_select
                )).rows
                seen.append(rows)
                if rows[0][1] < 1000:
                    context.execute(parse(
                        "update acct set bal = bal + 1000 where id = 1",
                        parse_statement,
                    ))
                    seen.append(context.query(parse(
                        "select id, bal from acct where id = 3", parse_select
                    )).rows)

            db.define_external_rule("echo", "updated acct.bal", cascade)
            result = db.execute(parse(
                "update acct set bal = bal + 5 where id = 2", parse_statement
            ))
            return (result, seen,
                    db.rows("select id, bal from acct order by id"))

        through_text = run(lambda text, parser: text)
        through_ast = run(lambda text, parser: parser(text))
        assert through_text == through_ast
        assert through_text[2] == [(1, 1100.0), (2, 205.0), (3, 300.0)]

    def test_a_retried_statement_keeps_its_binding(self):
        """An auto-commit statement loses a conflict to a statement of
        the same shape and other literals, and is retried wholesale by
        the coordinator: the retry runs the original binding."""
        db = ActiveDatabase()
        coordinator = TransactionCoordinator(db)
        db.execute("create table acct (id integer, bal float)")
        db.execute("insert into acct values (1, 100.0), (2, 200.0)")
        driver = InterleaveDriver(coordinator)

        def update(session):
            return coordinator.execute(
                session, "update acct set bal = bal + 10 where id = 1"
            ).committed

        driver.spawn("t1", update)
        point = driver.advance("t1", expect_point="statement_boundary")
        while point != "wal_append":
            point = driver.advance("t1")
        bystander = coordinator.open_session("bystander")
        assert coordinator.execute(
            bystander, "update acct set bal = bal + 1000 where id = 2"
        ).committed
        assert driver.finish("t1") is True
        driver.close()
        assert coordinator.stats.retries == 1
        assert db.rows("select id, bal from acct order by id") == [
            (1, 110.0), (2, 1200.0),
        ]
