"""Differential property test: compiled evaluation ≡ interpretation, for
statements over products of more than two bindings.

The compiled layer is the batch-kernel compiler (``enable_vectorized_eval``;
off is the pure interpreter). ``test_vectorized_equivalence.py`` checks
its kernels expression by expression and runs two-binding statements
end to end. These tests run the shapes that suite leaves out, with the
layer enabled and disabled, and require identical outcomes — value or
error — from both:

* SELECTs over three bindings (a table twice), where a product's
  :class:`JoinedBatch` is itself the left input of a further product or
  hash join, so slot vectors are gathered through a joined batch and
  filters run kernels over three-part layouts;
* rule transactions whose conditions and actions take products of a
  transition table with a base table, or of two transition tables, on
  insert, update and delete.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.relational.database import Database
from repro.relational.select import evaluate_select
from repro.sql.parser import parse_select

int_values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
str_values = st.one_of(st.none(), st.sampled_from(["ab", "abc", "zz"]))
t1_rows = st.lists(
    st.tuples(int_values, int_values, str_values), max_size=5
)
t2_rows = st.lists(st.tuples(int_values, int_values), max_size=4)


@st.composite
def three_binding_queries(draw):
    conjuncts = draw(
        st.lists(
            st.sampled_from(
                [
                    "x.a = z.a",
                    "y.b = z.b",
                    "x.b > 0",
                    "x.a + y.d < z.b",
                    "z.s like 'a%'",
                    "y.d > x.b or z.s like 'a%'",
                    "x.a in (1, z.b, y.d)",
                    "z.b between x.a and y.d",
                    "x.s = z.s or x.a is null",
                    "x.a / y.d > 0",
                    "exists (select * from t2 where t2.d = z.a)",
                ]
            ),
            max_size=3,
        )
    )
    where = " where " + " and ".join(conjuncts) if conjuncts else ""
    items = draw(
        st.sampled_from(
            ["*", "x.a, y.d, z.s", "z.*, x.b * y.b", "upper(z.s), y.*"]
        )
    )
    order = draw(st.sampled_from(["", " order by z.a, x.b desc, y.d"]))
    return f"select {items} from t1 x, t2 y, t1 z{where}{order}"


def build_database(rows1, rows2):
    db = Database()
    db.create_table(
        "t1", [("a", "integer"), ("b", "integer"), ("s", "varchar")]
    )
    db.create_table("t2", [("b", "integer"), ("d", "integer")])
    for row in rows1:
        db.insert_row("t1", row)
    for row in rows2:
        db.insert_row("t2", row)
    return db


def run_both_modes(db, sql):
    select = parse_select(sql)

    def run():
        try:
            result = evaluate_select(db, select, collect_handles=True)
            return ("value", result.columns, result.rows, result.touched)
        except ReproError as error:
            return ("error", type(error).__name__, str(error))

    db.enable_vectorized_eval = True
    compiled = run()
    db.enable_vectorized_eval = False
    interpreted = run()
    db.enable_vectorized_eval = True
    assert compiled == interpreted, sql


def sql_values(row):
    return ", ".join(
        "null" if v is None
        else f"'{v}'" if isinstance(v, str)
        else str(v)
        for v in row
    )


#: one statement of a rule workload: insert a row, or update or delete
#: rows of t1 (each firing a different rule)
workload_steps = st.one_of(
    t1_rows.map(
        lambda rows: [f"insert into t1 values ({sql_values(row)})"
                      for row in rows]
    ),
    st.sampled_from(
        [
            ["update t1 set b = b + 1 where a > 0"],
            ["update t1 set b = a where s like 'a%'"],
            ["delete from t1 where s like 'a%'"],
            ["delete from t1 where b < 0 or a is null"],
        ]
    ),
)


class TestStatementEquivalence:
    @given(t1_rows, t2_rows, three_binding_queries())
    @settings(max_examples=60, deadline=None)
    def test_select_compiled_equals_interpreted(self, rows1, rows2, sql):
        db = build_database(rows1, rows2)
        run_both_modes(db, sql)

    @given(
        t2_rows,
        st.lists(workload_steps, min_size=1, max_size=4),
        st.integers(min_value=-2, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_rule_transaction_compiled_equals_interpreted(
        self, rows2, steps, threshold
    ):
        """The same rule workload must fire identically, fail
        identically and reach the same final snapshot with the layer on
        and off (rule conditions and actions over products of transition
        and base tables run through the batch path when it is on)."""
        from repro import ActiveDatabase

        outcomes = []
        for compiled in (True, False):
            db = ActiveDatabase(record_seen=False)
            db.database.enable_vectorized_eval = compiled
            db.execute("create table t1 (a integer, b integer, s varchar)")
            db.execute("create table t2 (b integer, d integer)")
            db.execute("create table log (a integer, d integer)")
            db.execute(
                "create rule pair when inserted into t1 "
                "if exists (select * from inserted t1 x, t2 y "
                "where x.a = y.d or x.b > y.b) "
                "then insert into log (select x.a, y.d "
                "from inserted t1 x, t2 y "
                f"where x.a + y.d > {threshold} or x.s like 'a%')"
            )
            db.execute(
                "create rule trim when updated t1.b "
                "if exists (select * from new updated t1.b n, "
                "old updated t1.b o where n.a = o.a and n.b <> o.b) "
                "then delete from log "
                "where a in (select a from new updated t1.b)"
            )
            db.execute(
                "create rule archive when deleted from t1 "
                "then update t2 set d = d + 1 "
                "where b in (select b from deleted t1) or d is null"
            )
            for row in rows2:
                db.execute(f"insert into t2 values ({sql_values(row)})")
            trace = []
            for step in steps:
                for sql in step:
                    try:
                        trace.append(db.execute(sql).rule_firings)
                    except ReproError as error:
                        trace.append((type(error).__name__, str(error)))
            outcomes.append((trace, db.database.snapshot()))
        assert outcomes[0] == outcomes[1]
