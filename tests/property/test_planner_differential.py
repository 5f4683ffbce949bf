"""Differential property test: the planned path ≡ the naive reference.

The plan-invariance guarantee (docs/semantics.md §8): a plan may change
the cost of evaluating a select, never its result. These tests generate
randomized schemas, indexes, data (NULLs included) and multi-table
queries, evaluate each query through the planner and through
``tests/reference/naive_select.py`` (the FROM product with the whole
WHERE per combination), and require byte-identical output — same
columns, same rows *in the same order*, and the same touched handles
(the §5.1 ``selected`` extension's view of which base tuples
participated).

Errors are the one place the two legitimately differ, in both
directions: a pushed conjunct runs on rows the reference's
short-circuit never reaches, and a residual runs only on joined
combinations. ``TestErrorIdentity`` pins what §8 does promise — the
results agree whenever neither path raises, and agree *including
errors* whenever every WHERE conjunct is total by
``cost.expression_kind`` — with the two reproduced disagreements as
named regression cases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.database import Database
from repro.relational.plan import conjuncts, cost
from repro.relational.select import evaluate_select
from repro.sql.parser import parse_select
from tests.reference import naive_select

# Two fixed tables with overlapping column kinds; data, indexes and the
# query shape vary per example. t1.b / t2.b overlap on purpose so
# unqualified references exercise the ambiguity rules.
T1_COLUMNS = ("a", "b", "c")
T2_COLUMNS = ("b", "d")

values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
t1_rows = st.lists(st.tuples(values, values, values), max_size=7)
t2_rows = st.lists(st.tuples(values, values), max_size=7)
index_choice = st.sets(
    st.sampled_from(["t1.a", "t1.b", "t2.b", "t2.d"]), max_size=3
)


@st.composite
def queries(draw):
    """A SELECT over t1 (aliased x) and optionally t2 (aliased y)."""
    two_tables = draw(st.booleans())
    conjunct_pool = [
        "x.a = 1",
        "x.b > 0",
        "x.c = x.a",
        "x.a is not null",
    ]
    if two_tables:
        conjunct_pool += [
            "x.a = y.b",            # equi-join candidate
            "x.b = y.d",            # second equi-join candidate
            "y.d = 2",
            "x.a + y.d > 0",        # residual (needs both scopes)
            "exists (select * from t2 where t2.d = x.a)",  # correlated
        ]
    picked = draw(st.lists(st.sampled_from(conjunct_pool), max_size=3))
    where = " where " + " and ".join(picked) if picked else ""
    tables = "t1 x, t2 y" if two_tables else "t1 x"
    items = draw(st.sampled_from(
        ["*", "x.a, x.b", "x.*"] + (["x.a, y.d", "y.*"] if two_tables else [])
    ))
    distinct = "distinct " if draw(st.booleans()) else ""
    order = draw(st.sampled_from(["", " order by x.a", " order by x.b desc"]))
    limit = draw(st.sampled_from(["", " limit 3"]))
    return f"select {distinct}{items} from {tables}{where}{order}{limit}"


@st.composite
def grouped_queries(draw):
    """Aggregation over an equi-join (exercises Aggregate over HashJoin)."""
    having = draw(st.sampled_from(["", " having count(*) > 1"]))
    return (
        "select x.a, count(*) as n, sum(y.d) as s from t1 x, t2 y "
        "where x.a = y.b group by x.a" + having + " order by x.a"
    )


def build_database(rows1, rows2, indexes):
    db = Database()
    db.create_table("t1", [(c, "integer") for c in T1_COLUMNS])
    db.create_table("t2", [(c, "integer") for c in T2_COLUMNS])
    for row in rows1:
        db.insert_row("t1", row)
    for row in rows2:
        db.insert_row("t2", row)
    for position, spec in enumerate(sorted(indexes)):
        table, column = spec.split(".")
        db.create_index(f"idx{position}", table, column)
    return db


def run_both(db, sql):
    select = parse_select(sql)
    planned = evaluate_select(db, select, collect_handles=True)
    with naive_select.installed():
        naive = evaluate_select(db, select, collect_handles=True)
    assert planned.columns == naive.columns
    assert planned.rows == naive.rows, sql
    assert planned.touched == naive.touched, sql
    return planned


class TestPlannerEquivalence:
    @given(t1_rows, t2_rows, index_choice, queries())
    @settings(max_examples=120, deadline=None)
    def test_planned_equals_naive(self, rows1, rows2, indexes, sql):
        db = build_database(rows1, rows2, indexes)
        run_both(db, sql)

    @given(t1_rows, t2_rows, index_choice, grouped_queries())
    @settings(max_examples=40, deadline=None)
    def test_planned_equals_naive_grouped(self, rows1, rows2, indexes, sql):
        db = build_database(rows1, rows2, indexes)
        run_both(db, sql)

    @given(t1_rows, t2_rows, queries())
    @settings(max_examples=40, deadline=None)
    def test_cached_plan_is_stable_across_data_changes(self, rows1, rows2,
                                                       sql):
        """The same cached plan object must stay correct as table contents
        change (plans read only the catalog)."""
        db = build_database(rows1, rows2, set())
        run_both(db, sql)
        db.insert_row("t1", (1, 1, 1))
        db.insert_row("t2", (1, 2))
        run_both(db, sql)


# ---------------------------------------------------------------------------
# error identity (docs/semantics.md §8)

# the cost differential's conjuncts that can raise at run time, mixed
# with total ones so both sides of the §8 condition are generated
RAISING_ONE = [
    "x.a = 1",
    "x.b > 0",
    "x.a is not null",
    "x.a / x.b > 0",                 # division by zero
    "x.a > 'oops'",                  # cross-kind comparison
]
RAISING_TWO = RAISING_ONE + [
    "x.a = y.b",
    "y.d = 2",
    "x.a + y.d > 0",
    "y.d / y.b = 1",
    "x.a / y.d > 0",
]


@st.composite
def raising_queries(draw):
    two_tables = draw(st.booleans())
    pool = RAISING_TWO if two_tables else RAISING_ONE
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    tables = "t1 x, t2 y" if two_tables else "t1 x"
    return f"select * from {tables} where " + " and ".join(picked)


def outcome(db, select):
    try:
        result = evaluate_select(db, select, collect_handles=True)
    except Exception as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.columns, result.rows, result.touched)


def both_outcomes(db, sql):
    select = parse_select(sql)
    planned = outcome(db, select)
    with naive_select.installed():
        naive = outcome(db, select)
    return select, planned, naive


def two_column_tables(rows1, rows2):
    db = Database()
    db.create_table("t1", [("a", "integer"), ("b", "integer")])
    db.create_table("t2", [("b", "integer"), ("d", "integer")])
    for row in rows1:
        db.insert_row("t1", row)
    for row in rows2:
        db.insert_row("t2", row)
    return db


class TestErrorIdentity:
    @given(t1_rows, t2_rows, index_choice, raising_queries())
    @settings(max_examples=150, deadline=None)
    def test_results_agree_unless_a_partial_conjunct_raises(
            self, rows1, rows2, indexes, sql):
        db = build_database(rows1, rows2, indexes)
        select, planned, naive = both_outcomes(db, sql)
        layers = cost.kind_layers(db, select.tables)
        if all(
            cost.expression_kind(conjunct, layers, db) in ("b", "?")
            for conjunct in conjuncts(select.where)
        ):
            assert planned == naive, sql
            assert planned[0] == "ok", sql
        elif planned[0] == naive[0] == "ok":
            assert planned == naive, sql

    @pytest.mark.parametrize("rows2", [[(1, 0), (2, 5)], []])
    def test_pushed_conjunct_raises_where_the_reference_short_circuits(
            self, rows2):
        """``x.a / x.b > 0`` is pushed to ``t1`` and runs on its one row;
        the reference evaluates ``y.d = 7`` first on every combination
        (there may be none) and never reaches the division."""
        db = two_column_tables([(1, 0)], rows2)
        _, planned, naive = both_outcomes(
            db,
            "select * from t1 x, t2 y where y.d = 7 and x.a / x.b > 0",
        )
        assert planned == ("error", "ExecutionError", "division by zero")
        assert naive == ("ok", ["a", "b", "b", "d"], [], [])

    def test_residual_skips_a_row_the_reference_raises_on(self):
        """``x.a / y.d > 0`` is a residual over the hash join's output,
        which never contains the ``y.d = 0`` row; the reference divides
        on every combination before it looks at ``x.a = y.b``."""
        db = two_column_tables([(1, 1)], [(1, 5), (2, 0)])
        _, planned, naive = both_outcomes(
            db,
            "select * from t1 x, t2 y where x.a / y.d > 0 and x.a = y.b",
        )
        assert planned[:3] == ("ok", ["a", "b", "b", "d"], [(1, 1, 1, 5)])
        assert naive == ("error", "ExecutionError", "division by zero")
