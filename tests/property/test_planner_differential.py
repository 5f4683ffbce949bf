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

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ActiveDatabase
from repro.relational.database import Database
from repro.relational.expressions import aggregate_calls
from repro.relational.plan import conjuncts, cost
from repro.relational.select import evaluate_select
from repro.sql import ast
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

    @given(t1_rows, t2_rows, index_choice, st.data())
    @settings(max_examples=40, deadline=None)
    def test_planned_equals_naive_grouped(self, rows1, rows2, indexes, data):
        """Grouped selects over the integer tables (the typed ones are
        :class:`TestAggregateEquivalence`'s)."""
        db = build_database(rows1, rows2, indexes)
        sql = data.draw(grouped_queries(
            ["x.a", "x.b", "x.c"], ["y.b", "y.d"], "x.a = y.b",
            ["x.a", "x.a + x.c"],
        ))
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

    @given(t1_rows, t2_rows, index_choice, raising_queries())
    @example(
        [(1, 1, 1)], [(1, 5), (2, 0), (3, 1)], set(),
        "select * from t1 x, t2 y where x.a + y.d > 0 and x.a / y.d > 0",
    )
    @settings(max_examples=100, deadline=None)
    def test_columnar_and_row_runs_of_a_plan_agree(
            self, rows1, rows2, indexes, sql):
        """One plan, run as batches (products and joins as slot vectors,
        filters as kernels) and row by row through the interpreter: the
        same rows and touched handles, or the same first error. The
        example is a product whose second conjunct first raises on its
        second combination."""
        db = build_database(rows1, rows2, indexes)
        select = parse_select(sql)
        columnar = outcome(db, select)
        db.enable_vectorized_eval = False
        assert outcome(db, select) == columnar, sql

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


# ---------------------------------------------------------------------------
# grouped selects: the column-vector reduction against GroupScope


def grouped_queries(one_columns, two_columns, join, keys):
    """Generated grouped selects over ``t1 x`` (and ``t2 y`` joined on
    ``join``): 0–2 group keys drawn from ``keys``, aggregates with and
    without ``distinct`` over ``*_columns``, compound items, HAVING over
    aggregates, an optional ORDER BY, and a WHERE that may empty the
    input."""

    @st.composite
    def draw_query(draw):
        two_tables = draw(st.booleans())
        columns = one_columns + (two_columns if two_tables else [])
        group = draw(st.lists(st.sampled_from(keys), max_size=2,
                              unique=True))

        def aggregate():
            name = draw(st.sampled_from(
                ["count", "sum", "avg", "min", "max"]
            ))
            distinct = "distinct " if draw(st.booleans()) else ""
            if name == "count" and draw(st.booleans()):
                return "count(*)"
            return f"{name}({distinct}{draw(st.sampled_from(columns))})"

        items = list(group)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            call = aggregate()
            if draw(st.integers(min_value=0, max_value=3)) == 0:
                call = f"{call} is null" if "(" in call else call
            items.append(call)
        if draw(st.booleans()):
            items.append("count(*) * 2 + 1")
        where = draw(st.sampled_from(["", "x.a > 0", "x.a > 100"]))
        conjuncts = ([join] if two_tables else []) + ([where] if where else [])
        sql = "select " + ", ".join(items) + " from t1 x"
        if two_tables:
            sql += ", t2 y"
        if conjuncts:
            sql += " where " + " and ".join(conjuncts)
        if group:
            sql += " group by " + ", ".join(group)
        if draw(st.booleans()):
            sql += " having " + draw(st.sampled_from(
                ["count(*) > 1", f"{aggregate()} is not null",
                 "count(*) + 0 < 3"]
            ))
        if draw(st.booleans()):
            sql += " order by " + draw(st.sampled_from(
                ["count(*) desc", items[0]]
            ))
        return sql

    return draw_query()


#: the float values the typed tables draw beside ordinary ones: ±0.0,
#: ±inf and NaN — one shared NaN object, which a lookup that tries
#: ``is`` before ``==`` would match to itself, and fresh ones
SPECIAL_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.builds(float, st.just("nan")),
)
#: the typed tables: integer, float and varchar columns, NULLs in all
TYPED_ROWS_1 = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-2, 2)),
    st.one_of(st.none(), st.sampled_from([0.1, 0.2, 0.7, 1e16, -0.0, 3.0]),
              SPECIAL_FLOATS),
    st.one_of(st.none(), st.sampled_from(["p", "q", "r"])),
), max_size=8)
TYPED_ROWS_2 = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-2, 2)),
    st.one_of(st.none(), st.sampled_from([0.1, 0.3, 2.5]), SPECIAL_FLOATS),
), max_size=6)
TYPED_KEYS = ["x.a", "x.s", "x.f", "x.a + 1"]
#: aggregate arguments whose evaluation is total but whose reduction
#: raises (sum/avg over varchar, min/max over mixed kinds)
RAISING_AGGREGATES = [
    "sum(x.s)", "avg(distinct x.s)",
    "min(case when x.a > 0 then x.a else x.s end)",
    "max(coalesce(x.s, x.a))",
]


def typed_tables(rows1, rows2):
    db = Database()
    db.create_table("t1", [("a", "integer"), ("f", "float"),
                           ("s", "varchar")])
    db.create_table("t2", [("a", "integer"), ("g", "float")])
    for row in rows1:
        db.insert_row("t1", row)
    for row in rows2:
        db.insert_row("t2", row)
    return db


def bits(outcome):
    """An outcome with every float replaced by its exact bit pattern, so
    ``0.1 + 0.2`` summed in another order, or ``-0.0``, cannot compare
    equal to what the reference computed."""
    def exact(value):
        return ("float", value.hex()) if isinstance(value, float) else value

    if outcome[0] != "ok":
        return outcome
    _, columns, rows, touched = outcome
    return ("ok", columns,
            [tuple(exact(value) for value in row) for row in rows], touched)


class TestAggregateEquivalence:
    """``docs/semantics.md`` §8: grouped results through key vectors and
    reductions equal the reference's ``GroupScope`` results — columns,
    rows, row order, touched handles, floats to the bit; errors equal
    whenever every aggregate argument is total."""

    @given(TYPED_ROWS_1, TYPED_ROWS_2, st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduction_equals_group_scope(self, rows1, rows2, data):
        db = typed_tables(rows1, rows2)
        sql = data.draw(grouped_queries(
            ["x.a", "x.f", "x.s"], ["y.a", "y.g"], "x.a = y.a", TYPED_KEYS,
        ))
        select, planned, naive = both_outcomes(db, sql)
        assert bits(planned) == bits(naive), sql

    @given(TYPED_ROWS_1, st.sampled_from(RAISING_AGGREGATES),
           st.sampled_from(["", " group by x.a", " group by x.s"]),
           st.sampled_from(["", " having count(*) > 1"]))
    @settings(max_examples=80, deadline=None)
    def test_errors_agree_when_every_argument_is_total(
            self, rows1, aggregate, group, having):
        db = typed_tables(rows1, [])
        sql = f"select count(*), {aggregate} from t1 x{group}{having}"
        select, planned, naive = both_outcomes(db, sql)
        layers = cost.kind_layers(db, select.tables)
        arguments = [
            call.args[0] for item in select.items
            for call in aggregate_calls(item.expression) if call.args
            and not isinstance(call.args[0], ast.Star)
        ]
        if all(cost.expression_kind(argument, layers, db) is not None
               for argument in arguments):
            assert planned == naive, sql
        elif planned[0] == naive[0] == "ok":
            assert planned == naive, sql

    def test_sum_over_varchar_raises_the_same_error(self):
        db = typed_tables([(1, 0.5, "p"), (2, 0.5, "q")], [])
        _, planned, naive = both_outcomes(
            db, "select x.f, sum(x.s) from t1 x group by x.f"
        )
        assert planned == naive
        assert planned[:2] == ("error", "TypeError_")

    def test_empty_input_counts_zero_and_sums_null(self):
        db = typed_tables([(1, 0.5, "p")], [(1, 2.5)])
        for sql in (
            "select count(*), sum(x.a), avg(x.f), min(x.s) from t1 x "
            "where x.a > 100",
            "select count(*), sum(y.g) from t1 x, t2 y "
            "where x.a = y.a and y.g > 100",
        ):
            _, planned, naive = both_outcomes(db, sql)
            assert planned == naive
            assert planned[2][0][:2] == (0, None)

    def test_non_grouped_column_of_another_binding_is_rejected(self):
        """``y.b`` only shares its name with the grouped ``x.b``: it must
        not be read off an arbitrary member row (both paths)."""
        db = Database()
        db.create_table("t1", [("b", "integer"), ("v", "integer")])
        db.create_table("t2", [("b", "integer"), ("k", "integer")])
        for row in [(1, 10), (2, 20)]:
            db.insert_row("t1", row)
        for row in [(1, 1), (1, 2), (2, 1)]:
            db.insert_row("t2", row)
        _, planned, naive = both_outcomes(
            db,
            "select y.b, count(*) from t1 x, t2 y where x.b = y.k "
            "group by x.b",
        )
        assert planned == naive
        assert planned[0] == "error"
        assert "must appear in GROUP BY" in planned[2]
        # an unqualified reference to the grouped binding still passes
        _, planned, naive = both_outcomes(
            db, "select v, count(*) from t1 x group by x.v"
        )
        assert planned == naive == ("ok", ["v", "col2"],
                                    [(10, 1), (20, 1)],
                                    [("t1", 1), ("t1", 2)])


class TestFloatJoinKeys:
    """Hash joins on FLOAT keys — NaN, ±0.0 and ±inf among them — match
    exactly the pairs the reference's comparisons match, on the
    columnar and on the row join."""

    @given(TYPED_ROWS_1, TYPED_ROWS_2, st.booleans(),
           st.sampled_from(["x.f = y.g", "x.f = y.g and x.a = y.a",
                            "y.g = x.f and x.a > 0"]))
    @example([(1, math.nan, "p"), (2, -0.0, "q")],
             [(1, math.nan), (2, 0.0)], True, "x.f = y.g")
    @example([(1, math.nan, "p")], [(1, math.nan)], False, "x.f = y.g")
    @settings(max_examples=100, deadline=None)
    def test_float_keys_join_like_the_reference(self, rows1, rows2,
                                                vectorized, where):
        db = typed_tables(rows1, rows2)
        db.enable_vectorized_eval = vectorized
        _, planned, naive = both_outcomes(
            db, f"select x.a, x.f, y.g from t1 x, t2 y where {where}")
        assert bits(planned) == bits(naive), where


class TestFloatMembership:
    """``in (…)`` lists and ``in (select …)`` over FLOAT values — NaN
    (one shared object and fresh ones), ±0.0 and ±inf — keep exactly
    the rows the reference's comparisons keep: NaN is a member of
    nothing, itself included, and ``-0.0`` is a member wherever ``0.0``
    is. Both gates: the batch kernels and the interpreter."""

    @given(TYPED_ROWS_1, TYPED_ROWS_2, st.booleans(),
           st.sampled_from([
               "x.f in (x.f)", "x.f not in (x.f)",
               "x.f in (0.0, 3.0)", "x.f not in (-0.0, 0.1)",
               "x.f in (x.f, 0.0) and x.a > 0",
               "x.f in (select y.g from t2 y)",
               "x.f not in (select y.g from t2 y)",
               "x.f in (select x.f from t2 y)",
               "x.a in (select y.a from t2 y where y.g in (x.f, 2.5))",
           ]))
    @example([(1, math.nan, "p"), (2, -0.0, "q")],
             [(1, math.nan), (2, 0.0)], True, "x.f in (select y.g from t2 y)")
    @example([(1, math.nan, "p")], [(1, math.nan)], False,
             "x.f in (select x.f from t2 y)")
    @example([(1, math.nan, "p"), (2, math.inf, "q")], [], True,
             "x.f not in (x.f)")
    @settings(max_examples=100, deadline=None)
    def test_membership_probes_agree_with_the_reference(
            self, rows1, rows2, vectorized, where):
        db = typed_tables(rows1, rows2)
        db.enable_vectorized_eval = vectorized
        _, planned, naive = both_outcomes(
            db, f"select x.a, x.f from t1 x where {where}")
        assert bits(planned) == bits(naive), where


class TestRuleConditionAggregates:
    """Paper Example 3.2's condition — ``sum`` over ``new`` and ``old
    updated emp.salary`` — reduced over transition-table batches fires
    the rule exactly when the reference's ``GroupScope`` says so."""

    RULE = (
        "create rule salary_watch when updated emp.salary "
        "if (select sum(salary) from new updated emp.salary) > "
        "(select sum(salary) from old updated emp.salary) "
        "then update emp set salary = 0.5 * salary where dept_no = 2"
    )

    @given(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1e16, 7.0]),
                    min_size=1, max_size=8),
           st.sampled_from([0.9, 1.1, 1.0]), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_example_3_2_fires_identically(self, salaries, factor, dept):
        def run():
            db = ActiveDatabase()
            db.execute("create table emp (emp_no integer, salary float, "
                       "dept_no integer)")
            db.execute("insert into emp values " + ", ".join(
                f"({i}, {salary!r}, {1 + i % 3})"
                for i, salary in enumerate(salaries)
            ))
            db.execute(self.RULE)
            result = db.execute(
                f"update emp set salary = salary * {factor} "
                f"where dept_no = {dept}"
            )
            rows = db.rows("select emp_no, salary from emp")
            return (result.rule_firings,
                    [(e, s.hex()) for e, s in rows]), db

        planned, db = run()
        with naive_select.installed():
            naive, _ = run()
        assert planned == naive
        counters = db.stats()["rules"].get("salary_watch")
        if counters and counters["considerations"] \
                and db.database.enable_vectorized_eval:
            assert counters["grouped_batches"] >= 2
            assert counters["group_scope_fallbacks"] == 0
