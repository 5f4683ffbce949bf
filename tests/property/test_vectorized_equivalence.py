"""Differential property test: vectorized evaluation ≡ interpretation.

The vectorized-evaluation invariance guarantee (docs/semantics.md §13):
for every expression and every row set, a batch kernel produces exactly
the per-row values — and exactly the first error, at the first failing
row in scan order — that the interpreter, row at a time, would. These
tests generate random expression ASTs (arithmetic, comparisons,
AND/OR/NOT, LIKE, IN-lists, BETWEEN, CASE, scalar functions, NULLs and
mistyped operands included) over two layouts — one binding over a
:class:`Batch`, and two bindings over the :class:`JoinedBatch` a join
or product emits, where ``b`` is ambiguous — and require identical
outcomes from both paths, in both expression and predicate position.

A second group runs whole SELECTs (joins and products), DML statements
and rule transactions with the layer enabled and disabled, covering the
plan-executor scan/filter/product/projection path, DML WHERE targeting
and rule-condition evaluation over transition tables end to end.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.relational.batch import Batch, JoinedBatch
from repro.relational.compiled import (
    BatchContext,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.relational.database import Database
from repro.relational.expressions import Evaluator, Scope
from repro.relational.select import BaseTableResolver, evaluate_select
from repro.sql import ast
from repro.sql.parser import parse_select

LAYOUT = (("x", ("a", "b", "s")),)
COLUMNS = ("a", "b", "s")
# Two bindings whose column sets overlap on "b" (so unqualified "b" is
# ambiguous), with a string column for LIKE.
JOINED_LAYOUT = (("x", ("a", "b", "s")), ("y", ("b", "d")))

literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.5, 2.0, -1.5]),
    st.sampled_from(["", "ab", "abc", "a%", "x_", "%b%"]),
).map(ast.Literal)

column_refs = st.sampled_from(
    [
        ast.ColumnRef("a", "x"),
        ast.ColumnRef("b", "x"),
        ast.ColumnRef("s", "x"),
        ast.ColumnRef("a"),
        ast.ColumnRef("b"),
        ast.ColumnRef("s"),
        ast.ColumnRef("nosuch"),  # unresolvable -> interpreter error
        ast.ColumnRef("nosuch", "x"),  # qualifier ok, column missing
    ]
)

joined_column_refs = st.sampled_from(
    [
        ast.ColumnRef("a", "x"),
        ast.ColumnRef("b", "x"),
        ast.ColumnRef("s", "x"),
        ast.ColumnRef("b", "y"),
        ast.ColumnRef("d", "y"),
        ast.ColumnRef("a"),
        ast.ColumnRef("b"),  # ambiguous
        ast.ColumnRef("s"),
        ast.ColumnRef("d"),
        ast.ColumnRef("nosuch"),  # unresolvable -> interpreter error
        ast.ColumnRef("nosuch", "x"),  # qualifier ok, column missing
    ]
)

pattern_exprs = st.one_of(
    st.sampled_from(["a%", "_b", "%", "abc", "a_c"]).map(ast.Literal),
    st.sampled_from([ast.ColumnRef("s", "x"), ast.Literal(None)]),
)


def _compound(children):
    binary_ops = st.sampled_from(
        ["+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=",
         "and", "or"]
    )
    return st.one_of(
        st.builds(ast.BinaryOp, binary_ops, children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["not", "-", "+"]), children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.Between, children, children, children, st.booleans()),
        st.builds(ast.Like, children, pattern_exprs, st.booleans()),
        st.builds(
            lambda operand, items, negated: ast.InList(
                operand, tuple(items), negated
            ),
            children,
            st.lists(children, min_size=1, max_size=3),
            st.booleans(),
        ),
        st.builds(
            lambda name, arg: ast.FunctionCall(name, (arg,)),
            st.sampled_from(["abs", "lower", "upper", "length"]),
            children,
        ),
        st.builds(
            lambda cond, then, default: ast.CaseExpression(
                ((cond, then),), default
            ),
            children,
            children,
            children,
        ),
    )


expressions = st.recursive(
    st.one_of(literals, column_refs), _compound, max_leaves=12
)
joined_expressions = st.recursive(
    st.one_of(literals, joined_column_refs), _compound, max_leaves=12
)

cell = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([1.5, -0.5]),
    st.sampled_from(["", "ab", "abc", "zzz"]),
)
row_sets = st.lists(st.tuples(cell, cell, cell), max_size=8)
#: the two sides of a product: its output is every left row with every
#: right row, in nested-loop order
product_sides = st.tuples(
    st.lists(st.tuples(cell, cell, cell), max_size=4),
    st.lists(st.tuples(cell, cell), max_size=3),
)


def fresh_evaluator():
    database = Database()
    return Evaluator(database, BaseTableResolver(database))


def row_outcomes(expression, rows, evaluator, predicate,
                 layout=LAYOUT):
    """Per-row evaluation truncated at the first error, exactly the
    shape a batch kernel must reproduce: (values-prefix, error-or-None).
    ``rows`` holds one row per combination (one-binding ``layout``) or
    one tuple of rows per combination (several bindings)."""
    values = []
    for row in rows:
        scope = Scope()
        combination = (row,) if len(layout) == 1 else row
        for (name, columns), part in zip(layout, combination):
            scope.bind(name, columns, part)
        try:
            if predicate:
                values.append(
                    evaluator.evaluate_predicate(expression, scope)
                )
            else:
                values.append(evaluator.evaluate(expression, scope))
        except ReproError as error:
            return values, error
    return values, None


def batch_outcomes(expression, rows, evaluator, predicate):
    batch = Batch.from_rows(list(rows), len(COLUMNS))
    row_of = batch.row

    def scope_for(slot):
        scope = Scope()
        scope.bind("x", COLUMNS, row_of(slot))
        return scope

    ctx = BatchContext(batch.cols, scope_for, evaluator)
    if predicate:
        program = compile_batch_predicate(expression, LAYOUT)
    else:
        program = compile_batch_expression(expression, LAYOUT)
    return program.fn(ctx, batch.sel)


def product_outcomes(expression, sides, evaluator, predicate):
    """The kernels over the :class:`JoinedBatch` a product of ``sides``
    emits: the left slots each repeated, the right selection tiled."""
    left_rows, right_rows = sides
    parts = [
        Batch.from_rows(rows, len(columns))
        for rows, (_, columns) in zip(sides, JOINED_LAYOUT)
    ]
    slots = (
        [i for i in range(len(left_rows)) for _ in right_rows],
        list(range(len(right_rows))) * len(left_rows),
    )
    batch = JoinedBatch(parts, slots, list(range(len(slots[0]))))
    row_tuples = batch.row_tuples

    def scope_for(position):
        scope = Scope()
        for (name, columns), row in zip(JOINED_LAYOUT,
                                        row_tuples(position)):
            scope.bind(name, columns, row)
        return scope

    ctx = BatchContext(batch.cols, scope_for, evaluator, slots=batch.slots)
    if predicate:
        program = compile_batch_predicate(expression, JOINED_LAYOUT)
    else:
        program = compile_batch_expression(expression, JOINED_LAYOUT)
    return program.fn(ctx, batch.sel)


def product_rows(sides):
    left_rows, right_rows = sides
    return [(left, right) for left in left_rows for right in right_rows]


def describe(error):
    if error is None:
        return None
    return (type(error).__name__, str(error))


class TestKernelEquivalence:
    @given(expressions, row_sets)
    @settings(max_examples=300, deadline=None)
    def test_expression_batch_parity(self, expression, rows):
        evaluator = fresh_evaluator()
        expected, row_err = row_outcomes(
            expression, rows, evaluator, predicate=False
        )
        values, err = batch_outcomes(
            expression, rows, evaluator, predicate=False
        )
        assert values == expected, expression
        assert describe(err) == describe(row_err), expression

    @given(expressions, row_sets)
    @settings(max_examples=300, deadline=None)
    def test_predicate_batch_parity(self, expression, rows):
        evaluator = fresh_evaluator()
        expected, row_err = row_outcomes(
            expression, rows, evaluator, predicate=True
        )
        values, err = batch_outcomes(
            expression, rows, evaluator, predicate=True
        )
        assert values == expected, expression
        assert describe(err) == describe(row_err), expression
        for value in values:
            assert value in (True, False, None)


class TestJoinedKernelEquivalence:
    @given(joined_expressions, product_sides)
    @settings(max_examples=300, deadline=None)
    def test_expression_batch_parity(self, expression, sides):
        evaluator = fresh_evaluator()
        expected, row_err = row_outcomes(
            expression, product_rows(sides), evaluator, predicate=False,
            layout=JOINED_LAYOUT,
        )
        values, err = product_outcomes(
            expression, sides, evaluator, predicate=False
        )
        assert values == expected, expression
        assert describe(err) == describe(row_err), expression

    @given(joined_expressions, product_sides)
    @settings(max_examples=300, deadline=None)
    def test_predicate_batch_parity(self, expression, sides):
        evaluator = fresh_evaluator()
        expected, row_err = row_outcomes(
            expression, product_rows(sides), evaluator, predicate=True,
            layout=JOINED_LAYOUT,
        )
        values, err = product_outcomes(
            expression, sides, evaluator, predicate=True
        )
        assert values == expected, expression
        assert describe(err) == describe(row_err), expression
        for value in values:
            assert value in (True, False, None)


# ---------------------------------------------------------------------------
# end-to-end: whole statements with the layer toggled


int_values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
str_values = st.one_of(st.none(), st.sampled_from(["ab", "abc", "zz"]))
t1_rows = st.lists(
    st.tuples(int_values, int_values, str_values), max_size=7
)
t2_rows = st.lists(st.tuples(int_values, int_values), max_size=7)


@st.composite
def select_queries(draw):
    conjuncts = draw(
        st.lists(
            st.sampled_from(
                [
                    "x.a = 1",
                    "x.b > 0",
                    "x.a + x.b < 3",
                    "x.s like 'a%'",
                    "x.a in (1, 2, y.d)",
                    "x.a = y.b",
                    "x.b between 0 and y.d",
                    "exists (select * from t2 where t2.d = x.a)",
                ]
            ),
            max_size=3,
        )
    )
    where = " where " + " and ".join(conjuncts) if conjuncts else ""
    items = draw(
        st.sampled_from(["*", "x.a, x.b + y.d", "upper(x.s), y.*"])
    )
    order = draw(st.sampled_from(["", " order by x.a, x.b desc"]))
    return f"select {items} from t1 x, t2 y{where}{order}"


@st.composite
def single_table_queries(draw):
    """Single-binding selects — the shape the batch scan path fully
    vectorizes (filter chain + projection + order keys)."""
    conjuncts = draw(
        st.lists(
            st.sampled_from(
                [
                    "x.a = 1",
                    "x.b > 0",
                    "x.a + x.b < 3",
                    "x.s like 'a%'",
                    "x.a in (1, 2, 3)",
                    "x.b between -1 and 2",
                    "x.s is not null",
                ]
            ),
            max_size=3,
        )
    )
    where = " where " + " and ".join(conjuncts) if conjuncts else ""
    items = draw(
        st.sampled_from(
            ["*", "x.a, x.b + 1", "upper(x.s), x.a * x.b",
             "x.b, count(*)", "max(x.a), min(x.b)"]
        )
    )
    grouped = "count" in items or "max" in items
    group = " group by x.b" if items == "x.b, count(*)" else ""
    order = (
        "" if grouped
        else draw(st.sampled_from(["", " order by x.a desc, x.s"]))
    )
    return f"select {items} from t1 x{where}{group}{order}"


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
    vectorized = run()
    db.enable_vectorized_eval = False
    row_mode = run()
    db.enable_vectorized_eval = True
    assert vectorized == row_mode, sql


class TestStatementEquivalence:
    @given(t1_rows, t2_rows, select_queries())
    @settings(max_examples=60, deadline=None)
    def test_join_select_vectorized_equals_row(self, rows1, rows2, sql):
        db = build_database(rows1, rows2)
        run_both_modes(db, sql)

    @given(t1_rows, single_table_queries())
    @settings(max_examples=60, deadline=None)
    def test_single_table_select_vectorized_equals_row(self, rows1, sql):
        db = build_database(rows1, [])
        run_both_modes(db, sql)

    @given(t1_rows, st.integers(min_value=-2, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_rule_transaction_vectorized_equals_row(self, rows1, threshold):
        """The same rule workload must fire identically and reach the
        same final snapshot with the layer on and off (conditions over
        transition tables, actions, and DML WHERE all run through their
        vectorized call sites)."""
        from repro import ActiveDatabase

        outcomes = []
        for vectorized in (True, False):
            db = ActiveDatabase(record_seen=False)
            db.database.enable_vectorized_eval = vectorized
            db.execute(
                "create table t1 (a integer, b integer, s varchar)"
            )
            db.execute("create table log (a integer)")
            db.execute(
                "create rule audit when inserted into t1 "
                f"if exists (select * from inserted t1 where a > {threshold}"
                " and s like 'a%') "
                "then insert into log (select a from inserted t1 "
                f"where a > {threshold})"
            )
            db.execute(
                "create rule cap when inserted into log "
                "if exists (select * from log where a > 2) "
                "then update log set a = 2 where a > 2"
            )
            fired = 0
            for row in rows1:
                values = ", ".join(
                    "null" if v is None
                    else f"'{v}'" if isinstance(v, str)
                    else str(v)
                    for v in row
                )
                result = db.execute(f"insert into t1 values ({values})")
                fired += result.rule_firings
            outcomes.append((fired, db.database.snapshot()))
        assert outcomes[0] == outcomes[1]

    @given(t1_rows, st.sampled_from(
        [
            "delete from t1 where a > 0 and s like 'a%'",
            "delete from t1 where b in (1, 2)",
            "update t1 set b = b + 1 where a between -1 and 1",
            "update t1 set s = upper(s) where s is not null",
        ]
    ))
    @settings(max_examples=40, deadline=None)
    def test_dml_where_vectorized_equals_row(self, rows1, sql):
        from repro import ActiveDatabase

        snapshots = []
        for vectorized in (True, False):
            db = ActiveDatabase(record_seen=False)
            db.database.enable_vectorized_eval = vectorized
            db.execute(
                "create table t1 (a integer, b integer, s varchar)"
            )
            for row in rows1:
                values = ", ".join(
                    "null" if v is None
                    else f"'{v}'" if isinstance(v, str)
                    else str(v)
                    for v in row
                )
                db.execute(f"insert into t1 values ({values})")
            db.execute(sql)
            snapshots.append(db.database.snapshot())
        assert snapshots[0] == snapshots[1]
