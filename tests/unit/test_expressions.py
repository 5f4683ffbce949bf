"""Unit tests for expression evaluation and three-valued logic."""

import pytest

from repro.errors import ExecutionError, TypeError_
from repro.relational.database import Database
from repro.relational.expressions import (
    Evaluator,
    Scope,
    compare,
    contains_aggregate,
    logic_and,
    logic_not,
    logic_or,
)
from repro.relational.select import BaseTableResolver
from repro.sql.parser import parse_expression


@pytest.fixture
def database():
    db = Database()
    db.create_table("t", [("x", "integer"), ("y", "float"), ("s", "varchar")])
    db.insert_row("t", [1, 10.0, "a"])
    db.insert_row("t", [2, 20.0, "b"])
    db.insert_row("t", [3, None, None])
    return db


def evaluate(database, source, **bindings):
    evaluator = Evaluator(database, BaseTableResolver(database))
    scope = Scope()
    for name, (columns, row) in bindings.items():
        scope.bind(name, columns, row)
    return evaluator.evaluate(parse_expression(source), scope)


class TestKleeneLogic:
    def test_and_truth_table(self):
        assert logic_and(True, True) is True
        assert logic_and(True, False) is False
        assert logic_and(False, None) is False
        assert logic_and(None, True) is None
        assert logic_and(None, None) is None

    def test_or_truth_table(self):
        assert logic_or(False, False) is False
        assert logic_or(True, None) is True
        assert logic_or(None, False) is None
        assert logic_or(None, None) is None

    def test_not(self):
        assert logic_not(True) is False
        assert logic_not(False) is True
        assert logic_not(None) is None

    def test_compare_null_propagation(self):
        assert compare("=", None, 1) is None
        assert compare("<", 1, None) is None
        assert compare("<>", None, None) is None


class TestArithmetic:
    def test_basic(self, database):
        assert evaluate(database, "1 + 2 * 3") == 7
        assert evaluate(database, "10 - 4 - 3") == 3
        assert evaluate(database, "7 % 3") == 1

    def test_division_exact_integer(self, database):
        assert evaluate(database, "10 / 2") == 5
        assert isinstance(evaluate(database, "10 / 2"), int)

    def test_division_inexact(self, database):
        assert evaluate(database, "7 / 2") == pytest.approx(3.5)

    def test_division_by_zero_raises(self, database):
        with pytest.raises(ExecutionError):
            evaluate(database, "1 / 0")

    def test_modulo_by_zero_raises(self, database):
        with pytest.raises(ExecutionError):
            evaluate(database, "1 % 0")

    def test_null_propagates(self, database):
        assert evaluate(database, "1 + null") is None
        assert evaluate(database, "null * 2") is None
        assert evaluate(database, "-(null)") is None

    def test_unary_minus(self, database):
        assert evaluate(database, "-(3 + 4)") == -7

    def test_string_arithmetic_raises(self, database):
        with pytest.raises(TypeError_):
            evaluate(database, "'a' + 1")

    def test_concat(self, database):
        assert evaluate(database, "'foo' || 'bar'") == "foobar"

    def test_concat_null(self, database):
        assert evaluate(database, "'a' || null") is None

    def test_concat_non_string_raises(self, database):
        with pytest.raises(TypeError_):
            evaluate(database, "'a' || 1")


class TestIntegerPastFloatRange:
    """An INTEGER no float holds: an exact division stays an integer, and
    arithmetic that needs it as a float is a SQL error, not Python's
    ``OverflowError`` — the same answer from the interpreter and from
    the batch kernels (fast paths and typed kernels included)."""

    BIG = 3 * 10**400

    @pytest.fixture(params=[True, False], ids=["vectorized", "interpreter"])
    def db(self, request):
        from repro import ActiveDatabase

        db = ActiveDatabase()
        db.database.enable_vectorized_eval = request.param
        db.execute("create table t (a integer, f float)")
        db.database.insert_rows("t", [[self.BIG, 7], [2.0, 1.5]])
        return db

    def test_exact_division_stays_an_integer(self, db):
        assert db.query("select a from t where a / 3 > 0").rows \
            == [(self.BIG,), (7,)]
        assert db.query("select a / 3 from t").rows == [(10**400,), (7 / 3,)]

    @pytest.mark.parametrize("text, op", [
        ("select a * 1.5 from t", "*"),
        ("select a + 0.5 from t", "+"),
        ("select a - f from t", "-"),
        ("select a % 1.5 from t", "%"),
        ("select a / 7 from t", "/"),
        ("select a from t where a * f > 0", "*"),
        ("select sum(a * 1.5) from t", "*"),
        ("update t set f = a * 1.5", "*"),
    ])
    def test_float_arithmetic_is_an_execution_error(self, db, text, op):
        with pytest.raises(ExecutionError,
                           match=f"integer out of float range in '\\{op}'"):
            db.execute(text)
        assert db.query("select f from t").rows == [(2.0,), (1.5,)]

    def test_the_first_error_in_row_order_wins(self, db):
        """A row before the big one that fails otherwise fails first, as
        the interpreter meets the rows; after it, the overflow does."""
        db.execute("create table u (a integer, f float)")
        db.database.insert_rows("u", [[7, self.BIG, 8], [0.0, 1.5, 0.0]])
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query("select a * f + a / f from u")
        db.execute("delete from u where a = 7")
        with pytest.raises(ExecutionError, match="out of float range"):
            db.query("select a * f + a / f from u")


class TestComparisons:
    def test_numeric(self, database):
        assert evaluate(database, "1 < 2") is True
        assert evaluate(database, "2 <= 1") is False
        assert evaluate(database, "2 = 2.0") is True
        assert evaluate(database, "1 <> 2") is True

    def test_string(self, database):
        assert evaluate(database, "'a' < 'b'") is True

    def test_null_comparison_unknown(self, database):
        assert evaluate(database, "null = null") is None
        assert evaluate(database, "1 > null") is None

    def test_cross_type_raises(self, database):
        with pytest.raises(TypeError_):
            evaluate(database, "1 = 'a'")


class TestPredicates:
    def test_is_null(self, database):
        assert evaluate(database, "null is null") is True
        assert evaluate(database, "1 is null") is False
        assert evaluate(database, "1 is not null") is True

    def test_between(self, database):
        assert evaluate(database, "5 between 1 and 10") is True
        assert evaluate(database, "0 between 1 and 10") is False
        assert evaluate(database, "5 not between 1 and 10") is False
        assert evaluate(database, "null between 1 and 10") is None

    def test_like(self, database):
        assert evaluate(database, "'Jane' like 'J%'") is True
        assert evaluate(database, "'Jane' like '_ane'") is True
        assert evaluate(database, "'Jane' like 'j%'") is False
        assert evaluate(database, "'Jane' not like 'X%'") is True
        assert evaluate(database, "null like 'a%'") is None

    def test_like_escapes_regex_chars(self, database):
        assert evaluate(database, "'a.b' like 'a.b'") is True
        assert evaluate(database, "'axb' like 'a.b'") is False

    def test_in_list(self, database):
        assert evaluate(database, "2 in (1, 2, 3)") is True
        assert evaluate(database, "5 in (1, 2, 3)") is False
        assert evaluate(database, "5 not in (1, 2)") is True

    def test_in_list_null_semantics(self, database):
        # no match + null in list -> unknown
        assert evaluate(database, "5 in (1, null)") is None
        # match wins over null
        assert evaluate(database, "1 in (1, null)") is True
        # null operand -> unknown
        assert evaluate(database, "null in (1, 2)") is None
        # not in with null -> unknown
        assert evaluate(database, "5 not in (1, null)") is None

    def test_short_circuit_and(self, database):
        # right side would divide by zero; False left short-circuits
        assert evaluate(database, "false and 1 / 0 = 1") is False

    def test_short_circuit_or(self, database):
        assert evaluate(database, "true or 1 / 0 = 1") is True

    def test_case(self, database):
        assert evaluate(database, "case when 1 > 0 then 'p' else 'n' end") == "p"
        assert evaluate(database, "case when 1 < 0 then 'p' end") is None
        assert (
            evaluate(
                database,
                "case when null then 'u' when true then 't' end",
            )
            == "t"
        )


class TestSubqueries:
    def test_in_select(self, database):
        assert evaluate(database, "1 in (select x from t)") is True
        assert evaluate(database, "99 in (select x from t)") is False

    def test_in_select_with_null(self, database):
        # y contains NULL: non-matching probe yields unknown
        assert evaluate(database, "99 in (select y from t)") is None
        assert evaluate(database, "10 in (select y from t)") is True

    def test_exists(self, database):
        assert evaluate(database, "exists (select * from t where x = 1)") is True
        assert evaluate(database, "exists (select * from t where x = 99)") is False

    def test_not_exists(self, database):
        assert (
            evaluate(database, "not exists (select * from t where x = 99)")
            is True
        )

    def test_scalar_subquery(self, database):
        assert evaluate(database, "(select max(x) from t)") == 3

    def test_scalar_subquery_empty_is_null(self, database):
        assert evaluate(database, "(select x from t where x = 99)") is None

    def test_scalar_subquery_multirow_raises(self, database):
        with pytest.raises(ExecutionError):
            evaluate(database, "(select x from t)")

    def test_quantified_any(self, database):
        assert evaluate(database, "2 > any (select x from t)") is True
        assert evaluate(database, "0 > any (select x from t)") is False

    def test_quantified_all(self, database):
        assert evaluate(database, "5 > all (select x from t)") is True
        assert evaluate(database, "2 > all (select x from t)") is False

    def test_all_over_empty_is_true(self, database):
        assert (
            evaluate(database, "1 = all (select x from t where x = 99)") is True
        )

    def test_any_over_empty_is_false(self, database):
        assert (
            evaluate(database, "1 = any (select x from t where x = 99)")
            is False
        )

    def test_all_with_null_no_false_is_unknown(self, database):
        assert evaluate(database, "100 > all (select y from t)") is None

    def test_correlated_subquery(self, database):
        value = evaluate(
            database,
            "exists (select * from t where t.x = probe.x)",
            probe=(("x",), (2,)),
        )
        assert value is True


class TestScalarFunctions:
    def test_abs(self, database):
        assert evaluate(database, "abs(-5)") == 5

    def test_round(self, database):
        assert evaluate(database, "round(2.567, 1)") == pytest.approx(2.6)
        assert evaluate(database, "round(2.5)") == 2

    def test_upper_lower_length(self, database):
        assert evaluate(database, "upper('ab')") == "AB"
        assert evaluate(database, "lower('AB')") == "ab"
        assert evaluate(database, "length('abc')") == 3

    def test_coalesce(self, database):
        assert evaluate(database, "coalesce(null, null, 3)") == 3
        assert evaluate(database, "coalesce(null, null)") is None
        assert evaluate(database, "coalesce(1, 2)") == 1

    def test_nullif(self, database):
        assert evaluate(database, "nullif(1, 1)") is None
        assert evaluate(database, "nullif(1, 2)") == 1
        assert evaluate(database, "nullif(null, 2)") is None

    def test_mod(self, database):
        assert evaluate(database, "mod(7, 3)") == 1

    def test_null_propagation(self, database):
        assert evaluate(database, "abs(null)") is None
        assert evaluate(database, "upper(null)") is None

    def test_type_errors(self, database):
        with pytest.raises(TypeError_):
            evaluate(database, "abs('a')")
        with pytest.raises(TypeError_):
            evaluate(database, "upper(5)")


class TestScopeResolution:
    def test_unknown_column_raises(self, database):
        with pytest.raises(ExecutionError):
            evaluate(database, "nonexistent")

    def test_qualified_unknown_raises(self, database):
        with pytest.raises(ExecutionError):
            evaluate(database, "q.x", probe=(("x",), (1,)))

    def test_ambiguous_reference_raises(self, database):
        evaluator = Evaluator(database, BaseTableResolver(database))
        scope = Scope()
        scope.bind("a", ("x",), (1,))
        scope.bind("b", ("x",), (2,))
        with pytest.raises(ExecutionError) as excinfo:
            evaluator.evaluate(parse_expression("x"), scope)
        assert "ambiguous" in str(excinfo.value)

    def test_inner_scope_shadows_outer(self, database):
        evaluator = Evaluator(database, BaseTableResolver(database))
        outer = Scope()
        outer.bind("a", ("x",), (1,))
        inner = Scope(parent=outer)
        inner.bind("b", ("x",), (2,))
        assert evaluator.evaluate(parse_expression("x"), inner) == 2
        assert evaluator.evaluate(parse_expression("a.x"), inner) == 1

    def test_duplicate_binding_raises(self):
        scope = Scope()
        scope.bind("a", ("x",), (1,))
        with pytest.raises(ExecutionError):
            scope.bind("a", ("y",), (2,))


class TestAggregateDetection:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("sum(x)", True),
            ("count(*)", True),
            ("1 + avg(x)", True),
            ("abs(min(x))", True),
            ("x + 1", False),
            ("abs(x)", False),
            # aggregate belongs to the inner query, not this level:
            ("exists (select sum(x) from t)", False),
            ("(select max(x) from t)", False),
            ("case when sum(x) > 0 then 1 end", True),
            ("x in (1, sum(x))", True),
        ],
    )
    def test_detection(self, source, expected):
        assert contains_aggregate(parse_expression(source)) is expected

    def test_aggregate_outside_group_context_raises(self, database):
        with pytest.raises(ExecutionError):
            evaluate(database, "sum(1)")
