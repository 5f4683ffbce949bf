"""Unit tests for the SQL/rule parser."""

import pytest

from repro.errors import ParseError
from repro.sql import ast, format_node, span_of, walk
from repro.sql.parser import (
    parse_block,
    parse_expression,
    parse_script,
    parse_select,
    parse_statement,
    parse_transition_predicates,
)


class TestExpressions:
    def test_integer_literal(self):
        assert parse_expression("42") == ast.Literal(42)

    def test_float_literal(self):
        assert parse_expression("0.5") == ast.Literal(0.5)

    def test_string_literal(self):
        assert parse_expression("'hi'") == ast.Literal("hi")

    def test_null_true_false(self):
        assert parse_expression("null") == ast.Literal(None)
        assert parse_expression("true") == ast.Literal(True)
        assert parse_expression("false") == ast.Literal(False)

    def test_column_ref(self):
        assert parse_expression("salary") == ast.ColumnRef("salary")

    def test_qualified_column_ref(self):
        assert parse_expression("e.salary") == ast.ColumnRef("salary", "e")

    def test_arithmetic_precedence(self):
        node = parse_expression("1 + 2 * 3")
        assert node == ast.BinaryOp(
            "+", ast.Literal(1), ast.BinaryOp("*", ast.Literal(2), ast.Literal(3))
        )

    def test_parentheses_override_precedence(self):
        node = parse_expression("(1 + 2) * 3")
        assert node == ast.BinaryOp(
            "*", ast.BinaryOp("+", ast.Literal(1), ast.Literal(2)), ast.Literal(3)
        )

    def test_left_associativity(self):
        node = parse_expression("10 - 4 - 3")
        assert node == ast.BinaryOp(
            "-", ast.BinaryOp("-", ast.Literal(10), ast.Literal(4)), ast.Literal(3)
        )

    def test_unary_minus(self):
        assert parse_expression("-x") == ast.UnaryOp("-", ast.ColumnRef("x"))

    def test_comparison(self):
        node = parse_expression("salary > 50000")
        assert node == ast.BinaryOp(">", ast.ColumnRef("salary"), ast.Literal(50000))

    def test_and_or_precedence(self):
        node = parse_expression("a = 1 or b = 2 and c = 3")
        assert isinstance(node, ast.BinaryOp) and node.op == "or"
        assert isinstance(node.right, ast.BinaryOp) and node.right.op == "and"

    def test_not(self):
        node = parse_expression("not a = 1")
        assert isinstance(node, ast.UnaryOp) and node.op == "not"

    def test_is_null(self):
        assert parse_expression("x is null") == ast.IsNull(ast.ColumnRef("x"))

    def test_is_not_null(self):
        assert parse_expression("x is not null") == ast.IsNull(
            ast.ColumnRef("x"), negated=True
        )

    def test_between(self):
        node = parse_expression("x between 1 and 10")
        assert node == ast.Between(
            ast.ColumnRef("x"), ast.Literal(1), ast.Literal(10)
        )

    def test_not_between(self):
        node = parse_expression("x not between 1 and 10")
        assert node.negated

    def test_like(self):
        node = parse_expression("name like 'J%'")
        assert node == ast.Like(ast.ColumnRef("name"), ast.Literal("J%"))

    def test_in_list(self):
        node = parse_expression("x in (1, 2, 3)")
        assert node == ast.InList(
            ast.ColumnRef("x"),
            (ast.Literal(1), ast.Literal(2), ast.Literal(3)),
        )

    def test_not_in_list(self):
        assert parse_expression("x not in (1)").negated

    def test_in_select(self):
        node = parse_expression("x in (select y from t)")
        assert isinstance(node, ast.InSelect)

    def test_exists(self):
        node = parse_expression("exists (select * from t)")
        assert isinstance(node, ast.Exists)

    def test_not_exists(self):
        node = parse_expression("not exists (select * from t)")
        assert isinstance(node, ast.UnaryOp)
        assert isinstance(node.operand, ast.Exists)

    def test_quantified_any(self):
        node = parse_expression("x > any (select y from t)")
        assert isinstance(node, ast.QuantifiedComparison)
        assert node.quantifier == "any"

    def test_quantified_all(self):
        node = parse_expression("x >= all (select y from t)")
        assert node.quantifier == "all"

    def test_some_is_any(self):
        assert parse_expression("x = some (select y from t)").quantifier == "any"

    def test_scalar_subquery(self):
        node = parse_expression("(select max(x) from t)")
        assert isinstance(node, ast.ScalarSelect)

    def test_aggregate_call(self):
        node = parse_expression("sum(salary)")
        assert node == ast.FunctionCall("sum", (ast.ColumnRef("salary"),))

    def test_count_star(self):
        node = parse_expression("count(*)")
        assert node.args == (ast.Star(),)

    def test_count_distinct(self):
        node = parse_expression("count(distinct dept_no)")
        assert node.distinct

    def test_unknown_function_raises(self):
        with pytest.raises(ParseError):
            parse_expression("frobnicate(x)")

    @pytest.mark.parametrize("source,message,line,column", [
        ("select foo(x) from t", "unknown function 'foo'", 1, 8),
        ("select upper(distinct x) from t",
         "DISTINCT is only valid in aggregates, not 'upper'", 1, 8),
        ("select a,\n       foo(x,\n           y)\nfrom t",
         "unknown function 'foo'", 2, 8),
        ("delete from t\nwhere a = 1\n  and lower(distinct\n b) = 'x'",
         "DISTINCT is only valid in aggregates, not 'lower'", 3, 7),
        ("select sum(foo(x)) from t", "unknown function 'foo'", 1, 12),
    ])
    def test_function_errors_point_at_the_function_name(
            self, source, message, line, column):
        """Not at whatever follows the closing parenthesis."""
        with pytest.raises(ParseError) as excinfo:
            parse_statement(source)
        error = excinfo.value
        assert str(error) == f"{message} (line {line}, column {column})"
        assert (error.token.line, error.token.column) == (line, column)
        assert error.token.value == message.rsplit("'", 2)[1]

    def test_an_error_inside_the_arguments_still_comes_first(self):
        with pytest.raises(ParseError) as excinfo:
            parse_expression("foo(1 +)")
        assert str(excinfo.value) == (
            "expected expression, found ) (line 1, column 8)"
        )

    def test_case_expression(self):
        node = parse_expression(
            "case when x > 0 then 'pos' when x < 0 then 'neg' else 'zero' end"
        )
        assert isinstance(node, ast.CaseExpression)
        assert len(node.branches) == 2
        assert node.default == ast.Literal("zero")

    def test_case_without_else(self):
        node = parse_expression("case when x > 0 then 1 end")
        assert node.default is None

    def test_concat(self):
        node = parse_expression("a || b")
        assert node.op == "||"

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra")


class TestPrecedence:
    """The grammar's binding order, pinned where it is easy to get wrong
    in a precedence-climbing loop: an operator that has applied closes
    the levels tighter than itself."""

    @pytest.mark.parametrize("source,grouped", [
        ("1 - 2 - 3", "((1 - 2) - 3)"),
        ("a or b and not c = d", "(a or (b and (not (c = d))))"),
        ("not a = b and c", "((not (a = b)) and c)"),
        ("a = b = c", "((a = b) = c)"),
        ("- a * b", "((- a) * b)"),
        ("- - a", "(- (- a))"),
        ("a + b * - c", "(a + (b * (- c)))"),
        ("a || b + c", "((a || b) + c)"),
        ("a between 1 and 2 and c", "((a between 1 and 2) and c)"),
        ("a + b not like c || d", "((a + b) not like (c || d))"),
        ("a is not null is null", "((a is not null) is null)"),
        ("a not in (1, 2) = b", "((a not in (1, 2)) = b)"),
    ])
    def test_grouping(self, source, grouped):
        def render(node):
            if isinstance(node, ast.BinaryOp):
                return f"({render(node.left)} {node.op} {render(node.right)})"
            if isinstance(node, ast.UnaryOp):
                return f"({node.op} {render(node.operand)})"
            if isinstance(node, ast.Between):
                return (f"({render(node.operand)} between {render(node.low)}"
                        f" and {render(node.high)})")
            if isinstance(node, ast.Like):
                word = "not like" if node.negated else "like"
                return f"({render(node.operand)} {word} {render(node.pattern)})"
            if isinstance(node, ast.IsNull):
                word = "is not null" if node.negated else "is null"
                return f"({render(node.operand)} {word})"
            if isinstance(node, ast.InList):
                word = "not in" if node.negated else "in"
                items = ", ".join(render(item) for item in node.items)
                return f"({render(node.operand)} {word} ({items}))"
            return str(getattr(node, "column", getattr(node, "value", node)))

        assert render(parse_expression(source)) == grouped

    @pytest.mark.parametrize("source,message", [
        # a prefix NOT is not an operand of a comparison or of arithmetic
        ("a = not b", "expected expression, found not (line 1, column 5)"),
        ("- not a", "expected expression, found not (line 1, column 3)"),
        # nothing tighter than a comparison applies to a finished one
        ("a is null + 1",
         "unexpected trailing input starting at '+' (line 1, column 11)"),
        ("a in (1) * 2",
         "unexpected trailing input starting at '*' (line 1, column 10)"),
        ("a < any (select x from t) + 1",
         "unexpected trailing input starting at '+' (line 1, column 27)"),
        # NOT is infix only before IN / BETWEEN / LIKE
        ("a not b",
         "unexpected trailing input starting at 'not' (line 1, column 3)"),
        ("a not is null",
         "unexpected trailing input starting at 'not' (line 1, column 3)"),
    ])
    def test_rejected(self, source, message):
        with pytest.raises(ParseError) as excinfo:
            parse_expression(source)
        assert str(excinfo.value) == message


class TestSelect:
    def test_minimal(self):
        select = parse_select("select * from emp")
        assert select.items == (ast.Star(),)
        assert select.tables == (ast.BaseTableRef("emp"),)

    def test_columns_and_alias(self):
        select = parse_select("select name, salary as pay from emp")
        assert select.items[1].alias == "pay"

    def test_implicit_alias(self):
        select = parse_select("select salary pay from emp")
        assert select.items[0].alias == "pay"

    def test_table_alias(self):
        select = parse_select("select e.name from emp e")
        assert select.tables[0].alias == "e"
        assert select.tables[0].binding_name == "e"

    def test_table_as_alias(self):
        select = parse_select("select * from emp as e")
        assert select.tables[0].alias == "e"

    def test_qualified_star(self):
        select = parse_select("select e.* from emp e")
        assert select.items == (ast.Star("e"),)

    def test_multiple_tables(self):
        select = parse_select("select * from emp, dept")
        assert len(select.tables) == 2

    def test_where(self):
        select = parse_select("select * from emp where salary > 10")
        assert select.where is not None

    def test_distinct(self):
        assert parse_select("select distinct dept_no from emp").distinct

    def test_group_by_having(self):
        select = parse_select(
            "select dept_no, count(*) from emp group by dept_no "
            "having count(*) > 1"
        )
        assert select.group_by == (ast.ColumnRef("dept_no"),)
        assert select.having is not None

    def test_order_by(self):
        select = parse_select("select * from emp order by salary desc, name")
        assert select.order_by[0].descending
        assert not select.order_by[1].descending

    def test_limit(self):
        assert parse_select("select * from emp limit 5").limit == 5

    def test_union(self):
        select = parse_select("select x from a union select x from b")
        assert select.union is not None
        assert not select.union_all

    def test_union_all(self):
        select = parse_select("select x from a union all select x from b")
        assert select.union_all

    def test_no_from(self):
        select = parse_select("select 1 + 1")
        assert select.tables == ()


class TestTransitionTableRefs:
    def test_inserted(self):
        select = parse_select("select * from inserted emp")
        ref = select.tables[0]
        assert isinstance(ref, ast.TransitionTableRef)
        assert ref.kind is ast.TransitionKind.INSERTED
        assert ref.table == "emp"
        assert ref.column is None

    def test_deleted_with_alias(self):
        ref = parse_select("select * from deleted dept d").tables[0]
        assert ref.kind is ast.TransitionKind.DELETED
        assert ref.alias == "d"
        assert ref.binding_name == "d"

    def test_old_updated_with_column(self):
        ref = parse_select("select * from old updated emp.salary").tables[0]
        assert ref.kind is ast.TransitionKind.OLD_UPDATED
        assert ref.column == "salary"

    def test_new_updated_whole_table(self):
        ref = parse_select("select * from new updated emp").tables[0]
        assert ref.kind is ast.TransitionKind.NEW_UPDATED
        assert ref.column is None

    def test_selected_extension(self):
        ref = parse_select("select * from selected emp.salary").tables[0]
        assert ref.kind is ast.TransitionKind.SELECTED

    def test_mixed_from_clause(self):
        select = parse_select("select * from emp e, inserted emp i")
        assert isinstance(select.tables[0], ast.BaseTableRef)
        assert isinstance(select.tables[1], ast.TransitionTableRef)


class TestDml:
    def test_insert_values(self):
        op = parse_statement("insert into emp values ('a', 1, 2.0, 3)")
        assert isinstance(op, ast.OperationBlock)
        insert = op.operations[0]
        assert isinstance(insert, ast.InsertValues)
        assert len(insert.rows) == 1
        assert len(insert.rows[0]) == 4

    def test_insert_multi_row(self):
        block = parse_statement("insert into t values (1), (2), (3)")
        assert len(block.operations[0].rows) == 3

    def test_insert_with_columns(self):
        block = parse_statement("insert into t (a, b) values (1, 2)")
        assert block.operations[0].columns == ("a", "b")

    def test_literal_rows_are_the_tuple_of_nodes_they_stand_for(self):
        literal = ast.Literal
        expected = (
            (literal(1), ast.UnaryOp("-", literal(2.5)), literal("it's")),
            (ast.UnaryOp("+", literal(5)), literal(None), literal(True)),
        )
        insert = parse_statement(
            "insert into t values (1, -2.5, 'it''s'), (+5, NULL, true)"
        ).operations[0]
        rows = insert.rows
        assert type(rows) is ast.LiteralRows
        assert rows.values == ((1, -2.5, "it's"), (5, None, True))
        assert len(rows) == 2 and rows._nodes is None
        assert rows == expected and expected == tuple(rows)
        assert rows[0] == expected[0] and rows[-1][0].operand == literal(5)
        assert hash(rows) == hash(expected) and repr(rows) == repr(expected)
        assert insert == ast.InsertValues("t", expected)
        assert hash(insert) == hash(ast.InsertValues("t", expected))
        assert rows != expected[:1]
        again = parse_statement(format_node(insert)).operations[0]
        assert again == insert and again.rows.values == rows.values
        assert span_of(rows[1][0]).location == "1:43"
        assert [type(node).__name__ for node in walk(insert)] == [
            "InsertValues", "Literal", "Literal", "UnaryOp", "Literal",
            "Literal", "UnaryOp", "Literal", "Literal",
        ]

    def test_rows_holding_an_expression_stay_a_plain_tuple(self):
        insert = parse_statement(
            "insert into t values (1, 2), (3, 1 + 1)").operations[0]
        assert type(insert.rows) is tuple
        assert insert.rows[0] == (ast.Literal(1), ast.Literal(2))

    def test_insert_select(self):
        block = parse_statement("insert into t (select x from s)")
        assert isinstance(block.operations[0], ast.InsertSelect)

    def test_insert_select_unparenthesized(self):
        block = parse_statement("insert into t select x from s")
        assert isinstance(block.operations[0], ast.InsertSelect)

    def test_insert_select_with_columns(self):
        block = parse_statement("insert into t (a) (select x from s)")
        op = block.operations[0]
        assert isinstance(op, ast.InsertSelect)
        assert op.columns == ("a",)

    def test_delete_with_where(self):
        block = parse_statement("delete from emp where salary > 10")
        assert block.operations[0].where is not None

    def test_delete_without_where(self):
        assert parse_statement("delete from emp").operations[0].where is None

    def test_update(self):
        block = parse_statement(
            "update emp set salary = salary * 1.1, name = 'x' where emp_no = 1"
        )
        update = block.operations[0]
        assert [a.column for a in update.assignments] == ["salary", "name"]
        assert update.where is not None

    def test_operation_block_sequence(self):
        block = parse_statement(
            "insert into t values (1); delete from t where x = 0; "
            "update t set x = 2"
        )
        assert len(block.operations) == 3

    def test_select_operation_in_block(self):
        block = parse_statement("select * from emp")
        assert isinstance(block.operations[0], ast.SelectOperation)

    def test_parse_block_rejects_ddl(self):
        with pytest.raises(ParseError):
            parse_block("create table t (x integer)")

    def test_empty_input_raises(self):
        with pytest.raises(ParseError):
            parse_statement("")


class TestDdl:
    def test_create_table(self):
        stmt = parse_statement(
            "create table emp (name varchar, emp_no integer, salary float)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert [c.name for c in stmt.columns] == ["name", "emp_no", "salary"]
        assert [c.type_name for c in stmt.columns] == [
            "varchar", "integer", "float",
        ]

    def test_create_table_with_length(self):
        stmt = parse_statement("create table t (name varchar(40))")
        assert stmt.columns[0].type_name == "varchar"

    def test_drop_table(self):
        stmt = parse_statement("drop table emp")
        assert isinstance(stmt, ast.DropTable)
        assert stmt.name == "emp"

    def test_bad_type_raises(self):
        with pytest.raises(ParseError):
            parse_statement("create table t (x blob)")

    def test_assert_rules(self):
        assert isinstance(parse_statement("assert rules"), ast.AssertRules)


class TestCreateRule:
    def test_example_31(self):
        stmt = parse_statement(
            "create rule r when deleted from dept "
            "then delete from emp where dept_no in "
            "(select dept_no from deleted dept)"
        )
        assert isinstance(stmt, ast.CreateRule)
        assert stmt.name == "r"
        assert stmt.condition is None
        assert stmt.predicates[0].kind is ast.TransitionPredicateKind.DELETED
        assert isinstance(stmt.action, ast.OperationBlock)

    def test_disjunctive_predicates(self):
        stmt = parse_statement(
            "create rule r when inserted into emp or deleted from emp "
            "or updated emp.salary or updated emp.dept_no "
            "then delete from emp where false"
        )
        assert len(stmt.predicates) == 4
        kinds = [p.kind for p in stmt.predicates]
        assert kinds.count(ast.TransitionPredicateKind.UPDATED) == 2
        assert stmt.predicates[2].column == "salary"

    def test_updated_whole_table_predicate(self):
        stmt = parse_statement(
            "create rule r when updated emp then delete from emp where false"
        )
        assert stmt.predicates[0].column is None

    def test_condition(self):
        stmt = parse_statement(
            "create rule r when updated emp.salary "
            "if (select sum(salary) from new updated emp.salary) > 100 "
            "then rollback"
        )
        assert stmt.condition is not None
        assert isinstance(stmt.action, ast.RollbackAction)

    def test_multi_operation_action(self):
        stmt = parse_statement(
            "create rule r when deleted from emp "
            "then delete from emp where false; delete from dept where false"
        )
        assert len(stmt.action.operations) == 2

    def test_selected_predicate_extension(self):
        stmt = parse_statement(
            "create rule r when selected emp.salary then rollback"
        )
        assert stmt.predicates[0].kind is ast.TransitionPredicateKind.SELECTED

    def test_rule_priority(self):
        stmt = parse_statement("create rule priority r2 before r1")
        assert isinstance(stmt, ast.CreateRulePriority)
        assert stmt.higher == "r2"
        assert stmt.lower == "r1"

    def test_drop_rule(self):
        stmt = parse_statement("drop rule r")
        assert isinstance(stmt, ast.DropRule)

    def test_missing_then_raises(self):
        with pytest.raises(ParseError):
            parse_statement("create rule r when inserted into t")

    def test_bad_predicate_raises(self):
        with pytest.raises(ParseError):
            parse_statement("create rule r when modified t then rollback")


class TestTransitionPredicateHelper:
    def test_single(self):
        predicates = parse_transition_predicates("inserted into emp")
        assert len(predicates) == 1
        assert predicates[0].table == "emp"

    def test_disjunction(self):
        predicates = parse_transition_predicates(
            "inserted into emp or updated emp.salary or deleted from dept"
        )
        assert len(predicates) == 3

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_transition_predicates("inserted into emp banana")


class TestScript:
    def test_multiple_statements(self):
        statements = parse_script(
            "create table t (x integer); insert into t values (1)"
        )
        assert len(statements) == 2
        assert isinstance(statements[0], ast.CreateTable)
        assert isinstance(statements[1], ast.OperationBlock)

    def test_rule_action_greediness(self):
        # a create rule consumes following DML into its action — documented
        statements = parse_script(
            "create rule r when inserted into t then delete from t; "
            "delete from u"
        )
        assert len(statements) == 1
        assert len(statements[0].action.operations) == 2

    def test_rule_then_ddl_separates(self):
        statements = parse_script(
            "create rule r when inserted into t then delete from t; "
            "create table u (x integer)"
        )
        assert len(statements) == 2
