"""Parser for the paper's SQL dialect and rule language: recursive
descent for statements, one precedence-climbing loop for expressions.

The grammar follows Sections 2.1 (operation blocks), 3 (rule definition),
4.4 (priority pairings) and 5 (extensions) of the paper, plus the schema
DDL (``create table``) needed to stand up the substrate.

Entry points:

* :func:`parse_statement` — one statement: DDL, rule DDL, or a single
  operation block (``op ; op ; ...``).
* :func:`parse_block` — an operation block only.
* :func:`parse_expression` — an expression (used by the constraint
  facility and tests).
* :func:`parse_script` — a ``;``-separated sequence of statements. Note
  that because rule actions are themselves ``;``-separated operation
  blocks, a ``create rule`` statement greedily consumes subsequent DML
  operations; scripts should place rule definitions last or submit them
  as separate statements.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional, TypeVar

from ..errors import ParseError
from . import ast
from .lexer import expand_literal_rows, tokenize
from .spans import set_span, span_between
from .tokens import KEYWORD_LITERALS, Token, TokenKind

_N = TypeVar("_N")

_TYPE_KEYWORDS = {"INTEGER", "INT", "FLOAT", "REAL", "VARCHAR", "CHAR", "BOOLEAN"}

#: binding powers, loosest first; a prefix ``not`` sits between AND and
#: the comparisons, a prefix sign binds tighter than any infix operator
_OR, _AND, _NOT, _COMPARISON, _ADDITIVE, _MULTIPLICATIVE, _UNARY = range(1, 8)

#: infix operators: token kind, or keyword, -> (binding power, operator)
_INFIX: dict[object, tuple[int, str]] = {
    "OR": (_OR, "or"),
    "AND": (_AND, "and"),
    "NOT": (_COMPARISON, "not"),  # only as NOT IN / NOT BETWEEN / NOT LIKE
    "IS": (_COMPARISON, "is"),
    "IN": (_COMPARISON, "in"),
    "BETWEEN": (_COMPARISON, "between"),
    "LIKE": (_COMPARISON, "like"),
    TokenKind.EQ: (_COMPARISON, "="),
    TokenKind.NEQ: (_COMPARISON, "<>"),
    TokenKind.LT: (_COMPARISON, "<"),
    TokenKind.LTE: (_COMPARISON, "<="),
    TokenKind.GT: (_COMPARISON, ">"),
    TokenKind.GTE: (_COMPARISON, ">="),
    TokenKind.PLUS: (_ADDITIVE, "+"),
    TokenKind.MINUS: (_ADDITIVE, "-"),
    TokenKind.CONCAT: (_ADDITIVE, "||"),
    TokenKind.STAR: (_MULTIPLICATIVE, "*"),
    TokenKind.SLASH: (_MULTIPLICATIVE, "/"),
    TokenKind.PERCENT: (_MULTIPLICATIVE, "%"),
}

_AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})

_SCALAR_FUNCTIONS = frozenset({
    "abs", "round", "upper", "lower", "length", "coalesce", "nullif", "mod",
    "substr", "trim", "replace",
})


class Parser:
    """Token-stream parser. One instance parses one source string.

    With a ``params`` list the parser builds a statement *template* for
    the statement cache (:mod:`repro.relational.plan.cache`): each
    literal :func:`repro.sql.lexer.normalise` leaves out of the cache
    key becomes a :class:`~repro.sql.ast.Param` — numbered as the tokens
    come, which is source order — and its value is appended to the list.
    """

    def __init__(self, source: str,
                 tokens: Optional[list[Token]] = None,
                 params: Optional[list[Any]] = None) -> None:
        self._source = source
        self._tokens = tokenize(source) if tokens is None else tokens
        self._index = 0
        self._params = params

    # ------------------------------------------------------------------
    # token helpers

    # The token list ends in an EOF sentinel that is never consumed, so
    # ``tokens[index]`` is always valid, and ``tokens[index + k]`` is too
    # once the k tokens before it are known not to be EOF.

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._index + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._index].kind is kind

    def _check_keyword(self, *names: str) -> bool:
        token = self._tokens[self._index]
        return token.kind is TokenKind.KEYWORD and token.value in names

    def _match(self, kind: TokenKind) -> Optional[Token]:
        token = self._tokens[self._index]
        if token.kind is kind:
            self._index += 1
            return token
        return None

    def _match_keyword(self, *names: str) -> Optional[Token]:
        token = self._tokens[self._index]
        if token.kind is TokenKind.KEYWORD and token.value in names:
            self._index += 1
            return token
        return None

    def _expect(self, kind: TokenKind, what: str) -> Token:
        token = self._tokens[self._index]
        if token.kind is not kind:
            raise ParseError(f"expected {what}, found {token.text or 'end of input'}",
                             token)
        self._index += 1
        return token

    def _expect_keyword(self, name: str) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.KEYWORD or token.value != name:
            raise ParseError(
                f"expected {name}, found {token.text or 'end of input'}", token
            )
        self._index += 1
        return token

    def _expect_identifier(self, what: str = "identifier") -> str:
        # keywords are reserved: none is accepted as an identifier
        return self._expect(TokenKind.IDENTIFIER, what).value

    def _at_end(self) -> bool:
        return self._tokens[self._index].kind is TokenKind.EOF

    # ------------------------------------------------------------------
    # source spans

    def _prev(self) -> Token:
        """The most recently consumed token (or the first, before any)."""
        return self._tokens[max(self._index - 1, 0)]

    def _spanned(self, node: _N, start_token: Token) -> _N:
        """Attach the span from ``start_token`` to the last consumed
        token onto ``node``; returns the node."""
        return set_span(node, span_between(start_token, self._prev()))

    # ------------------------------------------------------------------
    # statements

    def parse_statement(self) -> Any:
        """Parse a single statement and require end of input after it."""
        statement = self._parse_statement_inner()
        if not self._at_end():
            raise ParseError(
                f"unexpected trailing input starting at {self._peek().text!r}",
                self._peek(),
            )
        return statement

    def parse_script(self) -> list[Any]:
        """Parse a ``;``-separated statement sequence until end of input."""
        statements: list[Any] = []
        while not self._at_end():
            statements.append(self._parse_statement_inner())
            while self._match(TokenKind.SEMICOLON):
                pass
        return statements

    def _parse_statement_inner(self) -> Any:
        start = self._peek()
        if self._check_keyword("CREATE"):
            return self._spanned(self._parse_create(), start)
        if self._check_keyword("DROP"):
            return self._spanned(self._parse_drop(), start)
        if self._check_keyword("ASSERT"):
            self._advance()
            self._expect_keyword("RULES")
            return self._spanned(ast.AssertRules(), start)
        if self._check_keyword("EXPLAIN"):
            self._advance()
            return self._spanned(ast.Explain(self._parse_select()), start)
        return self._parse_operation_block()

    def _parse_create(self) -> Any:
        self._expect_keyword("CREATE")
        if self._match_keyword("TABLE"):
            return self._parse_create_table()
        if self._match_keyword("INDEX"):
            return self._parse_create_index()
        if self._check_keyword("RULE"):
            self._advance()
            if self._check_keyword("PRIORITY"):
                self._advance()
                return self._parse_rule_priority()
            return self._parse_create_rule()
        raise ParseError(
            "expected TABLE, INDEX or RULE after CREATE", self._peek()
        )

    def _parse_drop(self) -> Any:
        self._expect_keyword("DROP")
        if self._match_keyword("TABLE"):
            return ast.DropTable(self._expect_identifier("table name"))
        if self._match_keyword("RULE"):
            return ast.DropRule(self._expect_identifier("rule name"))
        if self._match_keyword("INDEX"):
            return ast.DropIndex(self._expect_identifier("index name"))
        raise ParseError(
            "expected TABLE, INDEX or RULE after DROP", self._peek()
        )

    # ------------------------------------------------------------------
    # schema DDL

    def _parse_create_index(self) -> ast.CreateIndex:
        name = self._expect_identifier("index name")
        self._expect_keyword("ON")
        table = self._expect_identifier("table name")
        self._expect(TokenKind.LPAREN, "'('")
        column = self._expect_identifier("column name")
        self._expect(TokenKind.RPAREN, "')'")
        return ast.CreateIndex(name, table, column)

    def _parse_create_table(self) -> ast.CreateTable:
        name = self._expect_identifier("table name")
        self._expect(TokenKind.LPAREN, "'('")
        columns: list[ast.ColumnDef] = []
        while True:
            column_start = self._peek()
            column_name = self._expect_identifier("column name")
            type_token = self._peek()
            if type_token.kind is TokenKind.KEYWORD and type_token.value in _TYPE_KEYWORDS:
                self._advance()
                type_name = type_token.value.lower()
                # allow e.g. varchar(40): the length is accepted and ignored
                if self._match(TokenKind.LPAREN):
                    self._expect(TokenKind.INTEGER, "type length")
                    self._expect(TokenKind.RPAREN, "')'")
            else:
                raise ParseError(
                    f"expected column type, found {type_token.text!r}", type_token
                )
            columns.append(
                self._spanned(ast.ColumnDef(column_name, type_name), column_start)
            )
            if not self._match(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN, "')'")
        return ast.CreateTable(name, tuple(columns))

    # ------------------------------------------------------------------
    # rule DDL (paper §3, §4.4)

    def _parse_rule_priority(self) -> ast.CreateRulePriority:
        higher = self._expect_identifier("rule name")
        self._expect_keyword("BEFORE")
        lower = self._expect_identifier("rule name")
        return ast.CreateRulePriority(higher, lower)

    def _parse_create_rule(self) -> ast.CreateRule:
        name = self._expect_identifier("rule name")
        self._expect_keyword("WHEN")
        predicates = [self._parse_basic_transition_predicate()]
        while self._match_keyword("OR"):
            predicates.append(self._parse_basic_transition_predicate())
        condition = None
        if self._match_keyword("IF"):
            condition = self.parse_expression_inner()
        self._expect_keyword("THEN")
        if self._match_keyword("ROLLBACK"):
            action = self._spanned(ast.RollbackAction(), self._prev())
        else:
            action = self._parse_operation_block()
        return ast.CreateRule(name, tuple(predicates), condition, action)

    def _parse_basic_transition_predicate(self) -> ast.BasicTransitionPredicate:
        token = self._peek()
        if self._match_keyword("INSERTED"):
            self._expect_keyword("INTO")
            table = self._expect_identifier("table name")
            return self._spanned(
                ast.BasicTransitionPredicate(
                    ast.TransitionPredicateKind.INSERTED, table
                ),
                token,
            )
        if self._match_keyword("DELETED"):
            self._expect_keyword("FROM")
            table = self._expect_identifier("table name")
            return self._spanned(
                ast.BasicTransitionPredicate(
                    ast.TransitionPredicateKind.DELETED, table
                ),
                token,
            )
        if self._match_keyword("UPDATED"):
            table = self._expect_identifier("table name")
            column = None
            if self._match(TokenKind.DOT):
                column = self._expect_identifier("column name")
            return self._spanned(
                ast.BasicTransitionPredicate(
                    ast.TransitionPredicateKind.UPDATED, table, column
                ),
                token,
            )
        if self._match_keyword("SELECTED"):
            table = self._expect_identifier("table name")
            column = None
            if self._match(TokenKind.DOT):
                column = self._expect_identifier("column name")
            return self._spanned(
                ast.BasicTransitionPredicate(
                    ast.TransitionPredicateKind.SELECTED, table, column
                ),
                token,
            )
        raise ParseError(
            "expected transition predicate (inserted into / deleted from / "
            f"updated / selected), found {token.text!r}",
            token,
        )

    # ------------------------------------------------------------------
    # operation blocks (paper §2.1)

    def _parse_operation_block(self) -> ast.OperationBlock:
        start = self._peek()
        operations = [self._parse_operation()]
        while self._check(TokenKind.SEMICOLON):
            # Greedy: continue only if another operation follows.
            next_token = self._peek(1)
            if next_token.is_keyword("INSERT", "DELETE", "UPDATE", "SELECT"):
                self._advance()  # consume ';'
                operations.append(self._parse_operation())
            else:
                break
        return self._spanned(ast.OperationBlock(tuple(operations)), start)

    def _parse_operation(self) -> ast.Operation:
        token = self._peek()
        if self._check_keyword("INSERT"):
            return self._spanned(self._parse_insert(), token)
        if self._check_keyword("DELETE"):
            return self._spanned(self._parse_delete(), token)
        if self._check_keyword("UPDATE"):
            return self._spanned(self._parse_update(), token)
        if self._check_keyword("SELECT"):
            return self._spanned(
                ast.SelectOperation(self._parse_select()), token
            )
        raise ParseError(
            f"expected insert, delete, update or select, found {token.text!r}",
            token,
        )

    def _parse_insert(self) -> ast.Operation:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier("table name")
        columns: tuple[str, ...] = ()
        if self._check(TokenKind.LPAREN) and not self._lparen_starts_select():
            # optional column list: insert into t (c1, c2) ...
            self._advance()
            names = [self._expect_identifier("column name")]
            while self._match(TokenKind.COMMA):
                names.append(self._expect_identifier("column name"))
            self._expect(TokenKind.RPAREN, "')'")
            columns = tuple(names)
        if self._match_keyword("VALUES"):
            token = self._match(TokenKind.LITERAL_ROWS)
            if token is not None:
                rows: Any
                if self._params is not None:
                    self._params.append(token.value)
                    rows = ast.Param(len(self._params) - 1, "r")
                else:
                    rows = ast.LiteralRows(
                        token.value, partial(_parse_literal_rows, token)
                    )
                return ast.InsertValues(table, rows, columns)
            return ast.InsertValues(table, self._parse_value_rows(), columns)
        if self._check(TokenKind.LPAREN):
            self._advance()
            select = self._parse_select()
            self._expect(TokenKind.RPAREN, "')'")
            return ast.InsertSelect(table, select, columns)
        if self._check_keyword("SELECT"):
            # also accept the unparenthesized form
            return ast.InsertSelect(table, self._parse_select(), columns)
        raise ParseError("expected VALUES or (select ...) in insert", self._peek())

    def _lparen_starts_select(self) -> bool:
        return self._check(TokenKind.LPAREN) and self._peek(1).is_keyword("SELECT")

    def _parse_value_rows(self) -> tuple[tuple[ast.Expression, ...], ...]:
        rows = [self._parse_value_row()]
        while self._match(TokenKind.COMMA):
            rows.append(self._parse_value_row())
        return tuple(rows)

    def _parse_value_row(self) -> tuple[ast.Expression, ...]:
        self._expect(TokenKind.LPAREN, "'('")
        values = [self.parse_expression_inner()]
        while self._match(TokenKind.COMMA):
            values.append(self.parse_expression_inner())
        self._expect(TokenKind.RPAREN, "')'")
        return tuple(values)

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier("table name")
        where = None
        if self._match_keyword("WHERE"):
            where = self.parse_expression_inner()
        return ast.Delete(table, where)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._match(TokenKind.COMMA):
            assignments.append(self._parse_assignment())
        where = None
        if self._match_keyword("WHERE"):
            where = self.parse_expression_inner()
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> ast.Assignment:
        start = self._peek()
        column = self._expect_identifier("column name")
        self._expect(TokenKind.EQ, "'='")
        value = self.parse_expression_inner()
        return self._spanned(ast.Assignment(column, value), start)

    # ------------------------------------------------------------------
    # select

    def _parse_select(self) -> ast.Select:
        start = self._peek()
        self._expect_keyword("SELECT")
        distinct = False
        if self._match_keyword("DISTINCT"):
            distinct = True
        elif self._match_keyword("ALL"):
            pass
        items = [self._parse_select_item()]
        while self._match(TokenKind.COMMA):
            items.append(self._parse_select_item())
        tables: tuple[ast.TableReference, ...] = ()
        if self._match_keyword("FROM"):
            refs = [self._parse_table_reference()]
            while self._match(TokenKind.COMMA):
                refs.append(self._parse_table_reference())
            tables = tuple(refs)
        where = None
        if self._match_keyword("WHERE"):
            where = self.parse_expression_inner()
        group_by: tuple[ast.Expression, ...] = ()
        having = None
        if self._check_keyword("GROUP"):
            self._advance()
            self._expect_keyword("BY")
            exprs = [self.parse_expression_inner()]
            while self._match(TokenKind.COMMA):
                exprs.append(self.parse_expression_inner())
            group_by = tuple(exprs)
        if self._match_keyword("HAVING"):
            # HAVING without GROUP BY treats the whole input as one group
            having = self.parse_expression_inner()
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._check_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            orders = [self._parse_order_item()]
            while self._match(TokenKind.COMMA):
                orders.append(self._parse_order_item())
            order_by = tuple(orders)
        limit = None
        if self._match_keyword("LIMIT"):
            token = self._expect(TokenKind.INTEGER, "integer limit")
            limit = token.value
        union = None
        union_all = False
        if self._match_keyword("UNION"):
            union_all = bool(self._match_keyword("ALL"))
            union = self._parse_select()
        return self._spanned(
            ast.Select(
                items=tuple(items),
                tables=tables,
                where=where,
                group_by=group_by,
                having=having,
                order_by=order_by,
                limit=limit,
                distinct=distinct,
                union=union,
                union_all=union_all,
            ),
            start,
        )

    def _parse_select_item(self) -> Any:
        start = self._peek()
        if self._check(TokenKind.STAR):
            self._advance()
            return self._spanned(ast.Star(), start)
        # qualified star: t.*
        if (
            self._check(TokenKind.IDENTIFIER)
            and self._peek(1).kind is TokenKind.DOT
            and self._peek(2).kind is TokenKind.STAR
        ):
            qualifier = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return self._spanned(ast.Star(qualifier), start)
        expression = self.parse_expression_inner()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier("column alias")
        elif self._check(TokenKind.IDENTIFIER):
            alias = self._advance().value
        return self._spanned(ast.SelectItem(expression, alias), start)

    def _parse_order_item(self) -> ast.OrderItem:
        start = self._peek()
        expression = self.parse_expression_inner()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        elif self._match_keyword("ASC"):
            pass
        return self._spanned(ast.OrderItem(expression, descending), start)

    def _parse_table_reference(self) -> ast.TableReference:
        # Transition tables (paper §3): inserted t, deleted t,
        # old updated t[.c], new updated t[.c]; §5.1: selected t[.c]
        start = self._peek()
        if self._match_keyword("INSERTED"):
            return self._spanned(
                self._finish_transition_ref(ast.TransitionKind.INSERTED,
                                            allow_column=False), start)
        if self._match_keyword("DELETED"):
            return self._spanned(
                self._finish_transition_ref(ast.TransitionKind.DELETED,
                                            allow_column=False), start)
        if self._match_keyword("OLD"):
            self._expect_keyword("UPDATED")
            return self._spanned(
                self._finish_transition_ref(ast.TransitionKind.OLD_UPDATED,
                                            allow_column=True), start)
        if self._match_keyword("NEW"):
            self._expect_keyword("UPDATED")
            return self._spanned(
                self._finish_transition_ref(ast.TransitionKind.NEW_UPDATED,
                                            allow_column=True), start)
        if self._match_keyword("SELECTED"):
            return self._spanned(
                self._finish_transition_ref(ast.TransitionKind.SELECTED,
                                            allow_column=True), start)
        table = self._expect_identifier("table name")
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier("table alias")
        elif self._check(TokenKind.IDENTIFIER):
            alias = self._advance().value
        return self._spanned(ast.BaseTableRef(table, alias), start)

    def _finish_transition_ref(self, kind: ast.TransitionKind,
                               allow_column: bool) -> ast.TransitionTableRef:
        table = self._expect_identifier("table name")
        column = None
        if allow_column and self._match(TokenKind.DOT):
            column = self._expect_identifier("column name")
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_identifier("table alias")
        elif self._check(TokenKind.IDENTIFIER):
            alias = self._advance().value
        return ast.TransitionTableRef(kind, table, column, alias)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)

    def parse_expression_inner(self, min_power: int = _OR) -> ast.Expression:
        """Parse an expression whose infix operators all bind at least
        as tightly as ``min_power``."""
        tokens = self._tokens
        start = tokens[self._index]
        #: the tightest operator that may still take ``left`` as its left
        #: operand: once an operator has applied, a tighter one cannot
        #: (``a is null + 1`` is not ``(a is null) + 1``)
        limit = _UNARY
        if start.kind is TokenKind.MINUS or start.kind is TokenKind.PLUS:
            self._index += 1
            left: ast.Expression = self._spanned(
                ast.UnaryOp(start.value, self.parse_expression_inner(_UNARY)),
                start,
            )
        elif (min_power <= _NOT and start.kind is TokenKind.KEYWORD
              and start.value == "NOT"):
            self._index += 1
            left = self._spanned(
                ast.UnaryOp("not", self.parse_expression_inner(_NOT)), start
            )
            limit = _NOT
        else:
            left = self._parse_primary()
        while True:
            token = tokens[self._index]
            entry = _INFIX.get(
                token.value if token.kind is TokenKind.KEYWORD else token.kind
            )
            if entry is None:
                return left
            power, op = entry
            if not min_power <= power <= limit:
                return left
            negated = False
            if op == "not":
                token = tokens[self._index + 1]
                if not token.is_keyword("IN", "BETWEEN", "LIKE"):
                    return left
                self._index += 1
                negated = True
                op = _INFIX[token.value][1]
            self._index += 1
            node: ast.Expression
            if op == "is":
                is_negated = bool(self._match_keyword("NOT"))
                self._expect_keyword("NULL")
                node = ast.IsNull(left, is_negated)
            elif op == "in":
                node = self._parse_in_rhs(left, negated)
            elif op == "between":
                low = self.parse_expression_inner(_ADDITIVE)
                self._expect_keyword("AND")
                high = self.parse_expression_inner(_ADDITIVE)
                node = ast.Between(left, low, high, negated)
            elif op == "like":
                pattern = self.parse_expression_inner(_ADDITIVE)
                node = ast.Like(left, pattern, negated)
            elif power == _COMPARISON and self._check_keyword(
                    "ANY", "SOME", "ALL", "EVERY"):
                quantifier = (
                    "any" if self._advance().value in ("ANY", "SOME") else "all"
                )
                self._expect(TokenKind.LPAREN, "'('")
                select = self._parse_select()
                self._expect(TokenKind.RPAREN, "')'")
                node = ast.QuantifiedComparison(left, op, quantifier, select)
            else:  # left-associative: the right operand binds tighter
                node = ast.BinaryOp(
                    op, left, self.parse_expression_inner(power + 1)
                )
            left = self._spanned(node, start)
            limit = power

    def _parse_in_rhs(self, operand: ast.Expression,
                      negated: bool) -> ast.Expression:
        self._expect(TokenKind.LPAREN, "'('")
        if self._check_keyword("SELECT"):
            select = self._parse_select()
            self._expect(TokenKind.RPAREN, "')'")
            return ast.InSelect(operand, select, negated)
        items = [self.parse_expression_inner()]
        while self._match(TokenKind.COMMA):
            items.append(self.parse_expression_inner())
        self._expect(TokenKind.RPAREN, "')'")
        return ast.InList(operand, tuple(items), negated)

    def _parse_primary(self) -> ast.Expression:
        token = self._tokens[self._index]
        kind = token.kind
        if (kind is TokenKind.INTEGER or kind is TokenKind.FLOAT
                or kind is TokenKind.STRING):
            self._index += 1
            params = self._params
            if params is None or (
                    kind is not TokenKind.STRING and self._divides()):
                return self._spanned(ast.Literal(token.value), token)
            params.append(token.value)
            return self._spanned(
                ast.Param(len(params) - 1,
                          "s" if kind is TokenKind.STRING else "n"),
                token,
            )
        if kind is TokenKind.IDENTIFIER:
            return self._parse_identifier_expression()
        if kind is TokenKind.LPAREN:
            self._index += 1
            if self._check_keyword("SELECT"):
                select = self._parse_select()
                self._expect(TokenKind.RPAREN, "')'")
                return self._spanned(ast.ScalarSelect(select), token)
            expression = self.parse_expression_inner()
            self._expect(TokenKind.RPAREN, "')'")
            # widen the span to include the parentheses
            return self._spanned(expression, token)
        if kind is TokenKind.KEYWORD:
            if token.value in KEYWORD_LITERALS:
                self._index += 1
                return self._spanned(
                    ast.Literal(KEYWORD_LITERALS[token.value]), token
                )
            if token.value == "EXISTS":
                self._index += 1
                self._expect(TokenKind.LPAREN, "'('")
                select = self._parse_select()
                self._expect(TokenKind.RPAREN, "')'")
                return self._spanned(ast.Exists(select), token)
            if token.value == "CASE":
                return self._parse_case()
        raise ParseError(
            f"expected expression, found {token.text or 'end of input'}", token
        )

    def _divides(self) -> bool:
        """Does the number just consumed directly follow ``/`` or ``%``
        (parentheses aside)? A literal divisor is read at compile time
        — non-zero, and whether an integer: the typed division kernels
        of ``repro.relational.compiled`` — so it stays a literal, part
        of the statement's shape (``normalise`` keeps it in the key by
        the same rule over the same tokens)."""
        index = self._index - 2
        while index >= 0 and self._tokens[index].kind is TokenKind.LPAREN:
            index -= 1
        return index >= 0 and self._tokens[index].kind in (
            TokenKind.SLASH, TokenKind.PERCENT)

    def _parse_case(self) -> ast.Expression:
        start = self._peek()
        self._expect_keyword("CASE")
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self._match_keyword("WHEN"):
            condition = self.parse_expression_inner()
            self._expect_keyword("THEN")
            value = self.parse_expression_inner()
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch", self._peek())
        default = None
        if self._match_keyword("ELSE"):
            default = self.parse_expression_inner()
        self._expect_keyword("END")
        return self._spanned(ast.CaseExpression(tuple(branches), default), start)

    def _parse_identifier_expression(self) -> ast.Expression:
        start = self._advance()
        name = start.value

        if self._check(TokenKind.LPAREN):
            return self._spanned(self._parse_function_call(start), start)

        if self._check(TokenKind.DOT):
            # qualified column: t.c  (t.* is handled at select-item level)
            self._advance()
            column = self._expect_identifier("column name")
            return self._spanned(ast.ColumnRef(column, qualifier=name), start)

        return self._spanned(ast.ColumnRef(name), start)

    def _parse_function_call(self, name_token: Token) -> ast.FunctionCall:
        name = name_token.value
        self._expect(TokenKind.LPAREN, "'('")
        distinct = False
        args: list[ast.Expression] = []
        if self._check(TokenKind.STAR):
            star = self._peek()
            self._advance()
            args.append(self._spanned(ast.Star(), star))
        elif not self._check(TokenKind.RPAREN):
            if self._match_keyword("DISTINCT"):
                distinct = True
            args.append(self.parse_expression_inner())
            while self._match(TokenKind.COMMA):
                args.append(self.parse_expression_inner())
        self._expect(TokenKind.RPAREN, "')'")
        if name not in _AGGREGATE_NAMES and name not in _SCALAR_FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", name_token)
        if distinct and name not in _AGGREGATE_NAMES:
            raise ParseError(f"DISTINCT is only valid in aggregates, not {name!r}",
                             name_token)
        return ast.FunctionCall(name, tuple(args), distinct)


def _parse_literal_rows(token: Token) -> tuple[tuple[ast.Expression, ...], ...]:
    """The expression nodes of a ``LITERAL_ROWS`` token: its text parsed
    as any other row list is, in place, so nodes and spans are the ones
    token-by-token lexing would have led to."""
    return Parser(token.text, expand_literal_rows(token))._parse_value_rows()


# ---------------------------------------------------------------------------
# module-level entry points


def parse_statement(source: str, params: Optional[list[Any]] = None) -> Any:
    """Parse exactly one statement (DDL, rule DDL, or an operation
    block); with ``params``, as a template (see :class:`Parser`)."""
    return Parser(source, params=params).parse_statement()


def parse_script(source: str) -> list[Any]:
    """Parse a ``;``-separated script into a statement list."""
    return Parser(source).parse_script()


def parse_block(source: str) -> ast.OperationBlock:
    """Parse an operation block; raise if the source is any other statement."""
    statement = parse_statement(source)
    if not isinstance(statement, ast.OperationBlock):
        raise ParseError(f"expected an operation block, got {type(statement).__name__}")
    return statement


def parse_expression(source: str) -> ast.Expression:
    """Parse a standalone expression (used by constraints and tests)."""
    parser = Parser(source)
    expression = parser.parse_expression_inner()
    if not parser._at_end():
        raise ParseError(
            f"unexpected trailing input starting at {parser._peek().text!r}",
            parser._peek(),
        )
    return expression


def parse_select(source: str,
                 params: Optional[list[Any]] = None) -> ast.Select:
    """Parse a standalone select statement; with ``params``, as a
    template (see :class:`Parser`)."""
    parser = Parser(source, params=params)
    select = parser._parse_select()
    if not parser._at_end():
        raise ParseError(
            f"unexpected trailing input starting at {parser._peek().text!r}",
            parser._peek(),
        )
    return select


def parse_transition_predicates(source: str) -> tuple[ast.BasicTransitionPredicate, ...]:
    """Parse a bare transition-predicate list, e.g.
    ``"inserted into emp or updated emp.salary"``.

    Used when defining rules with external (Python) actions, where only
    the ``when`` part is SQL text.
    """
    parser = Parser(source)
    predicates = [parser._parse_basic_transition_predicate()]
    while parser._match_keyword("OR"):
        predicates.append(parser._parse_basic_transition_predicate())
    if not parser._at_end():
        raise ParseError(
            f"unexpected trailing input starting at {parser._peek().text!r}",
            parser._peek(),
        )
    return tuple(predicates)
