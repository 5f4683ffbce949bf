"""Unit tests for the SQL lexer."""

import pytest

from repro.errors import LexError
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenKind


def kinds(source):
    return [token.kind for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only_yields_only_eof(self):
        tokens = tokenize("   \t\n  ")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        token = tokenize("emp")[0]
        assert token.kind is TokenKind.IDENTIFIER
        assert token.value == "emp"

    def test_identifier_with_underscore_and_digits(self):
        token = tokenize("dept_no2")[0]
        assert token.value == "dept_no2"

    def test_identifiers_are_lowercased(self):
        token = tokenize("Emp_No")[0]
        assert token.value == "emp_no"
        assert token.text == "Emp_No"

    def test_keyword_case_insensitive(self):
        for spelling in ("select", "SELECT", "Select", "sElEcT"):
            token = tokenize(spelling)[0]
            assert token.kind is TokenKind.KEYWORD
            assert token.value == "SELECT"

    def test_keyword_helper(self):
        token = tokenize("where")[0]
        assert token.is_keyword("WHERE")
        assert token.is_keyword("SELECT", "WHERE")
        assert not token.is_keyword("SELECT")


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INTEGER
        assert token.value == 42

    def test_float(self):
        token = tokenize("0.95")[0]
        assert token.kind is TokenKind.FLOAT
        assert token.value == pytest.approx(0.95)

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.kind is TokenKind.FLOAT
        assert token.value == pytest.approx(0.5)

    def test_scientific_notation(self):
        token = tokenize("1e6")[0]
        assert token.kind is TokenKind.FLOAT
        assert token.value == pytest.approx(1e6)

    def test_scientific_with_sign(self):
        token = tokenize("2.5e-3")[0]
        assert token.value == pytest.approx(2.5e-3)

    def test_integer_then_dot_identifier_not_float(self):
        # t.c after a number context: "1." followed by non-digit
        tokens = tokenize("emp.salary")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.IDENTIFIER, TokenKind.DOT, TokenKind.IDENTIFIER,
        ]


class TestDigitSet:
    """A digit is ASCII ``0``-``9``; no other numeric character starts
    or continues a number (docs/sql-reference.md, "Lexical grammar")."""

    @pytest.mark.parametrize("char", ["²", "٣", "½", "Ⅷ"])
    def test_other_numeric_characters_start_no_token(self, char):
        with pytest.raises(LexError) as excinfo:
            tokenize(f"select {char} from t")
        error = excinfo.value
        assert str(error) == f"unexpected character {char!r} (line 1, column 8)"
        assert (error.position, error.line, error.column) == (7, 1, 8)

    @pytest.mark.parametrize("char", ["²", "٣"])
    def test_they_end_a_number(self, char):
        with pytest.raises(LexError) as excinfo:
            tokenize(f"select\n  1{char}")
        error = excinfo.value
        assert str(error) == f"unexpected character {char!r} (line 2, column 4)"
        assert error.position == 10

    def test_they_may_continue_an_identifier(self):
        assert values("x² y٣") == ["x²", "y٣"]


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'hello'")[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_string_preserves_case(self):
        assert tokenize("'MiXeD'")[0].value == "MiXeD"


class TestOperators:
    @pytest.mark.parametrize(
        "source,kind",
        [
            ("=", TokenKind.EQ),
            ("<>", TokenKind.NEQ),
            ("!=", TokenKind.NEQ),
            ("<", TokenKind.LT),
            ("<=", TokenKind.LTE),
            (">", TokenKind.GT),
            (">=", TokenKind.GTE),
            ("+", TokenKind.PLUS),
            ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR),
            ("/", TokenKind.SLASH),
            ("%", TokenKind.PERCENT),
            ("||", TokenKind.CONCAT),
            (",", TokenKind.COMMA),
            (";", TokenKind.SEMICOLON),
            ("(", TokenKind.LPAREN),
            (")", TokenKind.RPAREN),
            (".", TokenKind.DOT),
        ],
    )
    def test_operator(self, source, kind):
        assert tokenize(source)[0].kind is kind

    def test_adjacent_operators(self):
        tokens = tokenize("a<=b")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.IDENTIFIER, TokenKind.LTE, TokenKind.IDENTIFIER,
        ]

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("select @")
        assert "@" in str(excinfo.value)


class TestComments:
    def test_line_comment(self):
        tokens = tokenize("select -- a comment\n x")
        assert values("select -- comment\n x") == ["SELECT", "x"]
        assert len(tokens) == 3  # select, x, EOF

    def test_line_comment_at_end(self):
        assert values("select x -- trailing") == ["SELECT", "x"]

    def test_block_comment(self):
        assert values("select /* hi */ x") == ["SELECT", "x"]

    def test_multiline_block_comment(self):
        assert values("select /* line1\nline2 */ x") == ["SELECT", "x"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("select /* oops")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("select\n  name")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_position_offsets(self):
        tokens = tokenize("ab cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3


class TestRealisticStatements:
    def test_example_31_tokens(self):
        source = (
            "create rule r when deleted from dept "
            "then delete from emp where dept_no in "
            "(select dept_no from deleted dept)"
        )
        tokens = tokenize(source)
        assert tokens[-1].kind is TokenKind.EOF
        keyword_values = [
            t.value for t in tokens if t.kind is TokenKind.KEYWORD
        ]
        assert "CREATE" in keyword_values
        assert "DELETED" in keyword_values
        assert keyword_values.count("DELETE") == 1

    def test_transition_table_keywords(self):
        keyword_values = [
            t.value
            for t in tokenize("old updated new inserted deleted selected")
            if t.kind is TokenKind.KEYWORD
        ]
        assert keyword_values == [
            "OLD", "UPDATED", "NEW", "INSERTED", "DELETED", "SELECTED",
        ]
