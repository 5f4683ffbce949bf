"""Differential test: the regex-driven production lexer against the
character-at-a-time reference scanner in ``tests/reference``.

Token soups are assembled from fragments chosen to sit on the lexical
grammar's edges — number forms that almost are one token, strings with
escapes and newlines, comments that never close, two-character
operators next to their one-character prefixes, characters that start
no token — glued with and without whitespace. Both scanners must return
identical ``(kind, value, text, position, line, column)`` lists, or
raise ``LexError`` with the same message and position.

Production folds an all-literal row list after ``VALUES`` into one
``LITERAL_ROWS`` token; it is compared after expansion
(:func:`expand_literal_rows`), so the reference's token list is also the
specification of which texts may be folded and of every position inside
them. The token's value matrix must hold what the interpreter computes
from the nodes parsed out of the expansion, to the bit (``-0.0``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.relational.database import Database
from repro.relational.expressions import Evaluator, Scope
from repro.sql import parse_statement
from repro.sql.lexer import expand_literal_rows
from repro.sql.lexer import tokenize as fold_tokenize
from repro.sql.tokens import KEYWORDS, TokenKind

from ..reference.char_lexer import tokenize as reference_tokenize


def tokenize(source):
    """Production's token list, ``LITERAL_ROWS`` tokens expanded."""
    tokens = []
    for token in fold_tokenize(source):
        if token.kind is TokenKind.LITERAL_ROWS:
            assert exact(token.value) == matrix_of_nodes(token)
            tokens.extend(expand_literal_rows(token)[:-1])
        else:
            tokens.append(token)
    return tokens


def exact(matrix):
    """Values with class and sign bit: 1 != 1.0 != True, 0.0 != -0.0."""
    return [[repr(value) for value in row] for row in matrix]


def matrix_of_nodes(token):
    """What evaluating the nodes behind a ``LITERAL_ROWS`` token gives."""
    [operation] = parse_statement(
        "insert into t values " + token.text).operations
    evaluate = Evaluator(Database(), None).evaluate
    return exact([[evaluate(node, Scope()) for node in row]
                  for row in operation.rows.nodes()])


def folded(source):
    """How many ``LITERAL_ROWS`` tokens production makes of ``source``
    (none of a text it refuses)."""
    try:
        tokens = fold_tokenize(source)
    except LexError:
        return 0
    return [token.kind for token in tokens].count(TokenKind.LITERAL_ROWS)


def outcome(scan, source):
    try:
        return [tuple(token) for token in scan(source)]
    except LexError as error:
        return (str(error), error.position, error.line, error.column)


def mixed_case(word):
    return st.lists(
        st.booleans(), min_size=len(word), max_size=len(word)
    ).map(lambda flags: "".join(
        char.upper() if flag else char.lower()
        for char, flag in zip(word, flags)
    ))


keywords = st.sampled_from(sorted(KEYWORDS)).flatmap(mixed_case)
identifiers = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    # any Unicode letter may start a word, any alphanumeric may continue
    # it; upper-casing some of them (ſ, ı) lands on a keyword
    st.text(st.characters(whitelist_categories=("L", "N")), min_size=1,
            max_size=4),
    st.sampled_from(["ſelect", "ıf", "naïve", "x²", "x٣", "größe", "_", "e5"]),
)
numbers = st.one_of(
    st.sampled_from(["1.e5", ".5", "1..2", "1e", "1e+", "1e+5", "1.", "1.5.",
                     "1.2.3", "007", "1E-3", "2.5e-3", "1e5e5", ".e5", "..",
                     "1.e", "12abc", "1_000", "²", "٣", "1²", "1٣", "½"]),
    st.from_regex(r"[0-9]{0,3}\.?[0-9]{0,3}([eE][+-]?[0-9]{0,2})?",
                  fullmatch=True),
)
strings = st.one_of(
    st.sampled_from(["''", "''''", "'''", "'it''s'", "'a\nb'", "'oops",
                     "'a''", "'--'", "'/*'", "'\n\n'"]),
    st.text(st.sampled_from(["a", "'", "\n", " ", "-", "é"]),
            max_size=5).map(lambda body: "'" + body + "'"),
)
comments = st.sampled_from([
    "-- note", "-- note\n", "--", "--\n", "/* c */", "/* a\nb */", "/**/",
    "/* never closed", "/*", "/* a\nb", "/* * / */", "/*/", "*/", "- -",
])
operators = st.sampled_from([
    "!=", "<>", "<=", ">=", "||", "<", ">", "=", "!", "|", "<<>", ">=<",
    ",", ";", "(", ")", ".", "*", "+", "-", "/", "%",
])
strays = st.one_of(
    st.sampled_from(["@", "#", "$", "?", "\\", '"', "`", "[", "{", "~", "^",
                     "&", ":", "\x0b", "\x0c", "\xa0", " ", "\x00"]),
    st.characters(),
)
glue = st.sampled_from(["", "", " ", "\n", "\t", "\r\n", "  "])
fragment = st.one_of(keywords, identifiers, numbers, strings, comments,
                     operators, strays)
soups = st.lists(st.tuples(fragment, glue), max_size=12).map(
    lambda pairs: "".join(piece + gap for piece, gap in pairs)
)

# row lists after VALUES: mostly literal, now and then one of the near
# misses that must leave the whole list to the token-by-token path
signs = st.sampled_from(["", "", "", "-", "+", "- ", "-\n"])
good_values = st.one_of(
    st.tuples(signs, st.sampled_from(
        ["0", "7", "007", "1.", ".5", "1.5", "1e5", "1.e5", "2.5e-3", "1E+3",
         "0.0"])).map("".join),
    st.sampled_from(["''", "''''", "'it''s'", "'a\nb'", "'--'", "'/*'",
                     "'(1, 2)'", "'\n\n'", "',)'"]),
    st.sampled_from(["null", "NULL", "NuLl", "true", "FALSE", "falſe"]),
)
near_values = st.one_of(
    st.tuples(st.sampled_from(["--", "- -", "+-", "-"]), numbers).map("".join),
    numbers, strings,
    st.sampled_from(["nullx", "unknown", "x", "1+1", "(1)", "-null", "",
                     "1 2", "/* c */ 1"]),
)
row_values = st.one_of(*[good_values] * 15, near_values)
good_commas = st.sampled_from([",", ", ", " , ", ",\n", "\n,\t"])
commas = st.one_of(*[good_commas] * 15, st.sampled_from(
    [" ", "", ",,", "/* c */,", ", -- c\n", ";"]))
closers = st.sampled_from([")"] * 14 + [" )", "\n)", ",)", ""])


def joined(parts, gaps):
    return "".join(part + gap for part, gap in zip(parts, [*gaps, ""]))


def separated(parts):
    """``parts`` joined by drawn commas."""
    return st.lists(
        commas, min_size=max(len(parts) - 1, 0), max_size=max(len(parts) - 1, 0)
    ).map(lambda gaps: joined(parts, gaps))


value_rows = st.tuples(
    st.lists(row_values, min_size=1, max_size=4).flatmap(separated), closers,
).map(lambda row: "(" + row[0] + row[1])
row_lists = st.tuples(
    st.sampled_from(["values", "values ", "VALUES\n", "Values  ",
                     "values/**/", "value "]),
    st.lists(value_rows, min_size=1, max_size=4).flatmap(separated),
    st.one_of(st.just(""), st.just(" x\n'y\nz' w"), commas, soups),
).map("".join)


class TestLexerAgainstReference:
    @settings(max_examples=1500, deadline=None)
    @given(soups)
    def test_token_soups(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=30))
    def test_arbitrary_text(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize("source", [
        "", " ", "\n", "a\n", "select\n  name", "a<=b", "1..2", "1.e5",
        "x /* c\n */ y\n'p\nq' z", "select /* oops", "a\n/* b\nc",
        "a /* b", "'oops", "a\n 'b\nc", "select @", "t.c", "t . *",
        "insert into t values (1, 'a''b', .5, -2e3)", "a--b\n+c", "a/b/*c*/d",
    ])
    def test_pinned_inputs(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @settings(max_examples=1500, deadline=None)
    @given(row_lists)
    def test_row_lists_after_values(self, source):
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize("source, folds", [
        ("values (1, 'a''b', .5, -2e3)", 1),
        ("values (1., .5, 1e5, 1.e5, 007, -0.0, - 5, +5, -1e3)", 1),
        ("values ('it''s', '', '--', '/*', ',)', '(1, 2), (3')", 1),
        ("values (null, NuLl, TRUE, false), (1, 2, 3, 4)", 1),
        ("values (1, 2) , ( 3 , 4 )\n,\n(5,6)", 1),
        ("values (1, 2) (3, 4)", 1),        # the parser's error, not ours
        ("values (1), (2); select 'x' from t where a = 'values (3)'", 1),
        ("values (1, 2), (3, 4); insert into u values ('a'), ('b')", 2),
        ("values ('a\nb', 1),\n('\n\n', 2)\n  , ('c', 3) x\n'y\nz' w", 1),
        ("values (1..2)", 0), ("values (12abc)", 0), ("values (1e)", 0),
        ("values (nullx)", 0), ("values (-null)", 0), ("values (x)", 0),
        ("values (unknown)", 0), ("values (- -5)", 0), ("values (--5)", 0),
        ("values (1 2)", 0), ("values (1,)", 0), ("values ()", 0),
        ("values (1, 2),", 0), ("values (1, 2), (3, 4),", 0),
        ("values (1, 2), (3, 1 + 1)", 0), ("values (1, 2), (3, (select 1))", 0),
        ("values (1, 2) -- c\n, (3, 4)", 0), ("values (1, 2), /* c */ (3, 4)", 0),
        ("values (1, /* c */ 2)", 0), ("values (1, 2", 0), ("values ('oops)", 0),
        ("values (\u00b2)", 0), ("values (1\xa0)", 0), ("value (1, 2)", 0),
    ])
    def test_row_list_edges(self, source, folds):
        assert folded(source) == folds
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize("rows", [1, 2, 2000])
    def test_one_row_to_two_thousand(self, rows):
        source = "insert into t values " + ",\n".join(
            f"({n}, 'r''{n}\n', {n}.5, -{n}e-2, null)" for n in range(rows)
        ) + ";\nselect *\n  from t"
        tokens = fold_tokenize(source)
        assert folded(source) == 1 and len(tokens) == 11
        assert len(tokens[4].value) == rows
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    @pytest.mark.parametrize("rows", [63, 64, 65, 128, 129, 200])
    @pytest.mark.parametrize("spoiler", [None, "(1, 1 + 1)", "(x)", "7"])
    def test_stretches_of_sixty_four_rows(self, rows, spoiler):
        """The list is recognised 64 rows at a time: a near miss is one
        wherever it sits relative to a stretch's edge."""
        for at in ((None,) if spoiler is None else (0, rows - 2, rows - 1)):
            parts = [f"({n}, 'r')" for n in range(rows)]
            if at is not None:
                parts[at] = spoiler
            source = "values " + " , ".join(parts) + " x"
            assert folded(source) == (1 if spoiler is None else 0)
            assert outcome(tokenize, source) == \
                outcome(reference_tokenize, source)
