"""Differential test: the regex-driven production lexer against the
character-at-a-time reference scanner in ``tests/reference``.

Token soups are assembled from fragments chosen to sit on the lexical
grammar's edges — number forms that almost are one token, strings with
escapes and newlines, comments that never close, two-character
operators next to their one-character prefixes, characters that start
no token — glued with and without whitespace. Both scanners must return
identical ``(kind, value, text, position, line, column)`` lists, or
raise ``LexError`` with the same message and position.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.sql.lexer import tokenize
from repro.sql.tokens import KEYWORDS

from ..reference.char_lexer import tokenize as reference_tokenize


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
