"""Tokenizer for the paper's SQL dialect: one master regular expression.

The lexical grammar (``docs/sql-reference.md``, "Lexical grammar") is the
alternation in :data:`_MASTER`, tried at each position in this order:

* skipped text: runs of ``[ \\t\\r\\n]``, ``-- line`` comments and
  ``/* block */`` comments, matched as a prefix of the token after them;
* words: a letter or ``_`` followed by Unicode alphanumerics or ``_``;
  case-insensitive keywords, identifiers folded to lower case (tried
  first, being the most frequent: nothing else can match where a word
  does, so their place in the order decides nothing);
* numbers: ASCII digits only — ``42``, ``0.95``, ``1.``, ``.5``,
  ``1e6``, ``2.5e-3`` (an exponent needs its digits, and ``1..2`` is
  ``1`` ``.`` ``.2``);
* single-quoted strings with ``''`` escaping, newlines allowed;
* the operators and punctuation listed in :mod:`repro.sql.tokens`.

Line and column come from a running line-start offset, which moves only
when skipped text or a string literal contains a newline.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple, Optional

from ..errors import LexError
from .tokens import KEYWORD_LITERALS, KEYWORDS, Token, TokenKind

_SPACE = r"[ \t\r\n]"
_FLOAT = (r"(?:[0-9]+\.(?!\.)[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
          r"|[0-9]+[eE][+-]?[0-9]+")
_INT = r"[0-9]+"
_WORD = r"[^\W\d]\w*"
_STRING = r"'[^']*(?:''[^']*)*'(?!')"

_MASTER = re.compile(
    rf"""
    (?: {_SPACE}+ | --[^\n]* | /\*.*?\*/ )*
    (?: (?P<word>   {_WORD} )
      | (?P<op>     [-,;()*+%=] | <> | != | <= | >= | [<>] | \|\| | /(?!\*) | \.(?![0-9]) )
      | (?P<float>  {_FLOAT} )
      | (?P<int>    {_INT} )
      | (?P<string> {_STRING} )
      | (?P<eof>    \Z )
      | (?P<bad>    . )
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_OP, _FLOAT_GROUP, _INT_GROUP, _WORD_GROUP, _STRING_GROUP, _EOF = (
    _MASTER.groupindex[name]
    for name in ("op", "float", "int", "word", "string", "eof")
)

#: A literal row list, ``(v, ...), (v, ...), ...``: values are the
#: master expression's own numbers (one sign allowed, blanks after it),
#: strings and the keyword literals, with nothing but blanks and commas
#: between them. A pure recogniser — whatever it does not match (an
#: expression, a comment, a malformed row) is lexed token by token as
#: anywhere else.
_KEYWORD_LITERAL = rf"(?i:{'|'.join(KEYWORD_LITERALS)})(?!\w)"
_VALUE = (rf"(?:(?:[-+]{_SPACE}*)?(?:{_FLOAT}|{_INT})|{_STRING}"
          rf"|{_KEYWORD_LITERAL})")
_ROW = rf"\({_SPACE}*{_VALUE}(?:{_SPACE}*,{_SPACE}*{_VALUE})*{_SPACE}*\)"
#: up to 64 rows, and the comma after them when another ``(`` follows:
#: the list is walked a stretch at a time, because the matcher keeps a
#: backtracking record per repetition — megabytes for one expression
#: over a whole bulk load
_NEXT_ROW = rf"{_SPACE}*,{_SPACE}*(?=\()"
_ROWS_THEN_COMMA = re.compile(
    rf"(?:{_ROW}{_NEXT_ROW}){{0,63}}{_ROW}({_NEXT_ROW})?"
)
#: the pieces of a matched row list, in order: one value or one ``)``
_ROW_PIECE = re.compile(
    rf"([-+]?){_SPACE}*(?:({_FLOAT})|({_INT}))|({_STRING})|({_WORD})|\)"
)

#: operator text -> (kind, normalized value)
_OPERATORS: dict[str, tuple[TokenKind, str]] = {
    ",": (TokenKind.COMMA, ","), ";": (TokenKind.SEMICOLON, ";"),
    "(": (TokenKind.LPAREN, "("), ")": (TokenKind.RPAREN, ")"),
    ".": (TokenKind.DOT, "."), "*": (TokenKind.STAR, "*"),
    "+": (TokenKind.PLUS, "+"), "-": (TokenKind.MINUS, "-"),
    "/": (TokenKind.SLASH, "/"), "%": (TokenKind.PERCENT, "%"),
    "||": (TokenKind.CONCAT, "||"), "=": (TokenKind.EQ, "="),
    "<>": (TokenKind.NEQ, "<>"), "!=": (TokenKind.NEQ, "<>"),
    "<": (TokenKind.LT, "<"), "<=": (TokenKind.LTE, "<="),
    ">": (TokenKind.GT, ">"), ">=": (TokenKind.GTE, ">="),
}

#: upper-cased word -> the one keyword string every such token shares
_KEYWORD_OF = {keyword: keyword for keyword in KEYWORDS}


class Lexer:
    """Tokenizes SQL text into a list of :class:`Token`.

    Usage::

        tokens = Lexer("select * from emp").tokenize()
    """

    def __init__(self, source: str, position: int = 0, line: int = 1,
                 column: int = 1) -> None:
        """``position``, ``line`` and ``column`` say where ``source``
        starts inside a larger text (see :func:`expand_literal_rows`)."""
        self._source = source
        self._offset = position
        self._line = line
        self._line_start = 1 - column

    def tokenize(self) -> list[Token]:
        """Return the full token list, ending with an EOF token."""
        source = self._source
        match = _MASTER.match
        new = tuple.__new__
        operators = _OPERATORS
        tokens: list[Token] = []
        append = tokens.append
        offset = self._offset
        pos = 0
        line = self._line
        line_start = self._line_start
        while True:
            found = match(source, pos)
            # the eof and bad alternatives make some group match anywhere
            assert found is not None and found.lastindex is not None
            group = found.lastindex
            start, end = found.span(group)
            if start != pos:
                newline = source.rfind("\n", pos, start)
                if newline >= 0:
                    line += source.count("\n", pos, start)
                    line_start = newline + 1
            text = source[start:end]
            column = start - line_start + 1
            position = start + offset
            if group == _OP:
                kind, value = operators[text]
                append(new(Token, (kind, value, text, position, line, column)))
            elif group == _INT_GROUP:
                append(new(Token, (TokenKind.INTEGER, int(text), text,
                                   position, line, column)))
            elif group == _FLOAT_GROUP:
                append(new(Token, (TokenKind.FLOAT, float(text), text,
                                   position, line, column)))
            elif group == _WORD_GROUP:
                keyword = _KEYWORD_OF.get(text.upper())
                if keyword is not None:
                    append(new(Token, (TokenKind.KEYWORD, keyword, text,
                                       position, line, column)))
                    if keyword == "VALUES":
                        rows = literal_rows_span(source, end)
                        if rows is not None:
                            first, last = rows
                            line, line_start = _past_newlines(
                                source, end, first, line, line_start)
                            append(Token(
                                TokenKind.LITERAL_ROWS,
                                literal_rows_matrix(source, first, last),
                                source[first:last], first + offset, line,
                                first - line_start + 1))
                            line, line_start = _past_newlines(
                                source, first, last, line, line_start)
                            end = last
                elif text[0].isalpha() or text[0] == "_":
                    append(new(Token, (TokenKind.IDENTIFIER, text.lower(),
                                       text, position, line, column)))
                else:  # a numeric character that is not an ASCII digit
                    raise self._error(start, line, column)
            elif group == _STRING_GROUP:
                append(new(Token, (TokenKind.STRING,
                                   text[1:-1].replace("''", "'"), text,
                                   position, line, column)))
                newline = text.rfind("\n")
                if newline >= 0:
                    line += text.count("\n")
                    line_start = start + newline + 1
            elif group == _EOF:
                append(new(Token, (TokenKind.EOF, None, "",
                                   position, line, column)))
                return tokens
            else:
                raise self._error(start, line, column)
            pos = end

    def _error(self, position: int, line: int, column: int) -> LexError:
        """The error for the character at ``position``, where no token
        starts."""
        source = self._source
        char = source[position]
        if char == "'":
            return LexError("unterminated string literal",
                            position + self._offset, line, column)
        if source.startswith("/*", position):
            # reported where the scan for ``*/`` gave up: end of input
            end = len(source)
            last_newline = source.rfind("\n", position)
            if last_newline >= 0:
                line += source.count("\n", position)
                column = end - last_newline
            else:
                column += end - position
            return LexError("unterminated block comment",
                            end + self._offset, line, column)
        return LexError(f"unexpected character {char!r}",
                        position + self._offset, line, column)


def literal_rows_span(source: str, pos: int) -> Optional[tuple[int, int]]:
    """Where the row list that follows a VALUES keyword ending at
    ``pos`` starts and ends — when every value of every row is a
    literal; None to lex it token by token."""
    ahead = _MASTER.match(source, pos)
    assert ahead is not None and ahead.lastindex is not None
    start = end = ahead.start(ahead.lastindex)
    while True:
        rows = _ROWS_THEN_COMMA.match(source, end)
        if rows is None:
            return None  # the row here is not all literals
        end = rows.end()
        if rows.lastindex is None:
            break
    ahead = _MASTER.match(source, end)
    assert ahead is not None and ahead.lastindex is not None
    if ahead.lastindex == _OP and ahead.group(_OP) == ",":
        return None  # one more row, and it is not all literals
    return start, end


def literal_rows_matrix(source: str, start: int,
                        end: int) -> tuple[tuple[Any, ...], ...]:
    """The value matrix of the literal row list ``source[start:end]``
    (a span :func:`literal_rows_span` returned)."""
    matrix: list[tuple[Any, ...]] = []
    row: list[Any] = []
    for sign, real, whole, string, word in _ROW_PIECE.findall(
            source, start, end):
        if whole:
            row.append(-int(whole) if sign == "-" else int(whole))
        elif real:
            row.append(-float(real) if sign == "-" else float(real))
        elif string:
            row.append(string[1:-1].replace("''", "'"))
        elif word:
            row.append(KEYWORD_LITERALS[word.upper()])
        else:  # the row's closing parenthesis
            matrix.append(tuple(row))
            row = []
    return tuple(matrix)


def _past_newlines(source: str, start: int, end: int, line: int,
                   line_start: int) -> tuple[int, int]:
    """``(line, line_start)`` after the newlines of ``source[start:end]``."""
    newline = source.rfind("\n", start, end)
    if newline < 0:
        return line, line_start
    return line + source.count("\n", start, end), newline + 1


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokenize()


#: the statements worth a cache entry: the data manipulation a client
#: repeats with other literals (DDL and rule definitions run once)
_NORMALISED = frozenset({"select", "insert", "update", "delete"})


class Normalised(NamedTuple):
    """What :func:`normalise` makes of one statement's text."""

    #: the tokens with case, blanks and comments gone and every lifted
    #: literal replaced by ``?`` and its kind — equal keys parse to
    #: ASTs that differ in the lifted literals' values only
    key: str
    #: the lifted literals' values, in source order
    params: list[Any]
    #: ``(index, start, end)`` per all-literal VALUES list: ``params[index]``
    #: stands for :func:`literal_rows_matrix` of that span of the text
    rows: list[tuple[int, int, int]]
    #: the statement was prefixed with EXPLAIN (not part of the key)
    explain: bool


def normalise(source: str) -> Optional[Normalised]:
    """The cache key and parameter vector of a select, insert, update or
    delete statement (or block of them); None for any other text,
    malformed text included.

    One scan with the lexer's own expression, so token boundaries are
    the lexer's. Number and string literals are lifted to parameters of
    kind ``n`` / ``s`` (what ``plan.cost.expression_kind`` says of them)
    and an all-literal VALUES list to one of kind ``r``; what stays in
    the key verbatim is what parsing or a compile-time proof reads the
    *value* of: LIMIT's count and a number that directly divides
    (``x / 2``, ``x % (2)`` — non-zero, and whether it is an integer).
    ``null``, ``true`` and ``false`` are words like any other.
    """
    match = _MASTER.match
    parts: list[str] = []
    params: list[Any] = []
    rows: list[tuple[int, int, int]] = []
    explain = False
    verbatim = False  # is a number here LIMIT's count or a divisor?
    pos = 0
    while True:
        found = match(source, pos)
        assert found is not None and found.lastindex is not None
        group = found.lastindex
        pos = found.end()
        if group == _WORD_GROUP:
            word = found.group(group).lower()
            if not parts and word not in _NORMALISED:
                if word == "explain" and not explain:
                    explain = True
                    continue
                return None
            parts.append(word)
            verbatim = word == "limit"
            if word == "values":
                span = literal_rows_span(source, pos)
                if span is not None:
                    rows.append((len(params), span[0], span[1]))
                    params.append(None)
                    parts.append("?r")
                    pos = span[1]
        elif not parts:
            return None  # a statement starts with a word
        elif group == _OP:
            text = found.group(group)
            parts.append(text)
            verbatim = text == "/" or text == "%" or (verbatim and text == "(")
        elif group == _INT_GROUP or group == _FLOAT_GROUP:
            text = found.group(group)
            if verbatim:
                parts.append(text)
                verbatim = False
            else:
                parts.append("?n")
                params.append(
                    int(text) if group == _INT_GROUP else float(text))
        elif group == _STRING_GROUP:
            parts.append("?s")
            params.append(found.group(group)[1:-1].replace("''", "'"))
            verbatim = False
        elif group == _EOF:
            return Normalised(" ".join(parts), params, rows, explain)
        else:
            return None


def expand_literal_rows(token: Token) -> list[Token]:
    """The tokens a ``LITERAL_ROWS`` token stands for — parentheses,
    commas, signs and literals with the positions, lines and columns
    they have in the text the token came from — and a closing EOF."""
    return Lexer(token.text, token.position, token.line,
                 token.column).tokenize()
