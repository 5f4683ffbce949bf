"""Tokenizer for the paper's SQL dialect: one master regular expression.

The lexical grammar (``docs/sql-reference.md``, "Lexical grammar") is the
alternation in :data:`_MASTER`, tried at each position in this order:

* skipped text: runs of ``[ \\t\\r\\n]``, ``-- line`` comments and
  ``/* block */`` comments, matched as a prefix of the token after them;
* words: a letter or ``_`` followed by Unicode alphanumerics or ``_``;
  case-insensitive keywords, identifiers folded to lower case;
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
from typing import Any, Optional

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
    (?: (?P<op>     [-,;()*+%=] | <> | != | <= | >= | [<>] | \|\| | /(?!\*) | \.(?![0-9]) )
      | (?P<float>  {_FLOAT} )
      | (?P<int>    {_INT} )
      | (?P<word>   {_WORD} )
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
#: strings and words, with nothing but blanks and commas between them.
#: A pure recogniser — whatever it does not match (an expression, a
#: comment, a malformed row) is lexed token by token as anywhere else.
_VALUE = rf"(?:(?:[-+]{_SPACE}*)?(?:{_FLOAT}|{_INT})|{_STRING}|{_WORD})"
_ROW = rf"\({_SPACE}*{_VALUE}(?:{_SPACE}*,{_SPACE}*{_VALUE})*{_SPACE}*\)"
_LITERAL_ROWS = re.compile(rf"{_ROW}(?:{_SPACE}*,{_SPACE}*{_ROW})*")
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
                        rows = self._literal_rows(end, line, line_start)
                        if rows is not None:
                            token, end, line, line_start = rows
                            append(token)
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

    def _literal_rows(self, pos: int, line: int, line_start: int,
                      ) -> Optional[tuple[Token, int, int, int]]:
        """The row list that follows the VALUES keyword ending at
        ``pos``, as one ``LITERAL_ROWS`` token — when every value of
        every row is a literal. Returns ``(token, end, line,
        line_start)`` past the list, or None to lex it token by token.
        """
        source = self._source
        ahead = _MASTER.match(source, pos)
        assert ahead is not None and ahead.lastindex is not None
        start = ahead.start(ahead.lastindex)
        rows = _LITERAL_ROWS.match(source, start)
        if rows is None:
            return None
        end = rows.end()
        ahead = _MASTER.match(source, end)
        assert ahead is not None and ahead.lastindex is not None
        if ahead.lastindex == _OP and ahead.group(_OP) == ",":
            return None  # one more row, and it is not all literals
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
                keyword = word.upper()
                if keyword not in KEYWORD_LITERALS:
                    return None  # an identifier or some other keyword
                row.append(KEYWORD_LITERALS[keyword])
            else:  # the row's closing parenthesis
                matrix.append(tuple(row))
                row = []
        line, line_start = _past_newlines(source, pos, start, line, line_start)
        token = Token(TokenKind.LITERAL_ROWS, tuple(matrix), source[start:end],
                      start + self._offset, line, start - line_start + 1)
        line, line_start = _past_newlines(source, start, end, line, line_start)
        return token, end, line, line_start

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


def expand_literal_rows(token: Token) -> list[Token]:
    """The tokens a ``LITERAL_ROWS`` token stands for — parentheses,
    commas, signs and literals with the positions, lines and columns
    they have in the text the token came from — and a closing EOF."""
    return Lexer(token.text, token.position, token.line,
                 token.column).tokenize()
