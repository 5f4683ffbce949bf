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

from ..errors import LexError
from .tokens import KEYWORDS, Token, TokenKind

_MASTER = re.compile(
    r"""
    (?: [ \t\r\n]+ | --[^\n]* | /\*.*?\*/ )*
    (?: (?P<op>     [-,;()*+%=] | <> | != | <= | >= | [<>] | \|\| | /(?!\*) | \.(?![0-9]) )
      | (?P<float>  (?: [0-9]+\.(?!\.)[0-9]* | \.[0-9]+ ) (?: [eE][+-]?[0-9]+ )?
                  | [0-9]+[eE][+-]?[0-9]+ )
      | (?P<int>    [0-9]+ )
      | (?P<word>   [^\W\d]\w* )
      | (?P<string> '[^']*(?:''[^']*)*'(?!') )
      | (?P<eof>    \Z )
      | (?P<bad>    . )
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_OP, _FLOAT, _INT, _WORD, _STRING, _EOF = (
    _MASTER.groupindex[name]
    for name in ("op", "float", "int", "word", "string", "eof")
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

    def __init__(self, source: str) -> None:
        self._source = source

    def tokenize(self) -> list[Token]:
        """Return the full token list, ending with an EOF token."""
        source = self._source
        match = _MASTER.match
        new = tuple.__new__
        operators = _OPERATORS
        tokens: list[Token] = []
        append = tokens.append
        pos = 0
        line = 1
        line_start = 0
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
            if group == _OP:
                kind, value = operators[text]
                append(new(Token, (kind, value, text, start, line, column)))
            elif group == _INT:
                append(new(Token, (TokenKind.INTEGER, int(text), text,
                                   start, line, column)))
            elif group == _FLOAT:
                append(new(Token, (TokenKind.FLOAT, float(text), text,
                                   start, line, column)))
            elif group == _WORD:
                keyword = _KEYWORD_OF.get(text.upper())
                if keyword is not None:
                    append(new(Token, (TokenKind.KEYWORD, keyword, text,
                                       start, line, column)))
                elif text[0].isalpha() or text[0] == "_":
                    append(new(Token, (TokenKind.IDENTIFIER, text.lower(),
                                       text, start, line, column)))
                else:  # a numeric character that is not an ASCII digit
                    raise self._error(start, line, column)
            elif group == _STRING:
                append(new(Token, (TokenKind.STRING,
                                   text[1:-1].replace("''", "'"), text,
                                   start, line, column)))
                newline = text.rfind("\n")
                if newline >= 0:
                    line += text.count("\n")
                    line_start = start + newline + 1
            elif group == _EOF:
                append(new(Token, (TokenKind.EOF, None, "",
                                   start, line, column)))
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
                            position, line, column)
        if source.startswith("/*", position):
            # reported where the scan for ``*/`` gave up: end of input
            end = len(source)
            last_newline = source.rfind("\n", position)
            if last_newline >= 0:
                line += source.count("\n", position)
                column = end - last_newline
            else:
                column += end - position
            return LexError("unterminated block comment", end, line, column)
        return LexError(f"unexpected character {char!r}", position, line, column)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokenize()
