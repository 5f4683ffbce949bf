"""Reference scanner: the character-at-a-time tokenizer the repo shipped
until the regex-driven :mod:`repro.sql.lexer` replaced it.

Test-only. ``tests/property/test_lexer_differential.py`` holds the
production lexer to this one, token for token and error for error. It
is the seed's scanner verbatim with one deliberate change, the bug fix
that rode along with the replacement: a digit is ASCII ``0``-``9``
(:func:`_is_digit`), where the seed asked ``str.isdigit`` and so crashed
with a raw ``ValueError`` on ``²`` and read ``٣`` as 3.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.sql.tokens import KEYWORDS, Token, TokenKind


def _is_digit(char: str) -> bool:
    return "0" <= char <= "9"

_SINGLE_CHAR = {
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ".": TokenKind.DOT,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "=": TokenKind.EQ,
}


class Lexer:
    """Tokenizes SQL text into a list of :class:`Token`.

    Usage::

        tokens = Lexer("select * from emp").tokenize()
    """

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Return the full token list, ending with an EOF token."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------
    # scanning machinery

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos < len(self._source):
                if self._source[self._pos] == "\n":
                    self._line += 1
                    self._column = 1
                else:
                    self._column += 1
                self._pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "-" and self._peek(1) == "-":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError(
                        "unterminated block comment",
                        self._pos, self._line, self._column,
                    )
            else:
                return

    def _make(self, kind: TokenKind, value: object, text: str,
              position: int, line: int, column: int) -> Token:
        return Token(kind, value, text, position, line, column)

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        position, line, column = self._pos, self._line, self._column
        if self._pos >= len(self._source):
            return self._make(TokenKind.EOF, None, "", position, line, column)

        char = self._peek()

        if char.isalpha() or char == "_":
            return self._lex_word(position, line, column)
        if _is_digit(char) or (char == "." and _is_digit(self._peek(1))):
            return self._lex_number(position, line, column)
        if char == "'":
            return self._lex_string(position, line, column)

        # multi-character operators
        two = char + self._peek(1)
        if two == "<>" or two == "!=":
            self._advance(2)
            return self._make(TokenKind.NEQ, "<>", two, position, line, column)
        if two == "<=":
            self._advance(2)
            return self._make(TokenKind.LTE, "<=", two, position, line, column)
        if two == ">=":
            self._advance(2)
            return self._make(TokenKind.GTE, ">=", two, position, line, column)
        if two == "||":
            self._advance(2)
            return self._make(TokenKind.CONCAT, "||", two, position, line, column)
        if char == "<":
            self._advance()
            return self._make(TokenKind.LT, "<", char, position, line, column)
        if char == ">":
            self._advance()
            return self._make(TokenKind.GT, ">", char, position, line, column)

        kind = _SINGLE_CHAR.get(char)
        if kind is not None:
            self._advance()
            return self._make(kind, char, char, position, line, column)

        raise LexError(f"unexpected character {char!r}", position, line, column)

    def _lex_word(self, position: int, line: int, column: int) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[start:self._pos]
        upper = text.upper()
        if upper in KEYWORDS:
            return self._make(TokenKind.KEYWORD, upper, text, position, line, column)
        return self._make(
            TokenKind.IDENTIFIER, text.lower(), text, position, line, column
        )

    def _lex_number(self, position: int, line: int, column: int) -> Token:
        start = self._pos
        is_float = False
        while _is_digit(self._peek()):
            self._advance()
        if self._peek() == "." and self._peek(1) != ".":
            is_float = True
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
        if self._peek() in "eE" and (
            _is_digit(self._peek(1))
            or (self._peek(1) in "+-" and _is_digit(self._peek(2)))
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while _is_digit(self._peek()):
                self._advance()
        text = self._source[start:self._pos]
        if is_float:
            return self._make(
                TokenKind.FLOAT, float(text), text, position, line, column
            )
        return self._make(TokenKind.INTEGER, int(text), text, position, line, column)

    def _lex_string(self, position: int, line: int, column: int) -> Token:
        self._advance()  # opening quote
        pieces: list[str] = []
        while True:
            if self._pos >= len(self._source):
                raise LexError("unterminated string literal", position, line, column)
            char = self._peek()
            if char == "'":
                if self._peek(1) == "'":  # escaped quote
                    pieces.append("'")
                    self._advance(2)
                else:
                    self._advance()
                    break
            else:
                pieces.append(char)
                self._advance()
        value = "".join(pieces)
        text = self._source[position:self._pos]
        return self._make(TokenKind.STRING, value, text, position, line, column)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokenize()
