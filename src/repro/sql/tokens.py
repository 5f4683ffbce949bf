"""Token kinds and the Token value object for the SQL lexer.

The token vocabulary covers the SQL subset defined in Section 2.1 of the
paper (insert/delete/update/select operation blocks), the rule-definition
DDL of Section 3, and the Section 5 extensions (``selected`` transition
predicates, rule triggering points).
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Any, NamedTuple


class TokenKind(Enum):
    """Lexical categories produced by :class:`repro.sql.lexer.Lexer`."""

    IDENTIFIER = auto()
    KEYWORD = auto()
    INTEGER = auto()
    FLOAT = auto()
    STRING = auto()
    #: the whole row list after VALUES, when every value is a literal
    LITERAL_ROWS = auto()

    COMMA = auto()
    SEMICOLON = auto()
    LPAREN = auto()
    RPAREN = auto()
    DOT = auto()
    STAR = auto()

    PLUS = auto()
    MINUS = auto()
    SLASH = auto()
    PERCENT = auto()
    CONCAT = auto()  # ||

    EQ = auto()      # =
    NEQ = auto()     # <> or !=
    LT = auto()
    LTE = auto()
    GT = auto()
    GTE = auto()

    EOF = auto()


#: Reserved words. Matched case-insensitively; stored upper-case in tokens.
KEYWORDS = frozenset({
    # data manipulation (paper §2.1)
    "INSERT", "INTO", "VALUES", "DELETE", "FROM", "UPDATE", "SET",
    "SELECT", "WHERE", "AS", "DISTINCT", "ALL",
    "GROUP", "BY", "HAVING", "ORDER", "ASC", "DESC", "LIMIT",
    "UNION",
    # predicates and logic
    "AND", "OR", "NOT", "IS", "NULL", "IN", "EXISTS", "BETWEEN", "LIKE",
    "TRUE", "FALSE", "UNKNOWN", "ANY", "SOME", "EVERY",
    "CASE", "WHEN", "THEN", "ELSE", "END",
    # DDL
    "CREATE", "DROP", "TABLE", "RULE", "PRIORITY", "BEFORE",
    "INDEX", "ON",
    "INTEGER", "INT", "FLOAT", "REAL", "VARCHAR", "CHAR", "BOOLEAN",
    # rule definition (paper §3)
    "IF", "ROLLBACK",
    "INSERTED", "DELETED", "UPDATED", "OLD", "NEW",
    # §5.1 extension: triggering on retrieval
    "SELECTED",
    # §5.3 extension: user-defined rule triggering points
    "ASSERT", "RULES",
    # observability: render a select's logical plan
    "EXPLAIN",
})


#: the keywords that are literals, and their values
KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}


class Token(NamedTuple):
    """A single lexical token (immutable; tuple-backed so the lexer can
    build one without a per-field ``__setattr__``).

    Attributes:
        kind: the :class:`TokenKind` category.
        value: normalized text — keywords upper-cased, identifiers
            lower-cased, string literals unquoted, numbers as Python
            ``int``/``float``; for ``LITERAL_ROWS`` the value matrix, a
            tuple of rows, each a tuple of Python values.
        text: the raw source text of the token.
        position: zero-based character offset in the source.
        line: one-based source line.
        column: one-based source column.
    """

    kind: TokenKind
    value: Any
    text: str
    position: int = 0
    line: int = 1
    column: int = 1

    def is_keyword(self, *names: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in names

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r})"
