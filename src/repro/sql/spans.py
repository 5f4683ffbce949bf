"""Source spans: where an AST node came from in the original SQL text.

The lexer already tracks ``line``/``column``/``position`` per token; this
module threads that information onto AST nodes so diagnostics (parse
errors, lint findings) can point at ``line:col`` in the ``create rule``
text the user actually wrote.

Spans are attached *out of band*: AST nodes are frozen records
(:class:`~repro.records.Record`) whose equality and hashing are
structural (two parses of the same text compare equal), and a span must
never change that — ``parse(format(parse(x)))`` has different spans but
equal ASTs. So the span is an instance attribute under a private name
that is no field, written with ``object.__setattr__`` (the one way past
a frozen record's ``__setattr__``), and is read back with
:func:`span_of`.

Nodes built by hand (tests, the constraint compiler) simply have no
span; every consumer treats ``span_of(node) is None`` as "location
unknown".
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..records import Record
from .ast import LiteralRows

_SPAN_ATTR = "_source_span"


class Span(Record):
    """A half-open region of source text.

    ``line``/``column`` are one-based and point at the first character;
    ``end_line``/``end_column`` point one past the last character.
    ``offset``/``end_offset`` are the matching zero-based character
    offsets, so ``source[offset:end_offset]`` is the spanned text.
    """

    line: int
    column: int
    end_line: int
    end_column: int
    offset: int = 0
    end_offset: int = 0

    @property
    def location(self) -> str:
        """The conventional ``line:col`` rendering of the span start."""
        return f"{self.line}:{self.column}"

    def slice(self, source: str) -> str:
        """The spanned region of ``source``."""
        return source[self.offset:self.end_offset]

    def covers(self, other: "Span") -> bool:
        """Does this span fully contain ``other``?"""
        return (
            self.offset <= other.offset
            and other.end_offset <= self.end_offset
        )

    def __str__(self) -> str:
        return self.location


def token_end(token: Any) -> tuple[int, int, int]:
    """The (line, column, offset) just past a token's raw text.

    Only a string literal can contain newlines; for one that does, the
    end line/column are found by scanning its text.
    """
    text = token.text or ""
    if "\n" in text:
        tail = len(text) - text.rfind("\n") - 1
        return (token.line + text.count("\n"), tail + 1,
                token.position + len(text))
    return token.line, token.column + len(text), token.position + len(text)


def span_between(start_token: Any, end_token: Any) -> Span:
    """The span from the start of one token to the end of another."""
    end_line, end_column, end_offset = token_end(end_token)
    return Span(start_token.line, start_token.column, end_line, end_column,
                start_token.position, end_offset)


def set_span(node: Any, span: Optional[Span]) -> Any:
    """Attach ``span`` to ``node`` (returns the node for chaining).

    A no-op for nodes that cannot carry attributes (no AST node is
    slotted, so in practice every node accepts one).
    """
    if span is not None:
        try:
            object.__setattr__(node, _SPAN_ATTR, span)
        except AttributeError:  # pragma: no cover - slotted foreign object
            pass
    return node


def span_of(node: Any) -> Optional[Span]:
    """The span attached to ``node``, or None when location is unknown."""
    return getattr(node, _SPAN_ATTR, None)


def walk(node: Any) -> Iterator[Any]:
    """Yield ``node`` and every AST node nested anywhere inside it.

    Generic structural traversal: descends into record fields and
    tuple/list containers, yielding each record found (expressions,
    table references, operations, statements, predicates, select items —
    everything the parser constructs). Used by span integrity checks and
    by lint passes that need the full node set.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        if isinstance(current, (tuple, list, LiteralRows)):
            stack.extend(current)
            continue
        if isinstance(current, Record):
            yield current
            stack.extend(current._key(current))
