"""Statement templates: parameters bound back to literals.

The statement cache (:mod:`repro.relational.plan.cache`) keeps one AST
per statement *shape*, parsed with the literals
:func:`repro.sql.lexer.normalise` drops from the cache key as
:class:`~repro.sql.ast.Param` leaves (``parse_statement(text, params)``);
every text of the shape brings only its own parameter vector.
:func:`bind` puts a vector's values back, for whatever must show a
statement as it was written (EXPLAIN, error messages);
:func:`constant` reads one.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..records import Record, replace
from . import ast


def bind(node: Any, params: Sequence[Any]) -> Any:
    """``node`` with every parameter below it replaced by the literal
    ``params`` binds it to (a value matrix by rows of literals).
    Subtrees without one are shared with ``node``, not copied; rebuilt
    nodes carry no span."""
    if not params:
        return node
    if type(node) is ast.Param:
        value = params[node.index]
        if node.kind == "r":
            return tuple(
                tuple(ast.Literal(item) for item in row) for row in value
            )
        return ast.Literal(value)
    if type(node) is tuple:
        items = tuple(bind(item, params) for item in node)
        if all(new is old for new, old in zip(items, node)):
            return node
        return items
    if not isinstance(node, Record):
        return node  # names, flags, LIMIT's count
    changes = {}
    for name in node._fields:
        old = getattr(node, name)
        new = bind(old, params)
        if new is not old:
            changes[name] = new
    return replace(node, **changes) if changes else node


def constant(operand: Any, params: Sequence[Any]) -> Any:
    """The value of a literal or of a parameter bound by ``params``."""
    if type(operand) is ast.Literal:
        return operand.value
    return params[operand.index]
