"""SQL value types, coercion and comparison helpers.

The paper assumes tables with "named and typed columns" whose tuples
assign "a single value (or null) to each column". We support four SQL
types — INTEGER, FLOAT, VARCHAR, BOOLEAN — and NULL for any of them.

Three-valued logic lives in :mod:`repro.relational.expressions`; this
module provides the value-level primitives it builds on.
"""

from __future__ import annotations

from enum import Enum
from math import inf

from ..errors import TypeError_


class SqlType(Enum):
    """The supported column types."""

    INTEGER = "integer"
    FLOAT = "float"
    VARCHAR = "varchar"
    BOOLEAN = "boolean"

    @classmethod
    def from_name(cls, name):
        """Map a declared type name (``int``, ``real``, ``char``...) to a type."""
        normalized = name.strip().lower()
        alias = _TYPE_ALIASES.get(normalized)
        if alias is None:
            raise TypeError_(f"unknown column type {name!r}")
        return alias


_TYPE_ALIASES = {
    "integer": SqlType.INTEGER,
    "int": SqlType.INTEGER,
    "float": SqlType.FLOAT,
    "real": SqlType.FLOAT,
    "varchar": SqlType.VARCHAR,
    "char": SqlType.VARCHAR,
    "boolean": SqlType.BOOLEAN,
}


def coerce_value(value, sql_type, context=""):
    """Validate/coerce a Python value to ``sql_type``; NULL always passes.

    Integers are accepted for FLOAT columns (widening); FLOAT→INTEGER is
    accepted only when the value is integral (no silent truncation).
    ``bool`` is *not* accepted for numeric columns despite being an ``int``
    subclass in Python.

    Raises:
        TypeError_: when the value cannot represent the declared type.
    """
    if value is None:
        return None
    where = f" for {context}" if context else ""
    if sql_type is SqlType.INTEGER:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_(f"expected integer{where}, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise TypeError_(f"expected integer{where}, got {value!r}")
            return int(value)
        return value
    if sql_type is SqlType.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError_(f"expected float{where}, got {value!r}")
        return float(value)
    if sql_type is SqlType.VARCHAR:
        if not isinstance(value, str):
            raise TypeError_(f"expected string{where}, got {value!r}")
        return value
    if sql_type is SqlType.BOOLEAN:
        if not isinstance(value, bool):
            raise TypeError_(f"expected boolean{where}, got {value!r}")
        return value
    raise TypeError_(f"unsupported type {sql_type!r}")


#: per column type, the value classes :func:`coerce_value` returns
#: unchanged (``bool`` is its own class, so ``int`` does not admit it)
STORED_UNCHANGED = {
    SqlType.INTEGER: frozenset({int, type(None)}),
    SqlType.FLOAT: frozenset({float, type(None)}),
    SqlType.VARCHAR: frozenset({str, type(None)}),
    SqlType.BOOLEAN: frozenset({bool, type(None)}),
}


def values_comparable(left, right):
    """Return True if two non-null values may be compared with ``<``/``=``.

    Numbers compare with numbers; strings with strings; booleans with
    booleans. Cross-kind comparison is a type error (the engine raises
    rather than guessing).
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    if isinstance(left, str) and isinstance(right, str):
        return True
    return False


def compare_values(left, right):
    """Three-way comparison of two non-null values: -1, 0 or 1.

    Raises:
        TypeError_: if the values are of incomparable kinds.
    """
    if not values_comparable(left, right):
        raise TypeError_(f"cannot compare {left!r} with {right!r}")
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def sort_key(value):
    """A key usable to order heterogeneous nullable values deterministically.

    NULLs sort first; within a column all values have one comparable kind
    (enforced by the schema), so the second component is directly
    comparable. NaN sorts above every number, infinity included, as in
    PostgreSQL, so the order never depends on where a NaN was scanned.
    Used by ORDER BY and by deterministic test fixtures.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value) if value == value else (2, inf, 0)
    return (3, value)
