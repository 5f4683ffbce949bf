"""Schema objects: columns, table schemas and the catalog.

The paper assumes "a set of named tables ... each having a fixed set of
named and typed columns" (Section 2). The catalog holds table schemas;
the actual tuple storage lives in :mod:`repro.relational.table`.
"""

from __future__ import annotations

from ..errors import CatalogError
from ..records import Record
from .types import STORED_UNCHANGED, SqlType, coerce_value


class Column(Record):
    """A named, typed column."""

    name: str
    sql_type: SqlType

    def coerce(self, value, table_name=""):
        """Validate a value against this column's type."""
        context = f"column {table_name}.{self.name}" if table_name else (
            f"column {self.name}"
        )
        return coerce_value(value, self.sql_type, context)

    def coerce_vector(self, values, table_name=""):
        """:meth:`coerce` over a whole vector of values. A vector whose
        value classes the type stores unchanged is returned as it is;
        anything else is coerced value by value, so the first bad value
        of the vector raises what :meth:`coerce` raises for it."""
        if STORED_UNCHANGED[self.sql_type].issuperset(map(type, values)):
            return values
        return [self.coerce(value, table_name) for value in values]


class TableSchema:
    """The fixed column layout of one table.

    Provides name→position lookup used throughout evaluation; rows are
    stored as plain tuples aligned with ``columns``.
    """

    def __init__(self, name, columns):
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        seen = set()
        for column in columns:
            if column.name in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            seen.add(column.name)
        self.name = name
        self.columns = tuple(columns)
        self.column_names = tuple(column.name for column in self.columns)
        self.arity = len(self.columns)
        self._index = {column.name: i for i, column in enumerate(self.columns)}

    def has_column(self, name):
        return name in self._index

    def column_position(self, name):
        """Position of a column by name.

        Raises:
            CatalogError: if the column does not exist.
        """
        position = self._index.get(name)
        if position is None:
            raise CatalogError(f"table {self.name!r} has no column {name!r}")
        return position

    def column(self, name):
        return self.columns[self.column_position(name)]

    def coerce_row(self, values):
        """Validate a full row of values; returns the coerced tuple.

        Raises:
            CatalogError: on arity mismatch.
        """
        if len(values) != self.arity:
            raise CatalogError(
                f"table {self.name!r} expects {self.arity} values, "
                f"got {len(values)}"
            )
        return tuple(
            column.coerce(value, self.name)
            for column, value in zip(self.columns, values)
        )

    def __repr__(self):
        columns = ", ".join(
            f"{column.name} {column.sql_type.value}" for column in self.columns
        )
        return f"TableSchema({self.name}: {columns})"


class Catalog:
    """The set of defined table schemas."""

    def __init__(self):
        self._schemas = {}

    def create_table(self, schema):
        if schema.name in self._schemas:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._schemas[schema.name] = schema

    def drop_table(self, name):
        if name not in self._schemas:
            raise CatalogError(f"table {name!r} does not exist")
        del self._schemas[name]

    def schema(self, name):
        schema = self._schemas.get(name)
        if schema is None:
            raise CatalogError(f"table {name!r} does not exist")
        return schema

    def has_table(self, name):
        return name in self._schemas

    def table_names(self):
        return tuple(self._schemas)

    def __contains__(self, name):
        return name in self._schemas

    def __iter__(self):
        return iter(self._schemas.values())
