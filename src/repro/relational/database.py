"""The database: catalog, table storage, handles, and mutation primitives.

This is the "typical relational database structure" of Section 2: named
tables with fixed typed columns, tuples identified by system tuple
handles. All physical mutation goes through :class:`Database` so that
undo logging and handle bookkeeping cannot be bypassed.
"""

from __future__ import annotations

import os

from ..errors import CatalogError, HandleClaimError, TypeError_
from .handles import HandleAllocator
from .schema import Catalog, Column, TableSchema
from .table import Table
from .transactions import TransactionManager
from .types import SqlType


class Database:
    """In-memory relational database with tuple handles and undo logging."""

    def __init__(self):
        self.catalog = Catalog()
        self.handles = HandleAllocator()
        self.transactions = TransactionManager(self)
        self._tables = {}
        #: monotone state-version counter, bumped by every physical
        #: mutation; evaluators use it to invalidate uncorrelated-subquery
        #: caches (see repro.relational.expressions)
        self.version = 0
        #: ablation toggle for the uncorrelated-subquery cache
        self.enable_subquery_cache = True
        from .index import IndexRegistry

        #: sorted indexes by name (see repro.relational.index)
        self.indexes = IndexRegistry()

        from .plan.cache import PlannerStats, StatementCache

        #: catalog-shape version, bumped only by schema/index DDL; plans
        #: and compiled programs are dropped when it moves (they depend
        #: on the catalog, not on table contents)
        self.schema_version = 0
        #: every statement's template AST, plans and compiled programs,
        #: by normalised text or by root node (see
        #: repro.relational.plan.cache)
        self.statements = StatementCache()
        #: planner/evaluator counters (rows scanned, cache hits, ...)
        self.planner_stats = PlannerStats()

        from .stats import OptimizerStats

        #: zone-pruning counters (zones considered and pruned, rows
        #: pruned)
        self.optimizer_stats = OptimizerStats()

        from .compiled import CompilerStats, VectorizedStats

        #: compiler counters (compiles, cache hits, fallback nodes, ...)
        self.compiler_stats = CompilerStats()
        #: evaluate scans, filters, projections, join keys, DML
        #: targeting, and transition-table conditions through batch
        #: kernels over columnar storage (see
        #: repro.relational.compiled); False interprets every expression
        #: row at a time — same values and errors, different cost.
        #: REPRO_VECTORIZED_EVAL=0 in the environment forces it off (CI
        #: runs both ways): the interpreter is the oracle.
        self.enable_vectorized_eval = os.environ.get(
            "REPRO_VECTORIZED_EVAL", "1"
        ).lower() not in ("0", "off", "false")
        #: batch-kernel counters (batches scanned, selection-vector
        #: sizes, per-row fallbacks)
        self.vectorized_stats = VectorizedStats()

        #: concurrency-control observers (see repro.concurrency). When
        #: set, ``on_table_read(name)`` is called from every read funnel
        #: (scan resolvers, DML identification, index lookups, the
        #: incremental layer's semantic answers) and
        #: ``on_table_write(name)`` from the three set mutators. None
        #: (the default) costs a single attribute check per call site.
        #: Transaction undo and context-switch replay bypass the
        #: Database mutators on purpose — they restore state, they are
        #: not new reads or writes of the running transaction.
        self.on_table_read = None
        self.on_table_write = None

    # ------------------------------------------------------------------
    # schema management

    def create_table(self, name, columns):
        """Create a table.

        ``columns`` is a sequence of (name, type) pairs where type is a
        :class:`SqlType` or a type-name string (``"integer"`` etc.).
        """
        resolved = []
        for column_name, column_type in columns:
            if not isinstance(column_type, SqlType):
                column_type = SqlType.from_name(column_type)
            resolved.append(Column(column_name, column_type))
        schema = TableSchema(name, resolved)
        self.catalog.create_table(schema)
        self._tables[name] = Table(schema)
        self.version += 1
        self.schema_version += 1
        return schema

    def drop_table(self, name):
        self.catalog.drop_table(name)
        del self._tables[name]
        self.indexes.drop_for_table(name)
        self.version += 1
        self.schema_version += 1

    def create_index(self, name, table_name, column):
        """Create (and build) a sorted index on ``table_name.column``."""
        from .index import SortedIndex

        table = self.table(table_name)
        position = table.schema.column_position(column)
        index = SortedIndex(name, table_name, column, position)
        self.indexes.add(index)
        table.attach_index(index)
        self.schema_version += 1
        return index

    def drop_index(self, name):
        index = self.indexes.drop(name)
        self.table(index.table_name).detach_index(index)
        self.schema_version += 1

    def table(self, name):
        """The :class:`Table` storage for ``name``.

        Raises:
            CatalogError: if the table does not exist.
        """
        table = self._tables.get(name)
        if table is None:
            raise CatalogError(f"table {name!r} does not exist")
        return table

    def schema(self, name):
        return self.catalog.schema(name)

    def table_names(self):
        return self.catalog.table_names()

    # ------------------------------------------------------------------
    # physical set mutators (undo-logged)
    #
    # The unit of change is the set of tuples one operation affects
    # (paper §2.1): DML, transaction undo, crash recovery and checkpoint
    # restore all write through the three methods below, or — undo and
    # context-switch replay, which restore state and are not new writes
    # — through the table-level mutators beneath them. Each takes
    # distinct handles and one value vector per column, type-checks
    # every value and every handle before anything is touched (the
    # first bad value in row-major order is the one reported; a handle
    # that is not live, or is named twice, is an ExecutionError; and
    # nothing is written, allocated, notified or versioned), then
    # notifies ``on_table_write`` and bumps ``version`` once, and is
    # undo-logged as one record while a transaction is active. An empty
    # set is not a write.

    @staticmethod
    def _coerce_vectors(schema, positions, vectors, expected):
        columns = schema.columns
        if set(map(len, vectors)) != {expected}:
            for position, values in zip(positions, vectors):
                if len(values) != expected:
                    raise CatalogError(
                        f"column {schema.name}.{columns[position].name}: "
                        f"{len(values)} values for {expected} handles"
                    )
        try:
            return [
                columns[position].coerce_vector(values, schema.name)
                for position, values in zip(positions, vectors)
            ]
        except TypeError_:
            # some vector holds a bad value: report the first one a
            # tuple-at-a-time loop would have reached
            for row in zip(*vectors):
                for position, value in zip(positions, row):
                    columns[position].coerce(value, schema.name)
            raise

    def _written(self, table_name):
        if self.on_table_write is not None:
            self.on_table_write(table_name)
        self.version += 1

    def insert_rows(self, table_name, columns, handles=None):
        """Insert rows given as one value vector per schema column;
        returns their handles, in row order.

        The handles are freshly allocated unless ``handles`` supplies
        them from durable state (crash recovery, checkpoint restore) —
        tuple handles are non-reusable values identifying tuples, so
        recovery must preserve them for transition effects to stay
        meaningful; the allocator resumes past them. A supplied handle
        that some table already holds, or held, is refused with
        :class:`~repro.errors.HandleClaimError`, leaving no row behind.
        """
        table = self.table(table_name)
        schema = table.schema
        if len(columns) != schema.arity:
            raise CatalogError(
                f"table {table_name!r} expects {schema.arity} columns, "
                f"got {len(columns)}"
            )
        count = len(columns[0]) if handles is None else len(handles)
        if not count:
            return ()
        columns = self._coerce_vectors(
            schema, range(schema.arity), columns, count
        )
        self._written(table_name)
        if handles is None:
            handles = self.handles.allocate_many(table_name, count)
            table.insert_columns(handles, columns)
        else:
            table.insert_columns(handles, columns)
            try:
                self.handles.restore(handles, table_name)
            except HandleClaimError:
                table.delete_many(handles)
                raise
        self.transactions.log("insert", table_name, handles)
        return handles

    def delete_rows(self, table_name, handles):
        """Delete the live tuples under ``handles``; returns their final
        row values."""
        if not handles:
            return []
        table = self.table(table_name)
        slots = table.locate(handles)
        self._written(table_name)
        rows = table.delete_many(handles, slots)
        self.transactions.log("delete", table_name, handles, rows)
        return rows

    def assign_columns(self, table_name, handles, column_names, vectors):
        """Assign ``vectors`` (one per name in ``column_names``, aligned
        with ``handles``) to live tuples; returns the rows as they were.

        Assigning a column its current value is a legitimate update —
        the paper's U component records the tuple and column "regardless
        of whether a value is actually changed".
        """
        table = self.table(table_name)
        schema = table.schema
        if len(vectors) != len(column_names):
            raise CatalogError(
                f"table {table_name!r}: {len(vectors)} value vectors for "
                f"{len(column_names)} updated columns"
            )
        positions = [schema.column_position(name) for name in column_names]
        if not handles:
            return []
        vectors = self._coerce_vectors(
            schema, positions, vectors, len(handles)
        )
        slots = table.locate(handles)
        self._written(table_name)
        old_rows = table.assign_columns(handles, positions, vectors, slots)
        self.transactions.log("update", table_name, handles, old_rows)
        return old_rows

    def insert_row(self, table_name, values):
        """:meth:`insert_rows` of one row; returns the new handle."""
        return self.insert_rows(table_name, [(value,) for value in values])[0]

    def delete_row(self, table_name, handle):
        """:meth:`delete_rows` of one tuple; returns its final row."""
        return self.delete_rows(table_name, (handle,))[0]

    def update_row(self, table_name, handle, new_values_by_column):
        """:meth:`assign_columns` on one tuple; returns
        ``(old_row, new_row)``."""
        [old_row] = self.assign_columns(
            table_name, (handle,), list(new_values_by_column),
            [(value,) for value in new_values_by_column.values()],
        )
        return old_row, self.row(table_name, handle)

    # ------------------------------------------------------------------
    # convenience readers

    def row(self, table_name, handle):
        """Current row value of a live handle."""
        return self.table(table_name).get(handle)

    def row_count(self, table_name):
        return len(self.table(table_name))

    def table_of_handle(self, handle):
        """Which table a handle belongs(/belonged) to."""
        return self.handles.table_of(handle)

    def snapshot(self):
        """Deep-enough copy of all table contents: ``{table: {handle: row}}``.

        Rows are immutable tuples so a per-table dict copy suffices. Used
        by the snapshot-diff baseline and by tests that compare states.
        """
        return {
            name: table.snapshot() for name, table in self._tables.items()
        }
