"""The database: catalog, table storage, handles, and mutation primitives.

This is the "typical relational database structure" of Section 2: named
tables with fixed typed columns, tuples identified by system tuple
handles. All physical mutation goes through :class:`Database` so that
undo logging and handle bookkeeping cannot be bypassed.
"""

from __future__ import annotations

import os

from ..errors import CatalogError, TransactionError
from .handles import HandleAllocator
from .schema import Catalog, Column, TableSchema
from .table import Table
from .transactions import TransactionManager
from .types import SqlType, coerce_value


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

        #: hash indexes by name (see repro.relational.index)
        self.indexes = IndexRegistry()

        from .plan.cache import PlanCache, PlannerStats

        #: catalog-shape version, bumped only by schema/index DDL; the
        #: plan cache is invalidated when it moves (plans depend on the
        #: catalog, not on table contents)
        self.schema_version = 0
        #: compiled plans per select AST (see repro.relational.plan.cache)
        self.plan_cache = PlanCache()
        #: planner/evaluator counters (rows scanned, cache hits, ...)
        self.planner_stats = PlannerStats()

        from .stats import OptimizerStats

        #: statistics epoch: bumped whenever any table's statistics are
        #: rebuilt (drift threshold, compaction, checkpoint) and by index
        #: DDL — the plan cache keys on it alongside schema_version, so
        #: cached plans re-cost when the estimates they priced with have
        #: drifted. Monotone, like the schema version.
        self.stats_epoch = 0
        #: cost-layer counters (plans costed, reorders, zones pruned, ...)
        self.optimizer_stats = OptimizerStats()

        from .compiled import CompiledCache, CompilerStats

        #: evaluate predicates/projections through compiled closures (see
        #: repro.relational.compiled); False interprets every expression —
        #: same values and errors, different cost. REPRO_COMPILED_EVAL=0
        #: in the environment forces the layer off (CI runs both ways).
        self.enable_compiled_eval = os.environ.get(
            "REPRO_COMPILED_EVAL", "1"
        ).lower() not in ("0", "off", "false")
        #: compiled programs per (expression AST, layout), invalidated by
        #: schema_version like the plan cache
        self.compiled_cache = CompiledCache()
        #: compiler counters (compiles, cache hits, fallback nodes, ...)
        self.compiler_stats = CompilerStats()

        from .compiled import VectorizedStats

        #: evaluate scans, filters, projections, join keys, DML
        #: targeting, and transition-table conditions through batch
        #: kernels over columnar storage (see the vectorized section of
        #: repro.relational.compiled); False keeps PR 4's row-at-a-time
        #: compiled closures — same values and errors, different cost.
        #: Vectorization layers on top of compiled evaluation, so
        #: REPRO_COMPILED_EVAL=0 disables both and leaves the pure
        #: interpreter oracle. REPRO_VECTORIZED_EVAL=0 forces just this
        #: layer off (CI runs both ways).
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
        #: ``on_table_write(name)`` from the three mutation primitives.
        #: None (the default) costs a single attribute check per call
        #: site. Transaction undo and context-switch replay bypass the
        #: primitives on purpose — they restore state, they are not new
        #: reads or writes of the running transaction.
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
        table = Table(schema)
        table.on_stats_rebuild = self._on_stats_rebuild
        self._tables[name] = table
        self.version += 1
        self.schema_version += 1
        return schema

    def _on_stats_rebuild(self):
        """A table rebuilt its statistics: advance the stats epoch so the
        plan cache re-costs, and count the rebuild."""
        self.stats_epoch += 1
        self.optimizer_stats.stats_rebuilds += 1

    def drop_table(self, name):
        self.catalog.drop_table(name)
        del self._tables[name]
        self.indexes.drop_for_table(name)
        self.version += 1
        self.schema_version += 1

    def create_index(self, name, table_name, column):
        """Create (and build) a hash index on ``table_name.column``."""
        from .index import HashIndex

        table = self.table(table_name)
        position = table.schema.column_position(column)
        index = HashIndex(name, table_name, column, position)
        self.indexes.add(index)
        table.attach_index(index)
        self.schema_version += 1
        # index DDL changes both plan *shape* candidates and the NDV
        # source the cost model prefers (an index key count is exact)
        self.stats_epoch += 1
        return index

    def drop_index(self, name):
        index = self.indexes.drop(name)
        self.table(index.table_name).detach_index(index)
        self.schema_version += 1
        self.stats_epoch += 1

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
    # physical mutation primitives (undo-logged)

    def insert_row(self, table_name, values):
        """Insert one coerced row; returns the new tuple handle."""
        if self.on_table_write is not None:
            self.on_table_write(table_name)
        table = self.table(table_name)
        row = table.schema.coerce_row(values)
        handle = self.handles.allocate(table_name)
        table.insert(handle, row)
        self.transactions.log_insert(table_name, handle)
        self.version += 1
        return handle

    def delete_row(self, table_name, handle):
        """Delete the tuple under ``handle``; returns its final row value."""
        if self.on_table_write is not None:
            self.on_table_write(table_name)
        table = self.table(table_name)
        row = table.delete(handle)
        self.transactions.log_delete(table_name, handle, row)
        self.version += 1
        return row

    def update_row(self, table_name, handle, new_values_by_column):
        """Assign new values to some columns of a live tuple.

        Returns ``(old_row, new_row)``. Values are type-checked against
        the schema. Note that assigning a column its current value is a
        legitimate update — the paper's U component records the tuple and
        column "regardless of whether a value is actually changed".
        """
        if self.on_table_write is not None:
            self.on_table_write(table_name)
        table = self.table(table_name)
        schema = table.schema
        old_row = table.get(handle)
        new_row = list(old_row)
        for column_name, value in new_values_by_column.items():
            position = schema.column_position(column_name)
            new_row[position] = schema.columns[position].coerce(
                value, schema.name
            )
        new_row = tuple(new_row)
        table.replace(handle, new_row)
        self.transactions.log_update(table_name, handle, old_row)
        self.version += 1
        return old_row, new_row

    # ------------------------------------------------------------------
    # bulk mutation primitives (crash recovery only)
    #
    # Replay applies a commit record's column vectors whole. Every value
    # is still type-checked against its column and every handle checked
    # live / not live, but nothing is undo-logged (recovery runs outside
    # any transaction) and table statistics and indexes are left for
    # recover() to rebuild once at the end (see Table's bulk mutators).

    def _recovery_table(self, table_name):
        if self.transactions.active:
            raise TransactionError(
                "bulk recovery mutators are not undo-logged and cannot "
                "run inside a transaction"
            )
        if self.on_table_write is not None:
            self.on_table_write(table_name)
        self.version += 1
        return self.table(table_name)

    @staticmethod
    def _coerce_vector(table_name, column, values, expected):
        if len(values) != expected:
            raise CatalogError(
                f"column {table_name}.{column.name}: {len(values)} values "
                f"for {expected} handles"
            )
        sql_type = column.sql_type
        context = f"column {table_name}.{column.name}"
        return [coerce_value(value, sql_type, context) for value in values]

    def delete_rows(self, table_name, handles):
        """Delete the live tuples under ``handles`` (distinct)."""
        self._recovery_table(table_name).delete_many(handles)

    def restore_rows(self, table_name, handles, columns):
        """Re-insert rows under their original handles, given one value
        vector per schema column aligned with ``handles`` (distinct).

        The handles come from durable state instead of the allocator —
        tuple handles are non-reusable values identifying tuples, so
        recovery must preserve them for transition effects to stay
        meaningful.
        """
        table = self._recovery_table(table_name)
        schema = table.schema
        if len(columns) != schema.arity:
            raise CatalogError(
                f"table {table_name!r} expects {schema.arity} columns, "
                f"got {len(columns)}"
            )
        table.insert_columns(handles, [
            self._coerce_vector(table_name, column, values, len(handles))
            for column, values in zip(schema.columns, columns)
        ])
        self.handles.restore(handles, table_name)

    def assign_columns(self, table_name, handles, column_names, vectors):
        """Assign ``vectors`` (one per name in ``column_names``, aligned
        with ``handles``) to live tuples."""
        table = self._recovery_table(table_name)
        schema = table.schema
        if len(vectors) != len(column_names):
            raise CatalogError(
                f"table {table_name!r}: {len(vectors)} value vectors for "
                f"{len(column_names)} updated columns"
            )
        positions = [schema.column_position(name) for name in column_names]
        table.assign_columns(handles, positions, [
            self._coerce_vector(
                table_name, schema.columns[position], values, len(handles)
            )
            for position, values in zip(positions, vectors)
        ])

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
