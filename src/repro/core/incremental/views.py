"""Maintained condition views: support counters over base tables.

A :class:`MaintainedView` persists ``count(*) where P`` for one
(table, binding, P) key. ``exists`` is ``count > 0``; the count is
maintained from each transition's net ``[I, D, U]`` effects:

    Δcount =   Σ  P(current(h))            for h in net-inserted
             − Σ  P(old)                   for (h, old) in net-deleted
             + Σ  P(current(h)) − P(old)   for (h, old) in net-updated

where "current" reads the live storage right after the transition (the
fold point) and pre-images come from the transition's own net effect
(:class:`~repro.core.effects.TableEffect` keeps them).

``P`` runs through the compiled-expression layer when enabled (the same
predicate kernels plan filters use) and through the interpreter
otherwise; classification guarantees ``P`` needs no scope chain, so a
single-binding row evaluation is exact either way.

Views are best-effort caches, never an error source: any exception while
refreshing or applying a delta marks the view broken/stale and the
owning rules fall back to full evaluation, where the error (if it is a
real one) surfaces through the ordinary path with the ordinary message.
"""

from __future__ import annotations


def _batch_counter(database, table, binding, where, bound):
    """A ``batch -> matching-row-count`` callable for ``where`` over
    batches of ``table`` rows bound as ``binding``, or ``None`` when the
    vectorized layer is off (callers fall back to :func:`row_predicate`).
    ``bound`` names the cache entry the predicate's programs are kept in.

    Counting a batch is one filter-chain scan: the surviving selection
    vector's length is exactly Σ P(row) is True. Errors propagate (the
    earliest failing row's error, same as the row loop would raise
    first within the batch) and the caller's broken/stale handling
    applies unchanged.
    """
    from ...relational.compiled import batch_context, run_batch_filter

    if where is None or not database.enable_vectorized_eval:
        return None
    columns = database.schema(table).column_names
    layout = ((binding, columns),)
    from ...relational.expressions import Evaluator
    from ...relational.select import BaseTableResolver

    evaluator = Evaluator(database, BaseTableResolver(database), bound)
    stats = database.vectorized_stats

    def count(batch):
        ctx = batch_context(batch, layout, None, evaluator, stats)
        sel = run_batch_filter(
            database, (where,), layout, ctx, batch.sel, table=table
        )
        return len(sel)

    return count


def row_predicate(database, table, binding, where, bound):
    """A ``row -> True/False/None`` callable for ``where`` over single
    rows of ``table`` bound as ``binding``."""
    if where is None:
        return lambda row: True
    from ...relational.expressions import Evaluator, Scope
    from ...relational.select import BaseTableResolver

    evaluator = Evaluator(database, BaseTableResolver(database), bound)
    columns = database.schema(table).column_names
    scope = Scope()
    state = {"bound": False}

    def predicate(row):
        if state["bound"]:
            scope.rebind(binding, row)
        else:
            scope.bind(binding, columns, row)
            state["bound"] = True
        return evaluator.evaluate_predicate(where, scope)

    return predicate


class MaintainedView:
    """One persisted support counter (shared by every rule whose
    condition contains the same conjunct structure).

    ``version``/``schema_version`` record the database state the count
    was last synchronized with; a mismatch at evaluation time means a
    mutation bypassed the engine's fold hooks (or DDL happened) and the
    view lazily refreshes. ``stale`` is the explicit invalidation flag
    (transaction aborts restore tuples through the undo log *without*
    bumping ``database.version``, so aborts must invalidate explicitly);
    ``broken`` is terminal — a refresh failed, the owning rules fall
    back to full evaluation permanently.
    """

    __slots__ = (
        "table",
        "binding",
        "where",
        "count",
        "stale",
        "broken",
        "version",
        "schema_version",
        "table_mutations",
        "bound",
    )

    def __init__(self, table, binding, where):
        self.table = table
        self.binding = binding
        self.where = where
        self.count = 0
        self.stale = True
        self.broken = False
        self.version = -1
        self.schema_version = -1
        self.table_mutations = -1
        self.bound = None

    def in_sync(self, database):
        return (
            not self.stale
            and not self.broken
            and self.version == database.version
            and self.schema_version == database.schema_version
            # Concurrent-writer tripwire (PR 8): the fold points stamp
            # views with database.version, which a single writer always
            # moves between folds — but context-switch replay and any
            # other table-level mutation move only the table's own
            # mutation counter. Requiring it to match what the last
            # synchronization saw means no other session's writes can
            # hide behind a matching version number.
            and self.table_mutations == database.table(self.table).mutations
        )

    def mark_synced(self, database):
        """Stamp the view as matching the current physical state; called
        after a refresh and from the fold points."""
        self.version = database.version
        self.schema_version = database.schema_version
        self.table_mutations = database.table(self.table).mutations

    def _bound(self, database):
        """The view as a statement of its own — it outlives any one of
        the rules sharing it — pinned until the manager discards it."""
        if self.bound is None:
            self.bound = database.statements.bound_node(self, pinned=True)
        return self.bound

    def refresh(self, database):
        """Recount from a full scan of the current table contents."""
        bound = self._bound(database)
        counter = _batch_counter(
            database, self.table, self.binding, self.where, bound
        )
        if counter is not None:
            count = counter(database.table(self.table).batch())
        else:
            predicate = row_predicate(
                database, self.table, self.binding, self.where, bound
            )
            count = 0
            for row in database.table(self.table).rows():
                if predicate(row) is True:
                    count += 1
        self.count = count
        self.stale = False
        self.mark_synced(database)

    def apply_net(self, database, delta):
        """Fold one transition's net effects on the view's table — a
        :class:`NetDelta` — into the count; returns the number of delta
        rows examined. Caller synchronizes versions."""
        bound = self._bound(database)
        counter = _batch_counter(
            database, self.table, self.binding, self.where, bound
        )
        change = 0
        if counter is not None:
            for batch, sign in delta.signed:
                change += sign * counter(batch)
        else:
            predicate = row_predicate(
                database, self.table, self.binding, self.where, bound
            )
            for batch, sign in delta.signed:
                for row in batch.rows():
                    if predicate(row) is True:
                        change += sign
        self.count += change
        return delta.rows


class NetDelta:
    """One transition's net ``[I, D, U]`` on one table (its
    :class:`~repro.core.effects.TableEffect` ``part``) as the batches a
    counter adds or subtracts: current values of the net-inserted and
    net-updated tuples (+1) and pre-images of the net-deleted and
    net-updated ones (-1). Resolved once and shared by every view over
    the table."""

    __slots__ = ("signed", "rows")

    def __init__(self, storage, part):
        from ...relational.batch import Batch

        arity = storage.schema.arity
        inserted = part.inserted_handles()
        deleted = part.deleted_rows()
        updated = part.updated_handles()
        self.rows = len(inserted) + len(deleted) + len(updated)
        self.signed = []
        if inserted:
            self.signed.append((storage.batch_for_handles(inserted), 1))
        if deleted:
            self.signed.append((Batch.from_rows(deleted, arity), -1))
        if updated:
            pre = part.pre
            self.signed.append((storage.batch_for_handles(updated), 1))
            self.signed.append((
                Batch.from_rows([pre[handle] for handle in updated], arity),
                -1,
            ))
