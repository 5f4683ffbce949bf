"""Execute a plan's source pipeline, producing filtered FROM scopes.

``execute_source`` runs the Scan/IndexLookup/Filter/HashJoin/Product
tree and returns one :class:`~repro.relational.expressions.Scope` per
surviving combination — the same objects (same binding layout, same
``touched_pairs`` attribute) the naive product enumerator in
``tests/reference/naive_select.py`` produces, so the shared projection
machinery is oblivious to which of the two ran.

Combination order is the nested-loop order: for every pipeline node the
left/outer input's order is preserved and the right input's rows keep
their scan order within each match group. That makes planned results
*order*-identical to naive results, not merely set-identical, which is
what the differential property test asserts.

Intermediate combinations are ``(rows, pairs, ords)`` tuples aligned
with the node's binding list; Scopes are only materialized at the top
(and transiently for key/filter evaluation). ``ords`` — per-binding
scan-position ordinals — are None unless the tree contains a
:class:`~repro.relational.plan.nodes.RestoreOrder` node (cost-planner
join reordering), which sorts on them to restore the FROM enumeration
order and then drops them.

The executor also writes each node's output size back onto the node
(``actual_rows``) so EXPLAIN can report estimated vs. actual rows, and
applies zone-map pruning (``Filter.prune_specs``) before running batch
kernels.
"""

from __future__ import annotations

from typing import Any

from ...errors import ExecutionError
from ...sql import ast
from ...sql.params import constant
from ..compiled import (
    BatchContext,
    batch_program_for,
    layout_of,
    program_for,
    prune_selection,
    run_batch_filter,
    run_batch_programs,
    vectorized_enabled,
)
from ..expressions import Scope
from ..types import compare_values
from .nodes import (
    Filter,
    HashJoin,
    IndexLookup,
    Plan,
    Product,
    RestoreOrder,
    Scan,
    SingleRow,
)


def execute_source(plan: Any, database: Any, resolver: Any,
                   evaluator: Any, outer: Any,
                   collect_handles: bool = False,
                   stats: Any = None) -> tuple[Any, Any]:
    """Run ``plan``'s source tree; returns ``(bindings, scopes)``.

    ``bindings`` is a list of ``(name, columns)`` pairs in FROM order
    (columns as resolved at run time); ``scopes`` is the list of
    surviving combination Scopes, each carrying ``touched_pairs`` when
    ``collect_handles`` is on. ``stats`` (a
    :class:`~repro.relational.plan.cache.PlannerStats`) receives the
    rows-scanned / rows-visited counters.
    """
    bindings, scopes, batch = execute_source_batched(
        plan, database, resolver, evaluator, outer,
        collect_handles=collect_handles, stats=stats,
    )
    if batch is not None:
        scopes = scopes_from_batch(bindings, batch, outer, collect_handles)
    return bindings, scopes


def execute_source_batched(plan: Any, database: Any, resolver: Any,
                           evaluator: Any, outer: Any,
                           collect_handles: bool = False,
                           stats: Any = None) -> tuple[Any, Any, Any]:
    """Like :func:`execute_source`, but keeps the columnar form when it
    can: returns ``(bindings, scopes, batch)``. ``batch`` is non-None —
    and ``scopes`` is None — when the whole pipeline stayed a
    single-binding batchable chain (Scan/IndexLookup/Filter) under
    vectorized evaluation; the caller then projects straight off the
    batch (or materializes scopes via :func:`scopes_from_batch`).
    """
    source = plan.source if isinstance(plan, Plan) else plan
    runner = _SourceRunner(
        database, resolver, evaluator, outer, collect_handles, stats
    )
    runner.track_ordinals = _has_restore_order(source)
    if runner.vectorized:
        batched = runner.run_batch(source)
        if batched is not None:
            bindings, batch = batched
            if stats is not None:
                # single-table pipeline: the surviving selection *is*
                # the visited row set (mirrors the combos accounting)
                stats.rows_visited += len(batch.sel)
            return bindings, None, batch
    bindings, combos = runner.run(source)
    if stats is not None and runner.visited is None:
        # single-table pipeline: the combinations *are* the scanned rows
        stats.rows_visited += len(combos)
    scopes: list[Any] = []
    for rows, pairs, _ords in combos:
        # typed Any: ``rows``/``touched_pairs`` ride on the scope object
        scope: Any = Scope(parent=outer)
        for (name, columns), row in zip(bindings, rows):
            scope.bind(name, columns, row)
        # the combination's row tuples, aligned with ``bindings`` — the
        # compiled projection path indexes these instead of resolving
        # column names through the scope (see repro.relational.compiled)
        scope.rows = rows
        if pairs:
            touched = [pair for pair in pairs if pair is not None]
            if touched:
                scope.touched_pairs = touched
        scopes.append(scope)
    return bindings, scopes, None


def scopes_from_batch(bindings: Any, batch: Any, outer: Any,
                      collect_handles: bool = False) -> list[Any]:
    """Materialize the executor's Scope contract from a surviving batch
    (needed by group/aggregate evaluation and interpreter-only callers)."""
    (name, columns), = bindings
    handles = batch.handles
    label = batch.label
    collect = collect_handles and handles is not None and label is not None
    scopes: list[Any] = []
    for slot, row in zip(batch.sel, batch.rows()):
        scope: Any = Scope(parent=outer)
        scope.bind(name, columns, row)
        scope.rows = (row,)
        if collect:
            scope.touched_pairs = [(label, handles[slot])]
        scopes.append(scope)
    return scopes


class _SourceRunner:
    """One execution of a source tree (leaf resolution is per-run: the
    same cached plan serves many database states and resolvers)."""

    def __init__(self, database: Any, resolver: Any, evaluator: Any,
                 outer: Any, collect_handles: bool, stats: Any) -> None:
        self.database = database
        self.resolver = resolver
        self.evaluator = evaluator
        self.outer = outer
        self.collect_handles = collect_handles
        self.stats = stats
        self.vectorized = vectorized_enabled(database)
        #: combinations materialized by join/product nodes (None until
        #: one runs — execute_source falls back to the pipeline output)
        self.visited: Any = None
        #: attach per-leaf scan-position ordinals to combos — only set
        #: (by execute_source_batched) when the tree has a RestoreOrder
        self.track_ordinals = False

    def run(self, node: Any) -> Any:
        """Execute ``node``; returns ``(bindings, combos)`` where combos
        are ``(rows_tuple, pairs_tuple_or_None, ords_tuple_or_None)``
        aligned with bindings."""
        if self.vectorized:
            batched = self.run_batch(node)
            if batched is not None:
                bindings, batch = batched
                return bindings, self._combos_from_batch(batch)
        if isinstance(node, SingleRow):
            return [], [((), None, None)]
        if isinstance(node, Scan):
            return self._run_scan(node)
        if isinstance(node, IndexLookup):
            return self._run_index_lookup(node)
        if isinstance(node, Filter):
            return self._run_filter(node)
        if isinstance(node, HashJoin):
            return self._run_hash_join(node)
        if isinstance(node, Product):
            return self._run_product(node)
        if isinstance(node, RestoreOrder):
            return self._run_restore_order(node)
        raise ExecutionError(
            f"cannot execute plan node {type(node).__name__}"
        )

    # -- vectorized pipeline ----------------------------------------------

    def run_batch(self, node: Any) -> Any:
        """The columnar pipeline for a batchable subtree: Scan /
        IndexLookup / Filter chains over one binding. Returns
        ``(bindings, batch)``, or None when the subtree needs the
        row-at-a-time path (joins, products, unbatchable resolvers)."""
        if isinstance(node, Scan):
            return self._scan_batch(node)
        if isinstance(node, IndexLookup):
            return self._index_lookup_batch(node)
        if isinstance(node, Filter):
            child = self.run_batch(node.child)
            if child is None:
                return None
            bindings, batch = child
            if node.prune_specs and batch.zones is not None:
                # zone maps: skip whole storage zones that cannot satisfy
                # a total col-op-literal conjunct, before any kernel runs
                sel = prune_selection(
                    batch, node.prune_specs, self.database.optimizer_stats,
                    self.evaluator.params,
                )
                if sel is not batch.sel:
                    batch = batch.with_sel(sel)
            # the leaf scan names the base table behind the layout —
            # catalog column kinds then drive typed-kernel selection
            leaf = node.child
            while isinstance(leaf, Filter):
                leaf = leaf.child
            table = getattr(
                getattr(leaf, "table_ref", None), "table", None
            )
            sel = run_batch_filter(
                self.database,
                node.predicates,
                layout_of(bindings),
                self._batch_context(bindings, batch),
                batch.sel,
                table=table,
            )
            node.actual_rows = len(sel)
            return bindings, batch.with_sel(sel)
        return None

    def _scan_batch(self, node: Any) -> Any:
        resolve_batch = getattr(self.resolver, "resolve_batch", None)
        resolved = (
            resolve_batch(node.table_ref)
            if resolve_batch is not None
            else None
        )
        if resolved is None:
            self.database.vectorized_stats.row_fallbacks += 1
            return None
        columns, batch = resolved
        if self.stats is not None:
            self.stats.rows_scanned += len(batch.sel)
        node.actual_rows = len(batch.sel)
        return [(node.binding, columns)], batch

    def _index_lookup_batch(self, node: Any) -> Any:
        if self.database.on_table_read is not None:
            self.database.on_table_read(node.table_ref.table)
        table = self.database.table(node.table_ref.table)
        candidates = self._index_candidates(node, table)
        if candidates is None:
            batch = table.batch()
        else:
            batch = table.batch_for_handles(sorted(candidates))
        if self.stats is not None:
            self.stats.rows_scanned += len(batch.sel)
        node.actual_rows = len(batch.sel)
        return [(node.binding, table.schema.column_names)], batch

    def _index_candidates(self, node: Any, table: Any) -> Any:
        """The handles ``node``'s index keys admit under the running
        statement's binding, or None when no key's index is there."""
        params = self.evaluator.params
        candidates: Any = None
        for _, column, operand in node.keys:
            index = table.index_on(column)
            if index is None:
                # index dropped since planning (stale plan served once);
                # fall back to a full scan — candidates stay a superset
                continue
            found = index.lookup(constant(operand, params))
            candidates = found if candidates is None else (candidates & found)
        return candidates

    def _batch_context(self, bindings: Any, batch: Any) -> BatchContext:
        """A kernel context whose fallback scopes mirror the row path's
        per-combination scopes (same binding, same outer parent)."""
        (name, columns), = bindings
        outer = self.outer
        row_of = batch.row

        def scope_for(slot: int) -> Scope:
            scope = Scope(parent=outer)
            scope.bind(name, columns, row_of(slot))
            return scope

        return BatchContext(
            batch.cols, scope_for, self.evaluator,
            self.database.vectorized_stats,
        )

    def _combos_from_batch(self, batch: Any) -> list[Any]:
        """Materialize the row-path combo contract from a batch (at the
        boundary to a join/product or the scope materializer)."""
        label = batch.label
        rows = batch.rows()
        track = self.track_ordinals
        if self.collect_handles and batch.handles is not None \
                and label is not None:
            handles = map(batch.handles.__getitem__, batch.sel)
            return [
                ((row,), ((label, handle),), (i,) if track else None)
                for i, (row, handle) in enumerate(zip(rows, handles))
            ]
        return [
            ((row,), None, (i,) if track else None)
            for i, row in enumerate(rows)
        ]

    # -- leaves -----------------------------------------------------------

    def _run_scan(self, node: Any) -> Any:
        columns, rows = self.resolver.resolve(node.table_ref)
        if self.stats is not None:
            self.stats.rows_scanned += len(rows)
        pairs: Any = None
        if self.collect_handles and isinstance(node.table_ref,
                                               ast.BaseTableRef):
            table = self.database.table(node.table_ref.table)
            pairs = [
                (node.table_ref.table, handle)
                for handle in table.iter_handles()
            ]
        track = self.track_ordinals
        node.actual_rows = len(rows)
        return (
            [(node.binding, columns)],
            [
                ((row,), ((pairs[i],) if pairs is not None else None),
                 (i,) if track else None)
                for i, row in enumerate(rows)
            ],
        )

    def _run_index_lookup(self, node: Any) -> Any:
        if self.database.on_table_read is not None:
            self.database.on_table_read(node.table_ref.table)
        table = self.database.table(node.table_ref.table)
        candidates = self._index_candidates(node, table)
        if candidates is None:
            handles = table.handles()
            rows = table.rows()
        else:
            handles = sorted(candidates)
            rows = table.batch_for_handles(handles).rows()
        if self.stats is not None:
            self.stats.rows_scanned += len(handles)
        columns = table.schema.column_names
        track = self.track_ordinals
        combos: list[Any] = []
        for i, (handle, row) in enumerate(zip(handles, rows)):
            pair: Any = None
            if self.collect_handles:
                pair = ((node.table_ref.table, handle),)
            combos.append(((row,), pair, (i,) if track else None))
        node.actual_rows = len(combos)
        return [(node.binding, columns)], combos

    # -- filters ----------------------------------------------------------

    def _run_filter(self, node: Any) -> Any:
        bindings, combos = self.run(node.child)
        if getattr(self.database, "enable_compiled_eval", False) and combos:
            kept = self._filter_compiled(node, bindings, combos)
            node.actual_rows = len(kept)
            return bindings, kept
        evaluate = self.evaluator.evaluate_predicate
        kept: list[Any] = []
        for combo in combos:
            scope = self._scope_for(bindings, combo[0])
            if all(
                evaluate(predicate, scope) is True
                for predicate in node.predicates
            ):
                kept.append(combo)
        node.actual_rows = len(kept)
        return bindings, kept

    def _filter_compiled(self, node: Any, bindings: Any,
                         combos: Any) -> list[Any]:
        """The filter loop over compiled predicate programs: column slots
        resolve at compile time, and the per-row Scope is only built when
        some predicate contains an interpreter-fallback subtree."""
        layout = layout_of(bindings)
        programs = [
            program_for(self.database, predicate, layout, predicate=True,
                        statement=self.evaluator.statement)
            for predicate in node.predicates
        ]
        needs_scope = any(program.needs_scope for program in programs)
        evaluator = self.evaluator
        kept: list[Any] = []
        for combo in combos:
            rows = combo[0]
            scope = self._scope_for(bindings, rows) if needs_scope else None
            for program in programs:
                if program.fn(rows, scope, evaluator) is not True:
                    break
            else:
                kept.append(combo)
        return kept

    # -- joins ------------------------------------------------------------

    def _run_hash_join(self, node: Any) -> Any:
        left_bindings, left_combos, left_keys = self._join_side(
            node.left, node.left_keys
        )
        right_bindings, right_combos, right_keys = self._join_side(
            node.right, node.right_keys
        )
        if right_keys is None:
            right_key_values = self._key_values_fn(
                right_bindings, node.right_keys
            )
        if left_keys is None:
            left_key_values = self._key_values_fn(
                left_bindings, node.left_keys
            )

        buckets: dict[Any, list[Any]] = {}
        # per key position: kind tag -> witness value, for reproducing the
        # naive path's cross-kind comparison errors (see _check_kinds)
        witnesses: list[dict[str, Any]] = [{} for _ in node.right_keys]
        for position_index, combo in enumerate(right_combos):
            if right_keys is not None:
                values = right_keys[position_index]
            else:
                values = right_key_values(combo[0])
            parts: list[tuple[str, Any]] = []
            for position, value in enumerate(values):
                if value is None:
                    continue
                tag = _KIND_TAGS.get(type(value), "?")
                witnesses[position].setdefault(tag, value)
                parts.append((tag, value))
            if len(parts) != len(values):
                continue  # a NULL key component never joins
            buckets.setdefault(tuple(parts), []).append(combo)

        joined: list[Any] = []
        for position_index, left_combo in enumerate(left_combos):
            left_rows = left_combo[0]
            if left_keys is not None:
                values = left_keys[position_index]
            else:
                values = left_key_values(left_rows)
            parts = []  # rebound per combo; same element type as above
            for position, value in enumerate(values):
                if value is None:
                    continue
                self._check_kinds(value, witnesses[position])
                parts.append((_KIND_TAGS.get(type(value), "?"), value))
            if len(parts) != len(values):
                continue
            for right_combo in buckets.get(tuple(parts), ()):
                joined.append(_merge(left_combo, right_combo))
        self._count_visited(joined)
        node.actual_rows = len(joined)
        return left_bindings + right_bindings, joined

    def _join_side(self, child: Any, key_exprs: Any) -> tuple[Any, Any, Any]:
        """One join input: ``(bindings, combos, keys_or_None)``.

        When the child stayed batchable, the join keys are extracted as
        key columns from the batch (one gather per key expression)
        before combos are materialized; ``keys`` then aligns with
        ``combos`` by position. Otherwise keys is None and the caller
        computes them per combo through :meth:`_key_values_fn`.
        """
        if self.vectorized:
            batched = self.run_batch(child)
            if batched is not None:
                bindings, batch = batched
                keys = self._batch_keys(bindings, batch, key_exprs)
                return bindings, self._combos_from_batch(batch), keys
        bindings, combos = self.run(child)
        return bindings, combos, None

    def _batch_keys(self, bindings: Any, batch: Any,
                    key_exprs: Any) -> list[list[Any]]:
        """Key-column extraction: each key expression's kernel gathers
        its values over the whole selection vector at once."""
        layout = layout_of(bindings)
        programs = [
            batch_program_for(self.database, expr, layout,
                              statement=self.evaluator.statement)
            for expr in key_exprs
        ]
        self.database.vectorized_stats.batches_scanned += 1
        value_lists, err = run_batch_programs(
            programs, self._batch_context(bindings, batch), batch.sel
        )
        if err is not None:
            raise err
        return [
            [values[p] for values in value_lists]
            for p in range(len(batch.sel))
        ]

    @staticmethod
    def _check_kinds(left_value: Any, right_witnesses: Any) -> None:
        """Raise the comparison error the naive product would.

        The naive evaluator compares every left key against every right
        key, so one right-side value of an incomparable kind is enough to
        raise ``TypeError_`` (NULLs excepted — they compare to Unknown).
        The hash lookup would silently skip such pairs; probe-time kind
        checking restores the error."""
        left_tag = _KIND_TAGS.get(type(left_value), "?")
        for tag, witness in right_witnesses.items():
            if tag != left_tag:
                compare_values(left_value, witness)

    def _run_product(self, node: Any) -> Any:
        left_bindings, left_combos = self.run(node.left)
        right_bindings, right_combos = self.run(node.right)
        joined = [
            _merge(left_combo, right_combo)
            for left_combo in left_combos
            for right_combo in right_combos
        ]
        self._count_visited(joined)
        node.actual_rows = len(joined)
        return left_bindings + right_bindings, joined

    def _run_restore_order(self, node: Any) -> Any:
        """Sort a reordered join's output back into FROM enumeration
        order and permute each combination's rows to FROM layout. Not a
        visit — no new combinations are formed, so nothing is counted."""
        bindings, combos = self.run(node.child)
        positions = node.positions
        combos.sort(key=lambda combo: tuple(combo[2][p] for p in positions))
        restored: list[Any] = []
        for rows, pairs, _ords in combos:
            restored.append((
                tuple(rows[p] for p in positions),
                None if pairs is None else tuple(
                    pairs[p] for p in positions
                ),
                None,  # ordinals are spent; nothing above re-sorts
            ))
        node.actual_rows = len(restored)
        return [bindings[p] for p in positions], restored

    def _count_visited(self, combos: Any) -> None:
        if self.visited is None:
            self.visited = 0
        self.visited += len(combos)
        if self.stats is not None:
            self.stats.rows_visited += len(combos)

    # -- helpers ----------------------------------------------------------

    def _scope_for(self, bindings: Any, rows: Any) -> Scope:
        scope = Scope(parent=self.outer)
        for (name, columns), row in zip(bindings, rows):
            scope.bind(name, columns, row)
        return scope

    def _key_values_fn(self, bindings: Any, key_exprs: Any) -> Any:
        """A ``rows -> [key values]`` callable for one join side (NULLs
        included; hash parts are tagged by kind at the call site, so
        Python's cross-kind equalities like ``True == 1`` cannot produce
        matches SQL comparison would reject). With compiled evaluation on,
        the key expressions compile once per join run; either way the
        per-combination Scope is only built when actually needed."""
        evaluator = self.evaluator
        if getattr(self.database, "enable_compiled_eval", False):
            layout = layout_of(bindings)
            programs = [
                program_for(self.database, expr, layout,
                            statement=evaluator.statement)
                for expr in key_exprs
            ]
            if not any(program.needs_scope for program in programs):
                def compiled_values(rows: Any) -> list[Any]:
                    return [
                        program.fn(rows, None, evaluator)
                        for program in programs
                    ]

                return compiled_values

            def compiled_values_with_scope(rows: Any) -> list[Any]:
                scope = self._scope_for(bindings, rows)
                return [
                    program.fn(rows, scope, evaluator)
                    for program in programs
                ]

            return compiled_values_with_scope

        def interpreted_values(rows: Any) -> list[Any]:
            scope = self._scope_for(bindings, rows)
            return [evaluator.evaluate(expr, scope) for expr in key_exprs]

        return interpreted_values


_KIND_TAGS = {bool: "b", int: "n", float: "n", str: "s"}


def _merge(left: Any, right: Any) -> tuple[Any, Any, Any]:
    left_rows, left_pairs, left_ords = left
    right_rows, right_pairs, right_ords = right
    rows = left_rows + right_rows
    if left_pairs is None and right_pairs is None:
        pairs = None
    else:
        pairs = (left_pairs or (None,) * len(left_rows)) + (
            right_pairs or (None,) * len(right_rows)
        )
    if left_ords is None or right_ords is None:
        ords = None
    else:
        ords = left_ords + right_ords
    return rows, pairs, ords


def _has_restore_order(node: Any) -> bool:
    """Does the source tree contain a RestoreOrder node? Decides whether
    leaves must attach scan-position ordinals to their combos."""
    while True:
        if isinstance(node, RestoreOrder):
            return True
        if isinstance(node, Filter):
            node = node.child
            continue
        if isinstance(node, (HashJoin, Product)):
            return _has_restore_order(node.left) or _has_restore_order(
                node.right
            )
        return False
