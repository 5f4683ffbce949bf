"""Execute a plan's source pipeline, producing filtered FROM combinations.

``execute_source`` runs the Scan/IndexLookup/Filter/HashJoin/Product
tree and returns one :class:`~repro.relational.expressions.Scope` per
surviving combination — the same objects (same binding layout, same
``touched_pairs`` attribute) the naive product enumerator in
``tests/reference/naive_select.py`` produces, so the shared projection
machinery is oblivious to which of the two ran.
``execute_source_batched`` keeps the columnar form: a hash join or a
product over batches emits a :class:`~repro.relational.batch
.JoinedBatch` — slot vectors, no row tuples, no combinations — and a
filter above it runs batch kernels over the joined layout.

Combination order is the nested-loop order: for every pipeline node the
left/outer input's order is preserved and the right input's rows keep
their scan order within each match group. That makes planned results
*order*-identical to naive results, not merely set-identical, which is
what the differential property test asserts.

The row path has two callers only: the ``REPRO_VECTORIZED_EVAL=0``
oracle, where the interpreter evaluates every expression, and a scan
whose resolver has no batch for its table reference (the error path of
an unresolvable name). There intermediate combinations are ``(rows,
pairs)`` tuples aligned with the node's binding list; Scopes are only
materialized at the top (and transiently for key/filter evaluation).

The executor also writes each node's output size back onto the node
(``actual_rows``, and a hash join's ``mode``) so EXPLAIN can report
actual rows, and applies zone-map pruning (``Filter.prune_specs``)
before running batch kernels.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any

from ...errors import ExecutionError
from ...sql import ast
from ...sql.params import constant
from ..batch import JoinedBatch, entry_pairs
from ..compiled import (
    BatchContext,
    batch_context,
    layout_of,
    prune_selection,
    run_batch_expressions,
    run_batch_filter,
)
from ..expressions import Scope
from ..types import compare_values
from .nodes import (
    Filter,
    HashJoin,
    IndexLookup,
    Plan,
    Product,
    Scan,
    SingleRow,
)
from .pushdown import intersect


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
    and ``scopes`` is None — when the whole pipeline stayed batchable
    (Scan/IndexLookup/Filter chains, hash joins and products over
    them) under vectorized evaluation; the caller projects or groups
    straight off it.
    """
    source = plan.source if isinstance(plan, Plan) else plan
    runner = _SourceRunner(
        database, resolver, evaluator, outer, collect_handles, stats
    )
    bindings, out = runner.run(source)
    if type(out) is not list:  # the whole pipeline stayed columnar
        if stats is not None and runner.visited is None:
            # single-table pipeline: the surviving selection *is* the
            # visited row set (mirrors the combos accounting)
            stats.rows_visited += len(out.sel)
        return bindings, None, out
    combos = out
    if stats is not None and runner.visited is None:
        # single-table pipeline: the combinations *are* the scanned rows
        stats.rows_visited += len(combos)
    scopes: list[Any] = []
    for rows, pairs in combos:
        # typed Any: ``touched_pairs`` rides on the scope object
        scope: Any = Scope(parent=outer)
        for (name, columns), row in zip(bindings, rows):
            scope.bind(name, columns, row)
        if pairs:
            touched = [pair for pair in pairs if pair is not None]
            if touched:
                scope.touched_pairs = touched
        scopes.append(scope)
    return bindings, scopes, None


def scopes_from_batch(bindings: Any, batch: Any, outer: Any,
                      collect_handles: bool = False) -> list[Any]:
    """Materialize the executor's Scope contract from a surviving batch,
    for callers that want one Scope per combination."""
    scopes: list[Any] = []
    for entry, pairs in zip(batch.sel, entry_pairs(batch)):
        scope: Any = Scope(parent=outer)
        for (name, columns), row in zip(bindings, batch.row_tuples(entry)):
            scope.bind(name, columns, row)
        touched = [pair for pair in pairs if pair is not None]
        if collect_handles and touched:
            scope.touched_pairs = touched
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
        self.vectorized = database.enable_vectorized_eval
        #: combinations formed by join/product nodes (None until one
        #: runs — execute_source falls back to the pipeline output)
        self.visited: Any = None

    def run(self, node: Any) -> Any:
        """Execute ``node`` once; returns ``(bindings, out)``. ``out`` is
        a batch when the subtree ran columnar — Scan / IndexLookup /
        Filter chains, and hash joins and products over them, under
        vectorized evaluation — and otherwise a list of combos:
        ``(rows_tuple, pairs_tuple_or_None)`` aligned with bindings. A
        join or product over one columnar and one row input turns the
        batch into combos: neither input runs twice."""
        if isinstance(node, Scan):
            if self.vectorized:
                batched = self._scan_batch(node)
                if batched is not None:
                    return batched
            return self._run_scan(node)
        if isinstance(node, IndexLookup):
            if self.vectorized:
                return self._index_lookup_batch(node)
            return self._run_index_lookup(node)
        if isinstance(node, Filter):
            bindings, out = self.run(node.child)
            if type(out) is list:
                return self._run_filter(node, bindings, out)
            return self._filter_batch(node, bindings, out)
        if isinstance(node, (HashJoin, Product)):
            return self._run_join(node)
        if isinstance(node, SingleRow):
            return [], [((), None)]
        raise ExecutionError(
            f"cannot execute plan node {type(node).__name__}"
        )

    def _run_join(self, node: Any) -> Any:
        """A hash join or product: columnar over two batches, else the
        row path over both inputs' combos. A hash join's left keys run
        before its right input, as in the nested-loop order of errors."""
        is_hash = isinstance(node, HashJoin)
        left = self.run(node.left)
        left_keys = None
        if is_hash and type(left[1]) is not list:
            left_keys = self._batch_keys(left, node.left_keys)
        right = self.run(node.right)
        if type(left[1]) is list or type(right[1]) is list:
            left, right = self._as_combos(left), self._as_combos(right)
            if is_hash:
                return self._run_hash_join(node, left, right)
            return self._run_product(node, left, right)
        if is_hash:
            return self._hash_join_batch(node, left, left_keys, right)
        return self._product_batch(node, left, right)

    def _as_combos(self, side: Any) -> Any:
        bindings, out = side
        if type(out) is list:
            return side
        return bindings, self._combos_from_batch(out)

    # -- vectorized pipeline ----------------------------------------------

    def _filter_batch(self, node: Any, bindings: Any, batch: Any) -> Any:
        if node.prune_specs and batch.zones is not None:
            # zone maps: skip whole storage zones that cannot satisfy a
            # total col-op-literal conjunct, before any kernel runs
            sel = prune_selection(
                batch, node.prune_specs, self.database.optimizer_stats,
                self.evaluator.params,
            )
            if sel is not batch.sel:
                batch = batch.with_sel(sel)
        # the leaf scan names the base table behind the layout — catalog
        # column kinds then drive typed-kernel selection
        leaf = node.child
        while isinstance(leaf, Filter):
            leaf = leaf.child
        table = getattr(getattr(leaf, "table_ref", None), "table", None)
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
            batch = table.batch_for_handles(candidates)
        if self.stats is not None:
            self.stats.rows_scanned += len(batch.sel)
        node.actual_rows = len(batch.sel)
        return [(node.binding, table.schema.column_names)], batch

    def _index_candidates(self, node: Any, table: Any) -> Any:
        """The handles ``node``'s index keys admit under the running
        statement's binding, ascending, or None when no key's index is
        there."""
        params = self.evaluator.params
        candidates: Any = None
        for _, column, operand in node.keys:
            index = table.index_on(column)
            if index is None:
                # index dropped since planning (stale plan served once);
                # fall back to a full scan — candidates stay a superset
                continue
            found = index.lookup(constant(operand, params))
            candidates = found if candidates is None else intersect(
                candidates, found)
        return candidates

    def _batch_context(self, bindings: Any, batch: Any) -> BatchContext:
        """A kernel context whose fallback scopes mirror the row path's
        per-combination scopes (same bindings, same outer parent)."""
        return batch_context(
            batch, bindings, self.outer, self.evaluator,
            self.database.vectorized_stats,
        )

    def _batch_keys(self, side: Any, key_exprs: Any) -> Any:
        """One key-column kernel per key expression over a batch side."""
        bindings, batch = side
        return run_batch_expressions(
            self.database, key_exprs, layout_of(bindings),
            self._batch_context(bindings, batch), batch.sel,
        )

    def _hash_join_batch(self, node: Any, left: Any, left_keys: Any,
                         right: Any) -> Any:
        """The columnar hash join: :func:`_hash_match` over the selected
        entries of both batches and their key columns."""
        right_keys = self._batch_keys(right, node.right_keys)
        left_out, right_out = _hash_match(
            left[1].sel, zip(*left_keys), right[1].sel, zip(*right_keys),
            len(node.right_keys), self._check_kinds,
        )
        node.mode = "columnar"
        return self._joined(node, left, right, left_out, right_out)

    def _product_batch(self, node: Any, left: Any, right: Any) -> Any:
        """The columnar product: every left entry repeated once per right
        entry, the right selection tiled once per left entry — the
        nested-loop order."""
        left_sel, right_sel = left[1].sel, right[1].sel
        left_out = [entry for entry in left_sel for _ in right_sel]
        right_out = list(right_sel) * len(left_sel)
        return self._joined(node, left, right, left_out, right_out)

    def _joined(self, node: Any, left: Any, right: Any, left_out: Any,
                right_out: Any) -> Any:
        """The join node's output over two ``(bindings, batch)`` inputs:
        a :class:`JoinedBatch` pairing entry ``left_out[p]`` of the left
        batch with entry ``right_out[p]`` of the right one."""
        left_bindings, left_batch = left
        right_bindings, right_batch = right
        count = len(left_out)
        self._count_visited(count)
        node.actual_rows = count
        joined = JoinedBatch(
            left_batch.parts + right_batch.parts,
            _slots_at(left_batch, left_out) + _slots_at(right_batch,
                                                        right_out),
            range(count),
        )
        return left_bindings + right_bindings, joined

    def _combos_from_batch(self, batch: Any) -> list[Any]:
        """Materialize the row-path combo contract from a batch (above a
        subtree the columnar pipeline cannot take)."""
        if isinstance(batch, JoinedBatch):
            return [
                (batch.row_tuples(position),
                 pairs if self.collect_handles else None)
                for position, pairs in zip(batch.sel, entry_pairs(batch))
            ]
        label = batch.label
        rows = batch.rows()
        if self.collect_handles and batch.handles is not None \
                and label is not None:
            handles = map(batch.handles.__getitem__, batch.sel)
            return [
                ((row,), ((label, handle),))
                for row, handle in zip(rows, handles)
            ]
        return [((row,), None) for row in rows]

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
        node.actual_rows = len(rows)
        return (
            [(node.binding, columns)],
            [
                ((row,), ((pairs[i],) if pairs is not None else None))
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
            handles = candidates
            rows = table.batch_for_handles(handles).rows()
        if self.stats is not None:
            self.stats.rows_scanned += len(handles)
        columns = table.schema.column_names
        combos: list[Any] = []
        for handle, row in zip(handles, rows):
            pair: Any = None
            if self.collect_handles:
                pair = ((node.table_ref.table, handle),)
            combos.append(((row,), pair))
        node.actual_rows = len(combos)
        return [(node.binding, columns)], combos

    # -- filters ----------------------------------------------------------

    def _run_filter(self, node: Any, bindings: Any, combos: Any) -> Any:
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

    # -- joins ------------------------------------------------------------

    def _run_hash_join(self, node: Any, left: Any, right: Any) -> Any:
        left_bindings, left_combos = left
        right_bindings, right_combos = right
        right_key_values = self._key_values_fn(right_bindings,
                                               node.right_keys)
        left_key_values = self._key_values_fn(left_bindings, node.left_keys)
        left_out, right_out = _hash_match(
            left_combos, (left_key_values(combo[0]) for combo in left_combos),
            right_combos,
            (right_key_values(combo[0]) for combo in right_combos),
            len(node.right_keys), self._check_kinds,
        )
        joined = list(map(_merge, left_out, right_out))
        self._count_visited(len(joined))
        node.actual_rows = len(joined)
        node.mode = "row"
        return left_bindings + right_bindings, joined

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

    def _run_product(self, node: Any, left: Any, right: Any) -> Any:
        left_bindings, left_combos = left
        right_bindings, right_combos = right
        joined = [
            _merge(left_combo, right_combo)
            for left_combo in left_combos
            for right_combo in right_combos
        ]
        self._count_visited(len(joined))
        node.actual_rows = len(joined)
        return left_bindings + right_bindings, joined

    def _count_visited(self, count: int) -> None:
        if self.visited is None:
            self.visited = 0
        self.visited += count
        if self.stats is not None:
            self.stats.rows_visited += count

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
        matches SQL comparison would reject)."""
        evaluator = self.evaluator

        def interpreted_values(rows: Any) -> list[Any]:
            scope = self._scope_for(bindings, rows)
            return [evaluator.evaluate(expr, scope) for expr in key_exprs]

        return interpreted_values


_KIND_TAGS = {bool: "b", int: "n", float: "n", str: "s"}


def _hash_match(left: Any, left_keys: Any, right: Any, right_keys: Any,
                arity: int, check_kinds: Any) -> tuple[list[Any], list[Any]]:
    """Hash-join matching: ``(left_out, right_out)``, the matched entries
    of ``left`` and ``right`` pairwise in nested-loop order (left order,
    then right order within each match group). ``*_keys`` yield each
    entry's key values (right ones all consumed before the first left
    one). Key parts are tagged by kind, so Python's cross-kind
    equalities like ``True == 1`` cannot produce matches SQL comparison
    would reject; a NULL or NaN component never joins (NaN equals
    nothing, itself included — a dict lookup would match one NaN
    object to itself); and every probe value meets ``check_kinds``
    against the right side's kind witnesses — the comparison error the
    naive product would raise."""
    # key -> its first right entry, and -> the later ones (only for keys
    # seen twice: most build sides are unique on the key)
    heads: dict[Any, Any] = {}
    rest: dict[Any, list[Any]] = {}
    witnesses: list[dict[str, Any]] = [{} for _ in range(arity)]
    for entry, values in zip(right, right_keys):
        parts: list[tuple[str, Any]] = []
        for position, value in enumerate(values):
            if value is None:
                continue
            tag = _KIND_TAGS.get(type(value), "?")
            witnesses[position].setdefault(tag, value)
            if value == value:
                parts.append((tag, value))
        if len(parts) != arity:
            continue
        key = parts[0] if arity == 1 else tuple(parts)
        if key not in heads:
            heads[key] = entry
        elif key in rest:
            rest[key].append(entry)
        else:
            rest[key] = [entry]
    left_out: list[Any] = []
    right_out: list[Any] = []
    for entry, values in zip(left, left_keys):
        parts = []  # rebound per entry; same element type as above
        for position, value in enumerate(values):
            if value is None:
                continue
            check_kinds(value, witnesses[position])
            if value == value:
                parts.append((_KIND_TAGS.get(type(value), "?"), value))
        if len(parts) != arity:
            continue
        key = parts[0] if arity == 1 else tuple(parts)
        head = heads.get(key, heads)
        if head is heads:
            continue
        later = rest.get(key)
        if later is None:
            left_out.append(entry)
            right_out.append(head)
        else:
            left_out.extend(repeat(entry, 1 + len(later)))
            right_out.append(head)
            right_out.extend(later)
    return left_out, right_out


def _slots_at(batch: Any, entries: list[Any]) -> tuple[Any, ...]:
    """Per binding of ``batch``, the storage slots behind ``entries`` (a
    list of its selected entries): a one-binding batch's entries *are*
    slots, a joined batch's are positions into its slot vectors."""
    if batch.slots is None:
        return (entries,)
    return tuple(list(map(slots.__getitem__, entries))
                 for slots in batch.slots)


def _merge(left: Any, right: Any) -> tuple[Any, Any]:
    left_rows, left_pairs = left
    right_rows, right_pairs = right
    rows = left_rows + right_rows
    if left_pairs is None and right_pairs is None:
        return rows, None
    return rows, (left_pairs or (None,) * len(left_rows)) + (
        right_pairs or (None,) * len(right_rows)
    )

