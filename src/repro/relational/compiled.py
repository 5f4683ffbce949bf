"""Compiled-expression execution: ASTs translated to batch kernels.

The interpreter in :mod:`repro.relational.expressions` resolves every
column reference through a :class:`~repro.relational.expressions.Scope`
chain — a dict lookup plus a per-binding membership scan — *per row*.
That cost would dominate the system's hot paths: plan ``Filter`` nodes,
hash join keys, projections, grouping, DML WHERE identification and
assignments, and (through all of those) the selects a rule condition
runs, which the paper re-evaluates for every triggered rule after every
transition (§4, Figure 1).

This module translates an expression AST into a tree of *batch
kernels* against a fixed *layout* — the ordered ``(binding_name,
columns)`` pairs of a FROM clause. A kernel evaluates its node over a
whole selection vector of a :class:`~repro.relational.batch.Batch` or
:class:`~repro.relational.batch.JoinedBatch`; column references resolve
to column positions **once at compile time**, and three-valued logic,
comparison, arithmetic and type-error behaviour reuse the interpreter's
own helper functions so the two paths cannot drift.

Constructs whose value depends on machinery beyond the columns —
subqueries (they need the evaluator, its caches and the resolver),
aggregates outside a group batch, and column references that do not
resolve inside the layout (they belong to an outer query's scope) —
compile to *fallback* kernels that hand the subtree to the interpreter
one row at a time. A program whose tree contains a fallback reports
``needs_scope`` so callers supply the Scope the interpreter expects.

The invariance guarantee (docs/semantics.md §13): a program returns
exactly the values — and raises exactly the first error, in row order —
the interpreter would, for every expression and every selection. The
interpreter is both the fallback and the differential oracle
(``REPRO_VECTORIZED_EVAL=0`` runs it everywhere).

Programs live in the database's statement cache
(:mod:`repro.relational.plan.cache`), in the entry of the statement
their expression belongs to, keyed by ``(AST identity, layout,
predicate-ness)``: a repeated statement shape compiles once and
re-enters the kernels from then on. A cached statement's literals are
:class:`~repro.sql.ast.Param` leaves; a program reads their values from
the running evaluator's ``params``, so one program serves every
binding.
"""

from __future__ import annotations

import operator

from ..errors import ExecutionError, ReproError, TypeError_
from ..sql import ast
from ..sql.params import constant
from .expressions import (
    AGGREGATE_NAMES,
    ARITHMETIC,
    Scope,
    _apply_scalar_function,
    _like_to_regex,
    arithmetic,
    compare,
    logic_and,
    logic_not,
    logic_or,
)
from .stats import ZONE_SHIFT


def compile_program(database, node, layout, predicate, table):
    """Compile ``node`` against ``layout`` as the statement cache asks
    for it: a :class:`BatchProgram` whose kernels specialize on the
    catalog kinds of ``table``."""
    kinds = _table_kinds(database, table) if table is not None else None
    compile_batch = (
        compile_batch_predicate if predicate else compile_batch_expression
    )
    program = compile_batch(node, layout, kinds, database)
    counters = database.counters
    counters.typed_kernels += program.kernels_typed
    counters.generic_kernels += program.kernels_generic
    return program


def batch_program_for(database, node, layout, predicate=False, table=None,
                      statement=None):
    """The database's cached batch program for ``node``, an expression
    of ``statement`` (a cache entry; None: ``node`` is its own).
    ``table`` optionally names the base table backing the layout's
    columns, enabling typed-kernel specialization from catalog column
    types."""
    return database.statements.program_for(
        node, layout, database, predicate, table=table, statement=statement,
    )


_TYPED_DEPS = None


def _typed_deps():
    """Lazy imports for the typed-kernel layer (function-level to keep
    ``repro.relational.plan`` out of this module's import graph — it
    reaches back into the engine at import time)."""
    global _TYPED_DEPS
    if _TYPED_DEPS is None:
        from .plan.cost import KIND_OF_TYPE, expression_kind
        _TYPED_DEPS = (expression_kind, KIND_OF_TYPE)
    return _TYPED_DEPS


def _table_kinds(database, table):
    """Column → totality kind for one catalog table, or None when the
    table is unknown (transient layouts, dropped tables)."""
    try:
        schema = database.schema(table)
    except Exception:
        return None
    kind_of_type = _typed_deps()[1]
    return {
        column.name: kind_of_type[column.sql_type]
        for column in schema.columns
    }


def layout_of(bindings):
    """A hashable layout from a ``(name, columns)`` bindings list."""
    return tuple((name, tuple(columns)) for name, columns in bindings)


# ---------------------------------------------------------------------------
# layout resolution and node classification

class _LayoutNames:
    """Column-reference resolution against a layout, exactly as the
    interpreter's innermost :class:`~repro.relational.expressions.Scope`
    resolves: first column of a name wins within a binding, and an
    unqualified name two bindings share is ambiguous."""

    def __init__(self, layout):
        self.slots = {}   # (binding, column) -> (i, j)
        self.owners = {}  # column -> binding names, in layout order
        for i, (name, columns) in enumerate(layout):
            for j, column in enumerate(columns):
                self.slots.setdefault((name, column), (i, j))
                owners = self.owners.setdefault(column, [])
                if name not in owners:
                    owners.append(name)
        self.bindings = {name for name, _ in layout}

    def resolve(self, node):
        """The ``(i, j)`` slot a :class:`~repro.sql.ast.ColumnRef` reads;
        the message of the error the interpreter raises without looking
        outward; or None — the reference belongs to an enclosing scope
        (or to none, and the interpreter reports that)."""
        column, qualifier = node.column, node.qualifier
        if qualifier is None:
            owners = self.owners.get(column)
            if owners is None:
                return None
            if len(owners) > 1:
                return (f"ambiguous column reference {column!r} "
                        f"(could be any of: {', '.join(owners)})")
            qualifier = owners[0]
        elif qualifier not in self.bindings:
            return None
        slot = self.slots.get((qualifier, column))
        if slot is None:
            return f"table or alias {qualifier!r} has no column {column!r}"
        return slot


_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">=", "and", "or"})


def _always_boolean(node):
    """True when evaluating ``node`` can only yield True/False/None."""
    if isinstance(node, (ast.IsNull, ast.Between, ast.Like, ast.InList)):
        return True
    if isinstance(node, ast.BinaryOp):
        return node.op in _COMPARISON_OPS
    if isinstance(node, ast.UnaryOp):
        return node.op == "not"
    if isinstance(node, ast.Literal):
        return node.value is None or isinstance(node.value, bool)
    return False


#: node types that always delegate to the interpreter: subqueries need
#: the evaluator (resolver, subquery caches), and anything unknown is
#: safer interpreted than guessed at
_DYNAMIC_NODES = frozenset(
    {
        ast.InSelect,
        ast.Exists,
        ast.QuantifiedComparison,
        ast.ScalarSelect,
    }
)


# ---------------------------------------------------------------------------
# batch kernels
#
# A batch kernel evaluates one expression over a whole selection vector:
#
#     fn(ctx, sel) -> (values, err)
#
# ``sel`` is a list of slot positions into ``ctx.cols`` (the single
# binding's column lists); ``values`` aligns with a *prefix* of ``sel``.
# The invariant that makes row-order error parity compositional:
#
#     err is None   =>  len(values) == len(sel)
#     err not None  =>  len(values) <  len(sel), and ``err`` is exactly
#                       the error row-at-a-time evaluation would raise
#                       at row position len(values)
#
# Composite kernels restrict each child's domain to the prefix on which
# all earlier siblings succeeded (and, for AND/OR/CASE/IN, to the rows
# whose earlier values make the child reachable) — precisely the rows a
# row evaluator would touch before reaching the earliest error. A later
# child's error therefore always sits at a strictly earlier row than a
# pending one and takes precedence. The result: a batch program returns
# the same value prefix and raises the same first error as the
# interpreter evaluating the expression over ``sel`` row by row.


class BatchContext:
    """Everything a kernel tree needs besides the selection vector.

    ``cols`` are the single binding's slot-indexed column sequences —
    or, over a multi-binding layout (a :class:`~repro.relational.batch
    .JoinedBatch`), one such tuple per binding, with ``slots[b][p]`` the
    slot binding ``b`` contributes to position ``p``; ``scope_for``
    lazily builds the interpreter Scope for one selected entry
    (only called by fallback kernels — sites may pass ``None`` when the
    program reports no :attr:`BatchProgram.needs_scope`); ``evaluator``
    serves fallback subtrees and its ``params`` — the running
    statement's parameter vector — are what :class:`~repro.sql.ast
    .Param` kernels read; ``counters`` (``database.counters`` or
    ``None``) receives fallback-row counts. Over a group batch,
    ``aggregates`` maps ``id()`` of each aggregate node to its reduced
    column (selected entry → value, or :class:`Raised`).
    """

    __slots__ = ("cols", "slots", "scope_for", "evaluator", "params",
                 "counters", "aggregates")

    def __init__(self, cols, scope_for=None, evaluator=None, counters=None,
                 slots=None, aggregates=None):
        self.cols = cols
        self.slots = slots
        self.scope_for = scope_for
        self.evaluator = evaluator
        self.params = () if evaluator is None else evaluator.params
        self.counters = counters
        self.aggregates = aggregates


def batch_context(batch, bindings, outer, evaluator, counters):
    """The kernel context over a :class:`~repro.relational.batch.Batch`
    or :class:`~repro.relational.batch.JoinedBatch` whose fallback scopes
    mirror the row path's combination scopes (same bindings, same outer
    parent)."""
    if batch.slots is None:  # one binding (the common fallback, kept lean)
        (name, columns), = bindings
        row_of = batch.row

        def scope_for(entry):
            scope = Scope(parent=outer)
            scope.bind(name, columns, row_of(entry))
            return scope
    else:
        row_tuples = batch.row_tuples

        def scope_for(entry):
            scope = Scope(parent=outer)
            for (name, columns), row in zip(bindings, row_tuples(entry)):
                scope.bind(name, columns, row)
            return scope

    return BatchContext(batch.cols, scope_for, evaluator, counters,
                        slots=batch.slots)


class Raised:
    """A reduced aggregate cell whose evaluation raised: the error
    surfaces when — and only if — a kernel reads the cell, which is when
    the interpreter would have evaluated the aggregate for that group."""

    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error


class BatchProgram:
    """One compiled batch program: a kernel tree plus its metadata.

    ``kernels_typed`` / ``kernels_generic`` count the binary-operator
    kernels of the tree that compiled to type-specialized vs. generic
    (per-value dispatch) forms."""

    __slots__ = ("fn", "needs_scope", "nodes_compiled", "nodes_fallback",
                 "kernels_typed", "kernels_generic")

    def __init__(self, fn, needs_scope, nodes_compiled, nodes_fallback,
                 kernels_typed=0, kernels_generic=0):
        self.fn = fn
        self.needs_scope = needs_scope
        self.nodes_compiled = nodes_compiled
        self.nodes_fallback = nodes_fallback
        self.kernels_typed = kernels_typed
        self.kernels_generic = kernels_generic


def compile_batch_expression(expression, layout, kinds=None, database=None):
    """Compile ``expression`` to a :class:`BatchProgram` producing one
    value per selected row, with row-order error parity. ``kinds``
    (column → totality kind for the layout's single binding) and
    ``database`` enable type-specialized kernels; see
    :class:`_BatchCompiler`."""
    return _compile(expression, layout, kinds, database, predicate=False)


def compile_batch_predicate(expression, layout, kinds=None, database=None):
    """Compile ``expression`` as a batch predicate: values are coerced
    to True/False/None with the interpreter's non-boolean error."""
    return _compile(expression, layout, kinds, database, predicate=True)


def _compile(expression, layout, kinds, database, predicate):
    """The program of either kind. An integer out of float range makes a
    kernel's Python operator raise ``OverflowError`` (the fast paths and
    typed kernels do not check for it): the program then hands that
    selection to the interpreter, whose values and first error are the
    kernels' by definition."""
    compiler = _BatchCompiler(layout, kinds=kinds, database=database)
    if predicate:
        fn, needs_scope = compiler.compile_predicate(expression)
    else:
        fn, needs_scope = compiler.compile(expression)

    def program(ctx, sel):
        try:
            return fn(ctx, sel)
        except OverflowError:
            return _fallback_loop(ctx, sel, expression, predicate)

    return BatchProgram(
        program, needs_scope, compiler.nodes_compiled,
        compiler.nodes_fallback, compiler.kernels_typed,
        compiler.kernels_generic,
    )


def run_batch_programs(programs, ctx, sel):
    """Run value kernels left-to-right with row-path error ordering.

    Mirrors a row evaluator computing each program per row in order
    (items then sort keys, join keys, ...): each kernel sees only the
    prefix of ``sel`` on which every earlier kernel succeeded. Returns
    ``(value_lists, err)`` — the caller raises ``err`` when set.
    """
    lists = []
    err = None
    domain = sel
    for program in programs:
        values, kernel_err = program.fn(ctx, domain)
        if kernel_err is not None:
            err = kernel_err
            domain = domain[:len(values)]
        lists.append(values)
    n = len(domain)
    return [values[:n] for values in lists], err


def run_batch_expressions(database, expressions, layout, ctx, sel):
    """One value vector per expression over ``sel`` (the statement's
    cached kernels), raising the first error in row-major order."""
    statement = getattr(ctx.evaluator, "statement", None)
    programs = [
        batch_program_for(database, expression, layout, statement=statement)
        for expression in expressions
    ]
    database.counters.batches_scanned += 1
    value_lists, err = run_batch_programs(programs, ctx, sel)
    if err is not None:
        raise err
    return value_lists


def run_batch_filter(database, predicates, layout, ctx, sel, table=None):
    """Narrow ``sel`` through a conjunct chain of batch predicates.

    Each conjunct's kernel runs only over the survivors of the previous
    one — the domain-restriction form of the row path's short-circuit —
    so the first error in row order surfaces, exactly as iterating rows
    through the predicate list would. Returns the surviving selection
    vector; raises the pending error (if any) after the chain, since
    every selected row would eventually have been visited. ``table``
    optionally names the base table behind the layout (typed kernels).
    """
    counters = database.counters
    counters.batches_scanned += 1
    counters.batch_rows_scanned += len(sel)
    statement = getattr(ctx.evaluator, "statement", None)
    err = None
    for predicate in predicates:
        program = batch_program_for(
            database, predicate, layout, predicate=True, table=table,
            statement=statement,
        )
        values, kernel_err = program.fn(ctx, sel)
        sel = [sel[p] for p in range(len(values)) if values[p] is True]
        if kernel_err is not None:
            # strictly earlier in row order than any pending error: the
            # kernel's domain was the previous error's success prefix
            err = kernel_err
    if err is not None:
        raise err
    counters.batch_rows_selected += len(sel)
    return sel


def prune_selection(batch, specs, counters, params=()):
    """Zone-map pruning: drop selected slots whose whole storage zone
    cannot satisfy one of the ``(column_position, op, operand)`` specs,
    each operand a literal or a parameter bound by ``params``.

    Zone bounds are widen-only (see :mod:`repro.relational.stats`), so
    a zone's ``(min, max)`` always covers every live value in it — a
    zone the verdict rejects provably contains no row satisfying the
    conjunct, and the filter kernels never need to see it. A zone with
    no non-NULL value for the spec's column is also pruned: NULL never
    satisfies ``col op literal``. Specs only exist when the *whole*
    filter chain is total (see ``repro.relational.plan.cost``), so
    skipping rows cannot suppress an error.

    Returns the surviving selection vector — the same list object when
    nothing was pruned. Ascending contiguous selections (fresh full
    scans) are rebuilt from the passing zone ranges in O(zones + kept);
    anything else (index-lookup order, already-narrowed selections)
    takes a per-slot walk with memoized zone verdicts.
    """
    sel = batch.sel
    if not sel or not specs:
        return sel
    specs = [
        (position, op, constant(operand, params))
        for position, op, operand in specs
    ]
    zones = batch.zones
    verdicts = {}

    def prunable(zone):
        verdict = verdicts.get(zone)
        if verdict is None:
            verdict = False
            for position, op, value in specs:
                mins, maxs = zones[position]
                if zone >= len(mins):
                    continue  # untracked zone: keep it (conservative)
                low = mins[zone]
                if low is None:
                    verdict = True  # all-NULL zone for this column
                    break
                high = maxs[zone]
                if op == "=":
                    if value < low or value > high:
                        verdict = True
                        break
                elif op == "<":
                    if not low < value:
                        verdict = True
                        break
                elif op == "<=":
                    if not low <= value:
                        verdict = True
                        break
                elif op == ">":
                    if not high > value:
                        verdict = True
                        break
                elif op == ">=":
                    if not high >= value:
                        verdict = True
                        break
                elif low == value == high:  # op == "<>"
                    verdict = True
                    break
            verdicts[zone] = verdict
        return verdict

    first, last = sel[0], sel[-1]
    if batch.ordered and last - first == len(sel) - 1:
        pruned_any = False
        kept = []
        for zone in range(first >> ZONE_SHIFT, (last >> ZONE_SHIFT) + 1):
            if prunable(zone):
                pruned_any = True
            else:
                kept.extend(range(
                    max(first, zone << ZONE_SHIFT),
                    min(last, ((zone + 1) << ZONE_SHIFT) - 1) + 1,
                ))
        result = kept if pruned_any else sel
    else:
        result = [slot for slot in sel if not prunable(slot >> ZONE_SHIFT)]
        if len(result) == len(sel):
            result = sel
    counters.zones_considered += len(verdicts)
    counters.zones_pruned += sum(verdicts.values())
    counters.rows_zone_pruned += len(sel) - len(result)
    return result


class _BatchCompiler:
    """One batch-compilation pass over a layout.

    A single-binding layout (scans, filters over one table, DML
    targeting, transition tables, join sides) reads ``cols[j][slot]``
    for each selected slot; a multi-binding one (a columnar join's
    output) reads ``cols[i][j][slots[i][position]]`` for each selected
    position. Column references resolve as the interpreter's innermost
    scope does (:class:`_LayoutNames`).
    Aggregate calls read their group batch's reduced column, and
    delegate to the interpreter anywhere else.

    When ``kinds`` (column → totality kind from the catalog) and
    ``database`` are supplied, binary operators the totality analysis
    (:func:`repro.relational.plan.cost.expression_kind`) proves total
    over ``kinds`` compile to *monomorphic* kernels with no per-value
    type dispatch and no try/except (a total subtree cannot raise, so
    error parity is trivially preserved). Everything else keeps the
    generic kernels — the dynamic fallback, and without ``kinds`` the
    whole tree, which is how
    ``tests/property/test_inference_soundness.py`` obtains its
    typed-versus-generic oracle — and the interpreter remains the
    differential oracle for both.
    """

    def __init__(self, layout, kinds=None, database=None):
        self.nodes_compiled = 0
        self.nodes_fallback = 0
        self.kernels_typed = 0
        self.kernels_generic = 0
        self._names = _LayoutNames(layout)
        self._single = len(layout) == 1
        self._database = database
        self._layers = None
        self._verdicts = {}  # the pass's totality memo: id(node) -> kind
        if kinds is not None and database is not None and self._single:
            (binding, _), = layout
            # cost-model kind environment for the single binding; the
            # layout's column names are the schema's, so unqualified and
            # binding-qualified refs resolve exactly as the evaluator's
            self._layers = ({binding: dict(kinds)},)

    # -- static typing ----------------------------------------------------

    def _typed_slot(self, node):
        """The column position of a ref a single-binding layout owns, or
        None (the fused kernels gather straight off ``cols[j]``)."""
        if not self._single or not isinstance(node, ast.ColumnRef):
            return None
        slot = self._names.resolve(node)
        return slot[1] if isinstance(slot, tuple) else None

    def _try_typed_binary(self, node):
        """A monomorphic kernel for ``node`` when it is provably total,
        else None (the caller keeps the generic dispatching kernels).
        Kind ``"?"`` marks a provably-NULL operand, which the NULL check
        absorbs before the specialized operator ever runs."""
        expression_kind = _typed_deps()[0]
        if expression_kind(
            node, self._layers, self._database, self._verdicts
        ) is None:
            return None
        op = node.op
        if op in _PY_COMPARISONS:
            # same-kind operands order under the Python operator exactly
            # as compare() does (including int/float mixes within "n")
            return self._typed_zip(node, _PY_COMPARISONS[op])
        if op == "||":
            return self._typed_zip(node, operator.add)
        if op in ("+", "-", "*"):
            return self._typed_zip(node, ARITHMETIC[op])
        if op in ("%", "/"):
            # total only by a nonzero numeric literal divisor
            divisor = node.right.value
            if op == "%":
                return self._typed_map(node, lambda value: value % divisor)
            if type(divisor) is int:

                def divide(value):
                    # the interpreter's exact-integer-division rule
                    if type(value) is int:
                        quotient = value // divisor
                        if quotient * divisor == value:
                            return quotient
                    return value / divisor

            else:

                def divide(value):
                    return value / divisor

            return self._typed_map(node, divide)
        return None

    def _typed_zip(self, node, py_op):
        """Typed binary kernel: ``py_op`` straight over both operand
        streams. Totality of both subtrees makes the per-value dispatch
        and the try/except unnecessary; NULLs are the only remaining
        runtime case. A column-vs-literal shape fuses the gather into
        one pass."""
        right = node.right
        slot = self._typed_slot(node.left)
        if slot is not None and (
            type(right) is ast.Param
            or (type(right) is ast.Literal and right.value is not None)
        ):
            self.kernels_typed += 1
            self.nodes_compiled += 3  # column, literal, operator

            def fused(ctx, sel):
                col = ctx.cols[slot]
                value = constant(right, ctx.params)
                return [
                    None if (item := col[s]) is None else py_op(item, value)
                    for s in sel
                ], None

            return fused, False
        left, left_needs = self.compile(node.left)
        right_fn, right_needs = self.compile(node.right)
        self.kernels_typed += 1
        self.nodes_compiled += 1

        def typed(ctx, sel):
            left_values, right_values, err = _zip2(
                left, right_fn, ctx, sel
            )
            # zip stops at right_values (the shorter, on error prefixes)
            return [
                None if l is None or r is None else py_op(l, r)
                for l, r in zip(left_values, right_values)
            ], err

        return typed, left_needs or right_needs

    def _typed_map(self, node, fn):
        """Typed division/modulo kernel: the literal divisor is folded
        into ``fn``, leaving a NULL check as the only per-value branch."""
        slot = self._typed_slot(node.left)
        self.kernels_typed += 1
        if slot is not None:
            self.nodes_compiled += 3  # column, literal, operator

            def fused(ctx, sel):
                col = ctx.cols[slot]
                return [
                    None if (item := col[s]) is None else fn(item)
                    for s in sel
                ], None

            return fused, False
        left, needs = self.compile(node.left)
        self.nodes_compiled += 2  # the operator and the folded literal

        def mapped(ctx, sel):
            values, err = left(ctx, sel)
            return [
                None if value is None else fn(value) for value in values
            ], err

        return mapped, needs

    # -- dispatch ---------------------------------------------------------

    def compile(self, node):
        """Lower ``node``; returns ``(kernel, needs_scope)``."""
        handler = _BATCH_HANDLERS.get(type(node))
        if handler is None:
            return self._fallback(node)
        return handler(self, node)

    def compile_predicate(self, node):
        """Lower ``node`` with predicate coercion at the root — the
        batch mirror of ``Evaluator.evaluate_predicate``."""
        if type(node) in _DYNAMIC_NODES:
            self.nodes_fallback += 1

            def fallback_predicate(ctx, sel):
                return _fallback_loop(
                    ctx, sel, node, predicate=True
                )

            return fallback_predicate, True
        fn, needs_scope = self.compile(node)
        if _always_boolean(node):
            return fn, needs_scope

        def predicate(ctx, sel):
            values, err = fn(ctx, sel)
            for p, value in enumerate(values):
                if value is None or isinstance(value, bool):
                    continue
                return values[:p], ExecutionError(
                    f"predicate evaluated to non-boolean value {value!r}"
                )
            return values, err

        return predicate, needs_scope

    def _fallback(self, node):
        """Delegate ``node`` to the interpreter, one row at a time."""
        self.nodes_fallback += 1

        def fallback(ctx, sel):
            return _fallback_loop(ctx, sel, node, predicate=False)

        return fallback, True

    # -- leaves -----------------------------------------------------------

    def _compile_literal(self, node):
        self.nodes_compiled += 1
        value = node.value

        def literal(ctx, sel):
            return [value] * len(sel), None

        return literal, False

    def _compile_param(self, node):
        self.nodes_compiled += 1
        index = node.index

        def param(ctx, sel):
            return [ctx.params[index]] * len(sel), None

        return param, False

    def _error_kernel(self, make_error):
        # raised only if a row is actually evaluated — at row 0
        def error_kernel(ctx, sel):
            if sel:
                return [], make_error()
            return [], None

        return error_kernel, False

    def _compile_column_ref(self, node):
        slot = self._names.resolve(node)
        if slot is None:
            return self._fallback(node)  # outer scope (or unknown)
        self.nodes_compiled += 1
        if isinstance(slot, str):
            # the layout owns the name but cannot resolve it: error
            # without looking outward, like the interpreter
            return self._error_kernel(lambda: ExecutionError(slot))
        i, j = slot
        if self._single:

            def column_gather(ctx, sel):
                col = ctx.cols[j]
                return [col[s] for s in sel], None

            return column_gather, False

        def joined_gather(ctx, sel):
            col = ctx.cols[i][j]
            slots = ctx.slots[i]
            return [col[slots[p]] for p in sel], None

        return joined_gather, False

    def _compile_star(self, node):
        self.nodes_compiled += 1
        return self._error_kernel(
            lambda: ExecutionError(
                "'*' is only valid in select lists and count(*)"
            )
        )

    # -- operators --------------------------------------------------------

    def _compile_unary(self, node):
        op = node.op
        if op == "not":
            operand, needs = self.compile_predicate(node.operand)
            self.nodes_compiled += 1

            def negation(ctx, sel):
                values, err = operand(ctx, sel)
                return [logic_not(value) for value in values], err

            return negation, needs
        operand, needs = self.compile(node.operand)
        self.nodes_compiled += 1
        negate = op == "-"

        def unary(ctx, sel):
            values, err = operand(ctx, sel)
            out = []
            try:
                for value in values:
                    if value is None:
                        out.append(None)
                        continue
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        raise TypeError_(
                            f"unary {op} requires a number, got {value!r}"
                        )
                    out.append(-value if negate else value)
            except ReproError as error:
                return out, error
            return out, err

        return unary, needs

    def _compile_binary(self, node):
        op = node.op
        if op == "and":
            left, left_needs = self.compile_predicate(node.left)
            right, right_needs = self.compile_predicate(node.right)
            self.nodes_compiled += 1

            def conjunction(ctx, sel):
                left_values, left_err = left(ctx, sel)
                n = len(left_values)
                # short-circuit becomes domain restriction: the right
                # kernel only sees rows the row path would evaluate it on
                sub = [
                    sel[p] for p in range(n)
                    if left_values[p] is not False
                ]
                right_values, right_err = right(ctx, sub)
                out = []
                taken = 0
                for p in range(n):
                    value = left_values[p]
                    if value is False:
                        out.append(False)
                        continue
                    if taken == len(right_values):
                        return out, right_err
                    out.append(logic_and(value, right_values[taken]))
                    taken += 1
                return out, left_err

            return conjunction, left_needs or right_needs
        if op == "or":
            left, left_needs = self.compile_predicate(node.left)
            right, right_needs = self.compile_predicate(node.right)
            self.nodes_compiled += 1

            def disjunction(ctx, sel):
                left_values, left_err = left(ctx, sel)
                n = len(left_values)
                sub = [
                    sel[p] for p in range(n)
                    if left_values[p] is not True
                ]
                right_values, right_err = right(ctx, sub)
                out = []
                taken = 0
                for p in range(n):
                    value = left_values[p]
                    if value is True:
                        out.append(True)
                        continue
                    if taken == len(right_values):
                        return out, right_err
                    out.append(logic_or(value, right_values[taken]))
                    taken += 1
                return out, left_err

            return disjunction, left_needs or right_needs

        typed = self._try_typed_binary(node)
        if typed is not None:
            return typed

        left, left_needs = self.compile(node.left)
        right, right_needs = self.compile(node.right)
        needs = left_needs or right_needs
        self.nodes_compiled += 1

        if op in ("=", "<>", "<", "<=", ">", ">="):
            py_op = _PY_COMPARISONS[op]
            self.kernels_generic += 1

            def comparison(ctx, sel):
                left_values, right_values, err = _zip2(
                    left, right, ctx, sel
                )
                out = []
                append = out.append
                try:
                    for p in range(len(right_values)):
                        left_value = left_values[p]
                        right_value = right_values[p]
                        # same-type fast path: int/float/str/bool pairs
                        # order exactly as compare_values does; mixed
                        # kinds (and NULLs) take the checked slow path
                        if left_value is None or right_value is None:
                            append(None)
                        elif type(left_value) is type(right_value):
                            append(py_op(left_value, right_value))
                        else:
                            append(compare(op, left_value, right_value))
                except ReproError as error:
                    return out, error
                return out, err

            return comparison, needs

        if op == "||":
            self.kernels_generic += 1

            def concat(ctx, sel):
                left_values, right_values, err = _zip2(
                    left, right, ctx, sel
                )
                out = []
                try:
                    for p in range(len(right_values)):
                        left_value = left_values[p]
                        right_value = right_values[p]
                        if left_value is None or right_value is None:
                            out.append(None)
                            continue
                        if not isinstance(left_value, str) or not isinstance(
                            right_value, str
                        ):
                            raise TypeError_(
                                f"'||' requires strings, got {left_value!r} "
                                f"and {right_value!r}"
                            )
                        out.append(left_value + right_value)
                except ReproError as error:
                    return out, error
                return out, err

            return concat, needs

        if op in ("+", "-", "*", "%"):
            py_op = ARITHMETIC[op]
            modulo = op == "%"
            self.kernels_generic += 1

            def arithmetic(ctx, sel):
                left_values, right_values, err = _zip2(
                    left, right, ctx, sel
                )
                out = []
                append = out.append
                try:
                    for p in range(len(right_values)):
                        left_value = left_values[p]
                        right_value = right_values[p]
                        # numeric fast path (type(...) is int excludes
                        # bool); NULLs, booleans, strings and modulo-by-
                        # zero take the checked slow path
                        left_type = type(left_value)
                        right_type = type(right_value)
                        if (
                            (left_type is int or left_type is float)
                            and (right_type is int or right_type is float)
                            and not (modulo and right_value == 0)
                        ):
                            append(py_op(left_value, right_value))
                        else:
                            append(_arith(op, left_value, right_value))
                except ReproError as error:
                    return out, error
                return out, err

            return arithmetic, needs

        if op == "/":
            self.kernels_generic += 1

            def division(ctx, sel):
                left_values, right_values, err = _zip2(
                    left, right, ctx, sel
                )
                out = []
                try:
                    for p in range(len(right_values)):
                        out.append(
                            _arith(op, left_values[p], right_values[p])
                        )
                except ReproError as error:
                    return out, error
                return out, err

            return division, needs

        message = f"unknown binary operator {op!r}"
        return self._error_kernel(lambda: ExecutionError(message))

    # -- predicates -------------------------------------------------------

    def _compile_is_null(self, node):
        operand, needs = self.compile(node.operand)
        self.nodes_compiled += 1
        negated = node.negated

        def is_null(ctx, sel):
            values, err = operand(ctx, sel)
            if negated:
                return [value is not None for value in values], err
            return [value is None for value in values], err

        return is_null, needs

    def _compile_between(self, node):
        operand, operand_needs = self.compile(node.operand)
        low, low_needs = self.compile(node.low)
        high, high_needs = self.compile(node.high)
        self.nodes_compiled += 1
        negated = node.negated

        def between(ctx, sel):
            values, err = operand(ctx, sel)
            domain = sel if err is None else sel[:len(values)]
            low_values, low_err = low(ctx, domain)
            if low_err is not None:
                err = low_err
                domain = domain[:len(low_values)]
            high_values, high_err = high(ctx, domain)
            if high_err is not None:
                err = high_err
            out = []
            try:
                for p in range(len(high_values)):
                    result = logic_and(
                        compare("<=", low_values[p], values[p]),
                        compare("<=", values[p], high_values[p]),
                    )
                    out.append(logic_not(result) if negated else result)
            except ReproError as error:
                return out, error
            return out, err

        return between, operand_needs or low_needs or high_needs

    def _compile_like(self, node):
        operand, operand_needs = self.compile(node.operand)
        negated = node.negated
        pattern = node.pattern
        if (type(pattern) is ast.Param and pattern.kind == "s") or (
            type(pattern) is ast.Literal and isinstance(pattern.value, str)
        ):
            # one pattern per scan: its (memoized) regex is looked up
            # once, not per row
            self.nodes_compiled += 2  # the Like node and its pattern

            def like_constant(ctx, sel):
                values, err = operand(ctx, sel)
                regex = _like_to_regex(constant(pattern, ctx.params))
                out = []
                try:
                    for value in values:
                        if value is None:
                            out.append(None)
                            continue
                        if not isinstance(value, str):
                            raise TypeError_("LIKE requires string operands")
                        result = bool(regex.match(value))
                        out.append(not result if negated else result)
                except ReproError as error:
                    return out, error
                return out, err

            return like_constant, operand_needs
        pattern, pattern_needs = self.compile(node.pattern)
        self.nodes_compiled += 1

        def like(ctx, sel):
            values, pattern_values, err = _zip2(operand, pattern, ctx, sel)
            out = []
            try:
                for p in range(len(pattern_values)):
                    value = values[p]
                    pattern_value = pattern_values[p]
                    if value is None or pattern_value is None:
                        out.append(None)
                        continue
                    if not isinstance(value, str) or not isinstance(
                        pattern_value, str
                    ):
                        raise TypeError_("LIKE requires string operands")
                    result = bool(_like_to_regex(pattern_value).match(value))
                    out.append(not result if negated else result)
            except ReproError as error:
                return out, error
            return out, err

        return like, operand_needs or pattern_needs

    def _compile_in_list(self, node):
        operand, needs = self.compile(node.operand)
        items = []
        for item in node.items:
            item_fn, item_needs = self.compile(item)
            items.append(item_fn)
            needs = needs or item_needs
        self.nodes_compiled += 1
        negated = node.negated

        def in_list(ctx, sel):
            # row path: items are evaluated lazily per row, stopping at
            # the first match. Vectorized: each item kernel runs over
            # the rows still undecided — exactly the rows whose item
            # the row path would evaluate — tracking the earliest error.
            values, err = operand(ctx, sel)
            cut = len(values)
            matched = [False] * cut
            unknown = [False] * cut
            pending = list(range(cut))
            for item_fn in items:
                if not pending:
                    break
                domain = [sel[p] for p in pending]
                item_values, item_err = item_fn(ctx, domain)
                still = []
                k = 0
                try:
                    for k in range(len(item_values)):
                        p = pending[k]
                        result = compare("=", values[p], item_values[k])
                        if result is True:
                            matched[p] = True
                        else:
                            if result is None:
                                unknown[p] = True
                            still.append(p)
                except ReproError as error:
                    cut = pending[k]
                    err = error
                    pending = still
                    continue
                if item_err is not None:
                    cut = pending[len(item_values)]
                    err = item_err
                pending = still
            out = []
            for p in range(cut):
                if matched[p]:
                    out.append(False if negated else True)
                elif unknown[p]:
                    out.append(None)
                else:
                    out.append(True if negated else False)
            return out, err

        return in_list, needs

    # -- functions --------------------------------------------------------

    def _compile_aggregate(self, node):
        """An aggregate reads the reduced column a group batch carries
        for it; without one (a nested aggregate, an aggregate outside
        any grouping) the interpreter resolves it per row, through the
        scope chain the fallback scopes hang off."""
        self.nodes_compiled += 1
        key = id(node)

        def aggregate(ctx, sel):
            reduced = ctx.aggregates
            column = None if reduced is None else reduced.get(key)
            if column is None:
                return _fallback_loop(ctx, sel, node, predicate=False)
            out = []
            for entry in sel:
                value = column[entry]
                if type(value) is Raised:
                    return out, value.error
                out.append(value)
            return out, None

        return aggregate, True

    def _compile_function_call(self, node):
        if node.name in AGGREGATE_NAMES:
            return self._compile_aggregate(node)
        args = []
        needs = False
        for arg in node.args:
            arg_fn, arg_needs = self.compile(arg)
            args.append(arg_fn)
            needs = needs or arg_needs
        self.nodes_compiled += 1
        name = node.name

        def function_call(ctx, sel):
            arg_lists = []
            err = None
            domain = sel
            for arg_fn in args:
                arg_values, arg_err = arg_fn(ctx, domain)
                if arg_err is not None:
                    err = arg_err
                    domain = domain[:len(arg_values)]
                arg_lists.append(arg_values)
            out = []
            try:
                for p in range(len(domain)):
                    out.append(
                        _apply_scalar_function(
                            name,
                            [arg_values[p] for arg_values in arg_lists],
                        )
                    )
            except ReproError as error:
                return out, error
            return out, err

        return function_call, needs

    def _compile_case(self, node):
        branches = []
        needs = False
        for condition, value in node.branches:
            condition_fn, condition_needs = self.compile_predicate(condition)
            value_fn, value_needs = self.compile(value)
            branches.append((condition_fn, value_fn))
            needs = needs or condition_needs or value_needs
        default = None
        if node.default is not None:
            default, default_needs = self.compile(node.default)
            needs = needs or default_needs
        self.nodes_compiled += 1

        def case(ctx, sel):
            # branch domains partition the batch: each condition kernel
            # runs over rows no earlier branch matched, each value
            # kernel over rows its condition matched — the rows the row
            # path would evaluate them on. Errors keep the earliest row.
            n = len(sel)
            cut = n
            err = None
            out_values = [None] * n
            pending = list(range(n))
            for condition_fn, value_fn in branches:
                if not pending:
                    break
                domain = [sel[p] for p in pending]
                cond_values, cond_err = condition_fn(ctx, domain)
                taken = []
                rest = []
                for k in range(len(cond_values)):
                    p = pending[k]
                    if cond_values[k] is True:
                        taken.append(p)
                    else:
                        rest.append(p)
                if cond_err is not None:
                    at = pending[len(cond_values)]
                    if at < cut:
                        cut = at
                        err = cond_err
                taken = [p for p in taken if p < cut]
                value_values, value_err = value_fn(
                    ctx, [sel[p] for p in taken]
                )
                for k in range(len(value_values)):
                    out_values[taken[k]] = value_values[k]
                if value_err is not None:
                    at = taken[len(value_values)]
                    if at < cut:
                        cut = at
                        err = value_err
                pending = [p for p in rest if p < cut]
            if default is not None and pending:
                default_values, default_err = default(
                    ctx, [sel[p] for p in pending]
                )
                for k in range(len(default_values)):
                    out_values[pending[k]] = default_values[k]
                if default_err is not None:
                    at = pending[len(default_values)]
                    if at < cut:
                        cut = at
                        err = default_err
            return out_values[:cut], err

        return case, needs


#: Python comparisons backing the same-type kernel fast paths: they
#: match compare_values exactly on the types the fast path admits
_PY_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _zip2(left, right, ctx, sel):
    """Chain two value kernels: the right one runs over the prefix the
    left one succeeded on; returns ``(left_values, right_values, err)``
    with the right kernel's error (strictly earlier row) preferred."""
    left_values, left_err = left(ctx, sel)
    if len(left_values) != len(sel):
        sel = sel[:len(left_values)]
    right_values, right_err = right(ctx, sel)
    return (
        left_values,
        right_values,
        right_err if right_err is not None else left_err,
    )


def _arith(op, left_value, right_value):
    """One arithmetic application: the interpreter's, NULL included."""
    if left_value is None or right_value is None:
        return None
    return arithmetic(op, left_value, right_value)


def _fallback_loop(ctx, sel, node, predicate):
    """Per-row interpreter escape for subtrees the batch compiler cannot
    lower (subqueries, aggregates, outer references)."""
    counters = ctx.counters
    if counters is not None:
        counters.batch_fallback_rows += len(sel)
    evaluator = ctx.evaluator
    scope_for = ctx.scope_for
    out = []
    try:
        if predicate:
            for slot in sel:
                out.append(
                    evaluator.evaluate_predicate(node, scope_for(slot))
                )
        else:
            for slot in sel:
                out.append(evaluator.evaluate(node, scope_for(slot)))
    except ReproError as error:
        return out, error
    return out, None


_BATCH_HANDLERS = {
    ast.Literal: _BatchCompiler._compile_literal,
    ast.Param: _BatchCompiler._compile_param,
    ast.ColumnRef: _BatchCompiler._compile_column_ref,
    ast.Star: _BatchCompiler._compile_star,
    ast.UnaryOp: _BatchCompiler._compile_unary,
    ast.BinaryOp: _BatchCompiler._compile_binary,
    ast.IsNull: _BatchCompiler._compile_is_null,
    ast.Between: _BatchCompiler._compile_between,
    ast.Like: _BatchCompiler._compile_like,
    ast.InList: _BatchCompiler._compile_in_list,
    ast.FunctionCall: _BatchCompiler._compile_function_call,
    ast.CaseExpression: _BatchCompiler._compile_case,
}
