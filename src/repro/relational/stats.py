"""Zone maps, and the counters of query evaluation.

Every table carries a :class:`TableStats`: per column, per zone of
:data:`ZONE_SIZE` consecutive storage slots, the (min, max) of the
zone's non-NULL values. The three storage set mutators
(``insert_columns``/``delete_many``/``assign_columns`` in
:mod:`repro.relational.table`) keep it *inline*, so the maps stay sound
across transaction undo and context-switch replay, which restore state
through the very same mutators, and across direct DML that never
reaches the rule engine.

The bounds are **widen-only**: inserts, replacements and revived slots
widen them, deletions are ignored, so a zone's range always covers
every live value in it. Compaction, a merge insert and recovery
rebuild them exactly from storage. A batch filter may skip a whole
zone whenever a total ``column op literal`` conjunct cannot hold
anywhere in the zone's range (see
:func:`repro.relational.compiled.prune_selection`).

A NaN orders against nothing, so no finite range covers it: a NaN
widens the bounds of its zone to ``(-inf, inf)``. Such a zone is
pruned only by a conjunct that no value satisfies, and ``col <>
literal`` still sees its NaN rows.
"""

from __future__ import annotations

from math import inf
from operator import attrgetter, ne, sub

#: zone size in storage slots (a power of two; zone = slot >> ZONE_SHIFT)
ZONE_SHIFT = 8
ZONE_SIZE = 1 << ZONE_SHIFT


def _pad(mins, maxs, zone):
    """Extend one column's zone lists to cover ``zone``."""
    missing = zone + 1 - len(mins)
    if missing > 0:
        mins.extend([None] * missing)
        maxs.extend([None] * missing)


def _widen_zone(mins, maxs, zone, low, high):
    """Widen one zone's range to cover ``low`` .. ``high``."""
    if mins[zone] is None:
        mins[zone] = low
        maxs[zone] = high
    else:
        if low < mins[zone]:
            mins[zone] = low
        if high > maxs[zone]:
            maxs[zone] = high


def _bounds(values):
    """``(lowest, highest)`` of non-NULL ``values``; ``(-inf, inf)``
    when a NaN is among them."""
    low = min(values)
    high = max(values)
    if type(low) is float and any(map(ne, values, values)):
        return -inf, inf
    return low, high


def _widen_slots(mins, maxs, slots, values):
    """Widen the zones of ``slots`` to cover the aligned ``values``."""
    for slot, value in zip(slots, values):
        if value is not None:
            zone = slot >> ZONE_SHIFT
            low = mins[zone]
            if value != value:  # NaN
                mins[zone] = -inf
                maxs[zone] = inf
            elif low is None:
                mins[zone] = maxs[zone] = value
            elif value < low:
                mins[zone] = value
            elif value > maxs[zone]:
                maxs[zone] = value


def _non_null(values):
    if None in values:
        return [value for value in values if value is not None]
    return values


class TableStats:
    """The per-column zone maps of one table.

    ``zones`` is one ``(mins, maxs)`` pair of parallel lists per column,
    indexed by zone number; a ``None`` min marks a zone with no non-NULL
    value observed for that column.
    """

    __slots__ = ("zones",)

    def __init__(self, arity):
        self.zones = tuple(([], []) for _ in range(arity))

    # -- incremental folding (called by the Table set mutators) -----------
    #
    # Each fold takes whole value vectors, one pass per column. Folding
    # a set of tuples in one call, or split into several, gives what
    # folding its tuples one at a time gives.

    def on_insert(self, first_slot, columns):
        """Rows appended at consecutive slots from ``first_slot``, given
        as one value vector per schema column."""
        count = len(columns[0])
        zone = first_slot >> ZONE_SHIFT
        last_zone = (first_slot + count - 1) >> ZONE_SHIFT
        # where the vectors cross into the next zone, and the next, ...
        cuts = [0, *range(((zone + 1) << ZONE_SHIFT) - first_slot, count,
                          ZONE_SIZE), count]
        for (mins, maxs), values in zip(self.zones, columns):
            if last_zone >= len(mins):
                # pad: rebuilds truncate to the last *live* zone, but new
                # slots append past any trailing tombstoned region
                _pad(mins, maxs, last_zone)
            for number, start in enumerate(cuts[:-1]):
                part = _non_null(values[start:cuts[number + 1]])
                if part:
                    _widen_zone(mins, maxs, zone + number, *_bounds(part))

    def on_revive(self, slots, columns):
        """Rows written at arbitrary ``slots`` — revived tombstones, or
        slots past the end — given as one value vector per schema
        column aligned with ``slots``."""
        zone = max(slots) >> ZONE_SHIFT
        for (mins, maxs), values in zip(self.zones, columns):
            if zone >= len(mins):
                _pad(mins, maxs, zone)
            _widen_slots(mins, maxs, slots, values)

    def on_assign(self, slots, assigned):
        """The rows at ``slots`` were overwritten in some columns:
        ``assigned`` holds ``(position, new values)`` per assigned
        column, aligned with ``slots``. A column that was not assigned
        keeps values its zones already cover."""
        zone = min(slots) >> ZONE_SHIFT
        last_zone = max(slots) >> ZONE_SHIFT
        for position, new in assigned:
            mins, maxs = self.zones[position]
            if last_zone >= len(mins):
                _pad(mins, maxs, last_zone)
            if zone != last_zone:
                _widen_slots(mins, maxs, slots, new)
                continue
            part = _non_null(new)
            if part:
                _widen_zone(mins, maxs, zone, *_bounds(part))

    def rebuild(self, cols, live_slots):
        """Recompute every zone exactly from columnar storage.

        ``cols`` are the table's slot-indexed column lists and
        ``live_slots`` the live slots in scan order, which is ascending
        (dead slots must be excluded — after compaction that is simply
        every slot).
        """
        self.zones = tuple(([], []) for _ in cols)
        if live_slots:
            top_zone = live_slots[-1] >> ZONE_SHIFT
            for (mins, maxs), column in zip(self.zones, cols):
                _pad(mins, maxs, top_zone)
                _widen_slots(mins, maxs, live_slots,
                             list(map(column.__getitem__, live_slots)))


class Counters:
    """Monotone counters declared by their slots alone: :meth:`reset`
    zeroes every slot and :meth:`snapshot` lists them in slot order."""

    __slots__ = ()

    def __init__(self):
        self.reset()

    def reset(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}


#: the evaluation counters charged to the rule whose condition or
#: action ran (docs/semantics.md §7), by their ``stats()["rules"]`` names
RULE_FIELDS = (
    "rows_scanned", "rows_visited", "rows_returned", "plan_cache_hits",
    "plan_cache_misses", "compiles", "compile_cache_hits",
    "compile_cache_misses", "batches_scanned", "batch_rows_scanned",
    "batch_rows_selected", "batch_fallback_rows", "grouped_batches",
    "group_scope_fallbacks", "zones_pruned", "rows_zone_pruned",
)

_rule_counts = attrgetter(*RULE_FIELDS)

#: the ``stats()`` sections :meth:`EvaluationCounters.sections` renders:
#: ``(section, prefix its keys drop, entries in key order)``; an entry
#: is a counter, or ``(key, numerator, *denominator terms)`` for a rate
_SECTIONS = (
    ("planner", "", (
        "plans_built", "plan_cache_hits", "plan_cache_misses",
        "plan_cache_invalidations",
        ("plan_cache_hit_rate", "plan_cache_hits", "plan_cache_hits",
         "plan_cache_misses"),
        "rows_scanned", "rows_visited", "rows_returned",
    )),
    ("compiler", "compile_", (
        "compiles", "compile_cache_hits", "compile_cache_misses",
        ("cache_hit_rate", "compile_cache_hits", "compile_cache_hits",
         "compile_cache_misses"),
        "compile_invalidations", "nodes_compiled", "nodes_fallback",
        ("fallback_rate", "nodes_fallback", "nodes_compiled",
         "nodes_fallback"),
    )),
    ("vectorized", "batch_", (
        "batches_scanned", "batch_rows_scanned", "batch_rows_selected",
        ("selection_hit_rate", "batch_rows_selected", "batch_rows_scanned"),
        "batch_fallback_rows", "batch_row_fallbacks", "grouped_batches",
        "group_scope_fallbacks", "typed_kernels", "generic_kernels",
    )),
    ("optimizer", "", (
        "zones_considered", "zones_pruned",
        ("zone_prune_rate", "zones_pruned", "zones_considered"),
        "rows_zone_pruned",
    )),
)


class EvaluationCounters(Counters):
    """The database's counters of query evaluation, ``database.counters``.

    The plan cache and executor count plans and the rows a select
    scans, visits and returns (the naive reference under
    ``tests/reference/`` counts ``rows_scanned`` / ``rows_visited``
    into the same slots, so planned-versus-naive comparisons read like
    for like); the statement cache counts compiled programs and their
    AST nodes, kernel-compiled or delegated to the interpreter; the
    batch kernels count scans (one filter chain, projection, key
    extraction or count fold over one selection vector), the vector
    sizes entering and surviving filters, per-row interpreter escapes
    (``batch_fallback_rows``), call sites that took the row path
    (``batch_row_fallbacks``), grouped selects reduced over column
    vectors or through ``GroupScope``, and typed versus generic operator
    kernels; zone pruning counts the zones it considered and pruned and
    the rows those held. The engine takes :meth:`counters` before a
    condition or action runs and charges :meth:`delta_since` to the rule.
    """

    __slots__ = RULE_FIELDS + (
        "plans_built", "plan_cache_invalidations", "compile_invalidations",
        "nodes_compiled", "nodes_fallback", "batch_row_fallbacks",
        "typed_kernels", "generic_kernels", "zones_considered",
    )

    def counters(self):
        """The :data:`RULE_FIELDS` values as a tuple."""
        return _rule_counts(self)

    def delta_since(self, before):
        """``{field: increment}`` of :data:`RULE_FIELDS` relative to a
        :meth:`counters` tuple."""
        return dict(zip(RULE_FIELDS, map(sub, _rule_counts(self), before)))

    def sections(self, vectorized):
        """``stats()``'s planner, compiler, vectorized and optimizer
        sections; ``vectorized`` is the ``enabled`` flag of the third."""
        rendered = {}
        for section, prefix, entries in _SECTIONS:
            values = rendered[section] = {}
            for entry in entries:
                if type(entry) is str:
                    values[entry.removeprefix(prefix)] = getattr(self, entry)
                else:
                    key, part, *whole = entry
                    total = sum(getattr(self, name) for name in whole)
                    values[key] = getattr(self, part) / total if total else 0.0
        rendered["vectorized"]["enabled"] = vectorized
        return rendered
