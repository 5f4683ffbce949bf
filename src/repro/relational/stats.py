"""Zone maps, and the counters of zone pruning.

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
from operator import ne

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


#: optimizer counters whose deltas the engine attaches to rule events
OPTIMIZER_DELTA_FIELDS = ("zones_pruned", "rows_zone_pruned")


class OptimizerStats:
    """Monotone counters of zone-map pruning in the vectorized filter
    path: zones considered, zones pruned, and the rows they held."""

    __slots__ = ("zones_considered", "zones_pruned", "rows_zone_pruned")

    def __init__(self):
        self.reset()

    def reset(self):
        self.zones_considered = 0
        self.zones_pruned = 0
        self.rows_zone_pruned = 0

    def snapshot(self):
        considered = self.zones_considered
        return {
            "zones_considered": considered,
            "zones_pruned": self.zones_pruned,
            "zone_prune_rate": (
                self.zones_pruned / considered if considered else 0.0
            ),
            "rows_zone_pruned": self.rows_zone_pruned,
        }

    def counters(self):
        """The :data:`OPTIMIZER_DELTA_FIELDS` values as a tuple."""
        return tuple(
            getattr(self, name) for name in OPTIMIZER_DELTA_FIELDS
        )

    def delta_since(self, before):
        """``{field: increment}`` relative to a :meth:`counters` tuple."""
        return {
            name: getattr(self, name) - then
            for name, then in zip(OPTIMIZER_DELTA_FIELDS, before)
        }
