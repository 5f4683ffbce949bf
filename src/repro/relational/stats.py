"""Live table statistics and zone maps for the cost-based optimizer.

Every table carries a :class:`TableStats` maintained *inline* by the
three storage set mutators (``insert_columns``/``delete_many``/
``assign_columns`` in :mod:`repro.relational.table`). Folding at the
mutator level — rather than from the engine's ``[I, D, U]`` net-effect points — means the
statistics stay exact across transaction undo and context-switch
replay, which restore state through the very same mutators, and across
direct DML that never reaches the rule engine.

What is maintained, and how exact it is between rebuilds:

* ``row_count`` and per-column ``nulls`` — **exact** always (inserts and
  deletes see the full row, so both fold reversibly);
* per-column ``minimum``/``maximum`` — **widen-only** bounds: inserts
  and replacements widen them, deletions cannot shrink them, so they
  always *bracket* the true extrema (exactly the conservative direction
  selectivity interpolation and zone pruning need);
* per-column NDV — a bounded distinct-value set (exact until it
  saturates at :data:`DISTINCT_CAP` values, then a lower bound).

Deletes and replacements therefore accumulate *drift*; once drift
exceeds the table's size the stats are rebuilt from storage (an
amortized O(columns) cost per mutation) and the database's
``stats_epoch`` is bumped so the plan cache re-plans. Checkpoint
compaction triggers the same rebuild (see ``Table.compact``).

**Zone maps** live here too: per column, per zone of
:data:`ZONE_SIZE` consecutive storage slots, the (min, max) of the
zone's non-NULL values. They obey the same widen-only discipline
(replacements and revived slots widen, deletions are ignored,
compaction and a merge insert rebuild), so a
zone's range always covers every live value in it — a batch filter may
skip a whole zone whenever a total ``column op literal`` conjunct
cannot hold anywhere in the zone's range (see
:func:`repro.relational.compiled.prune_selection`).

A NaN orders against nothing, so no finite range covers it: a NaN
widens every bound it meets — its zone's and its column's — to
``(-inf, inf)``. Such a zone is pruned only by a conjunct that no
value satisfies, and ``col <> literal`` still sees its NaN rows.
"""

from __future__ import annotations

from math import inf
from operator import ne

#: distinct-set size bound per column; beyond it NDV becomes a lower
#: bound (the estimator then assumes a near-unique column, which errs
#: toward "an equality predicate is very selective")
DISTINCT_CAP = 1024

#: zone size in storage slots (a power of two; zone = slot >> ZONE_SHIFT)
ZONE_SHIFT = 8
ZONE_SIZE = 1 << ZONE_SHIFT

#: rebuild once drift (deletes + replacements since the last rebuild)
#: exceeds max(this floor, the row count at the last rebuild)
REBUILD_MIN_DRIFT = 64


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


class ColumnStats:
    """Widen-only summary of one column's live values."""

    __slots__ = ("minimum", "maximum", "nulls", "distinct", "saturated")

    def __init__(self):
        self.minimum = None
        self.maximum = None
        self.nulls = 0
        self.distinct = set()
        self.saturated = False

    def observe(self, values):
        """Fold a vector of values that entered the column; returns
        their ``(lowest, highest)``, or None when all of them are NULL."""
        nulls = values.count(None)
        if nulls:
            self.nulls += nulls
            if nulls == len(values):
                return None
            values = [value for value in values if value is not None]
        low, high = _bounds(values)
        if self.minimum is None:
            self.minimum = low
            self.maximum = high
        else:
            if low < self.minimum:
                self.minimum = low
            if high > self.maximum:
                self.maximum = high
        if not self.saturated:
            distinct = self.distinct
            if len(distinct) + len(values) < DISTINCT_CAP:
                distinct.update(values)
            else:
                for value in values:
                    distinct.add(value)
                    if len(distinct) >= DISTINCT_CAP:
                        self.saturated = True
                        break
        return low, high

    def forget(self, values):
        """Values that left the column: only the exact counter shrinks."""
        self.nulls -= values.count(None)

    def ndv(self, non_null_rows):
        """Estimated number of distinct non-NULL values.

        Exact while the distinct set has not saturated; afterwards the
        column is assumed near-unique (``max(cap, live non-null rows)``),
        which deliberately *overestimates* NDV — an equality predicate is
        then costed as highly selective, the safe direction for access-
        path choices backed by an exact index ``key_count`` when one
        exists.
        """
        if not self.saturated:
            return len(self.distinct)
        return max(DISTINCT_CAP, non_null_rows)

    def snapshot(self, non_null_rows):
        return {
            "min": self.minimum,
            "max": self.maximum,
            "nulls": self.nulls,
            "ndv": self.ndv(non_null_rows),
            "exact_ndv": not self.saturated,
        }


class TableStats:
    """Per-table statistics plus the per-column zone maps.

    ``zones`` is one ``(mins, maxs)`` pair of parallel lists per column,
    indexed by zone number; a ``None`` min marks a zone with no non-NULL
    value observed for that column.
    """

    __slots__ = ("row_count", "columns", "zones", "drift", "rows_at_rebuild")

    def __init__(self, arity):
        self.row_count = 0
        self.columns = tuple(ColumnStats() for _ in range(arity))
        self.zones = tuple(([], []) for _ in range(arity))
        self.drift = 0
        self.rows_at_rebuild = 0

    # -- incremental folding (called by the Table set mutators) -----------
    #
    # Each fold takes whole value vectors, one pass per column. Folding
    # a set of tuples in one call, or split into several, gives what
    # folding its tuples one at a time gives.

    def on_insert(self, first_slot, columns):
        """Rows appended at consecutive slots from ``first_slot``, given
        as one value vector per schema column."""
        count = len(columns[0])
        self.row_count += count
        zone = first_slot >> ZONE_SHIFT
        last_zone = (first_slot + count - 1) >> ZONE_SHIFT
        # where the vectors cross into the next zone, and the next, ...
        cuts = [0, *range(((zone + 1) << ZONE_SHIFT) - first_slot, count,
                          ZONE_SIZE), count]
        for stats, (mins, maxs), values in zip(
            self.columns, self.zones, columns
        ):
            if last_zone >= len(mins):
                # pad: rebuilds truncate to the last *live* zone, but new
                # slots append past any trailing tombstoned region
                _pad(mins, maxs, last_zone)
            bounds = stats.observe(values)
            if bounds is None:
                continue
            if zone == last_zone:
                _widen_zone(mins, maxs, zone, *bounds)
                continue
            for number, start in enumerate(cuts[:-1]):
                part = [value for value in values[start:cuts[number + 1]]
                        if value is not None]
                if part:
                    _widen_zone(mins, maxs, zone + number, *_bounds(part))

    def on_revive(self, slots, columns):
        """Rows written at arbitrary ``slots`` — revived tombstones, or
        slots past the end — given as one value vector per schema
        column aligned with ``slots``."""
        self.row_count += len(slots)
        zone = max(slots) >> ZONE_SHIFT
        for stats, (mins, maxs), values in zip(
            self.columns, self.zones, columns
        ):
            if zone >= len(mins):
                _pad(mins, maxs, zone)
            if stats.observe(values) is not None:
                _widen_slots(mins, maxs, slots, values)

    def on_delete(self, rows):
        """The deleted ``rows`` (value tuples) left the table."""
        self.row_count -= len(rows)
        self.drift += len(rows)
        for stats, values in zip(self.columns, zip(*rows)):
            stats.forget(values)

    def on_assign(self, slots, assigned):
        """The rows at ``slots`` were overwritten in some columns:
        ``assigned`` holds ``(position, old values, new values)`` per
        assigned column, aligned with ``slots``. A column that was not
        assigned keeps values this summary already covers."""
        self.drift += len(slots)
        zone = min(slots) >> ZONE_SHIFT
        last_zone = max(slots) >> ZONE_SHIFT
        for position, old, new in assigned:
            stats = self.columns[position]
            mins, maxs = self.zones[position]
            if last_zone >= len(mins):
                _pad(mins, maxs, last_zone)
            stats.forget(old)
            bounds = stats.observe(new)
            if bounds is None:
                continue
            if zone == last_zone:
                _widen_zone(mins, maxs, zone, *bounds)
            else:
                _widen_slots(mins, maxs, slots, new)

    def until_rebuild(self):
        """How many more deleted or overwritten tuples until
        :meth:`should_rebuild` turns true (not positive: it already is)."""
        return max(REBUILD_MIN_DRIFT, self.rows_at_rebuild) - self.drift

    def should_rebuild(self):
        return self.drift >= max(REBUILD_MIN_DRIFT, self.rows_at_rebuild)

    # -- rebuild (compaction / checkpoint / drift threshold) ---------------

    def rebuild(self, cols, live_slots):
        """Recompute everything exactly from columnar storage.

        ``cols`` are the table's slot-indexed column lists and
        ``live_slots`` the live slots in scan order, which is ascending
        (dead slots must be excluded — after compaction that is simply
        every slot).
        """
        self.row_count = len(live_slots)
        self.columns = tuple(ColumnStats() for _ in cols)
        self.zones = tuple(([], []) for _ in cols)
        if live_slots:
            top_zone = live_slots[-1] >> ZONE_SHIFT
            for stats, (mins, maxs), column in zip(
                self.columns, self.zones, cols
            ):
                _pad(mins, maxs, top_zone)
                values = list(map(column.__getitem__, live_slots))
                stats.observe(values)
                _widen_slots(mins, maxs, live_slots, values)
        self.drift = 0
        self.rows_at_rebuild = self.row_count

    # -- estimator accessors ----------------------------------------------

    def column(self, position):
        return self.columns[position]

    def ndv(self, position):
        stats = self.columns[position]
        return stats.ndv(self.row_count - stats.nulls)

    def snapshot(self):
        return {
            "row_count": self.row_count,
            "drift": self.drift,
            "columns": [
                stats.snapshot(self.row_count - stats.nulls)
                for stats in self.columns
            ],
        }


#: optimizer counters whose deltas the engine attaches to rule events
OPTIMIZER_DELTA_FIELDS = ("zones_pruned", "rows_zone_pruned", "replans")


class OptimizerStats:
    """Monotone counters for the cost-based optimization layer.

    ``plans_costed`` counts plans built through the cost model;
    ``joins_reordered``/``conjuncts_reordered``/``conditions_reordered``
    count the decisions where statistics actually changed an order;
    ``zones_considered``/``zones_pruned``/``rows_zone_pruned`` come from
    zone-map pruning in the vectorized filter path; ``replans`` counts
    plan-cache invalidations caused by a stats-epoch move; and
    ``stats_rebuilds`` counts full statistics rebuilds (drift threshold,
    compaction, checkpoint).
    """

    __slots__ = (
        "plans_costed",
        "joins_reordered",
        "conjuncts_reordered",
        "conditions_reordered",
        "zones_considered",
        "zones_pruned",
        "rows_zone_pruned",
        "replans",
        "stats_rebuilds",
    )

    def __init__(self):
        self.reset()

    def reset(self):
        self.plans_costed = 0
        self.joins_reordered = 0
        self.conjuncts_reordered = 0
        self.conditions_reordered = 0
        self.zones_considered = 0
        self.zones_pruned = 0
        self.rows_zone_pruned = 0
        self.replans = 0
        self.stats_rebuilds = 0

    def snapshot(self):
        considered = self.zones_considered
        return {
            "plans_costed": self.plans_costed,
            "joins_reordered": self.joins_reordered,
            "conjuncts_reordered": self.conjuncts_reordered,
            "conditions_reordered": self.conditions_reordered,
            "zones_considered": considered,
            "zones_pruned": self.zones_pruned,
            "zone_prune_rate": (
                self.zones_pruned / considered if considered else 0.0
            ),
            "rows_zone_pruned": self.rows_zone_pruned,
            "replans": self.replans,
            "stats_rebuilds": self.stats_rebuilds,
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
