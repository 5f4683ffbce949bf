"""The per-database plan cache and the planner's observability counters.

Rule processing (paper §4, Figure 1) re-evaluates every triggered rule's
condition at the end of each transition, so the same condition/action
selects run over and over within — and across — transactions. A plan's
*correctness* depends only on the catalog (schemas, indexes), never on
table contents, so one compiled plan serves every one of those
evaluations: the cache is keyed by the select AST node itself (frozen
dataclasses hash and compare structurally, so re-parsed ad-hoc text
deduplicates too) and invalidated wholesale whenever
``database.schema_version`` moves — i.e. on any schema or index DDL.

A plan's *cost* depends on table statistics, so the cache also tracks
``database.stats_epoch``: when any table's stats are rebuilt past its
drift threshold (or index DDL changes the NDV sources), cached plans
are dropped and re-costed. Those invalidations are counted as
``optimizer.replans``.
"""

from __future__ import annotations

from typing import Any, Optional

#: counters whose deltas the engine attaches to rule events
DELTA_FIELDS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "rows_scanned",
    "rows_visited",
    "rows_returned",
)


class PlannerStats:
    """Monotone counters for plan-cache and data-flow behaviour.

    Maintained by the plan cache and the plan executor (the naive
    reference under ``tests/reference/`` counts ``rows_scanned`` /
    ``rows_visited`` into the same gauges, so planned-versus-naive
    comparisons read like for like). The engine snapshots deltas around
    condition/action evaluation and emits them on the observability bus.
    """

    __slots__ = (
        "plans_built",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_invalidations",
        "rows_scanned",
        "rows_visited",
        "rows_returned",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.plans_built = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_invalidations = 0
        self.rows_scanned = 0
        self.rows_visited = 0
        self.rows_returned = 0

    def snapshot(self) -> dict[str, Any]:
        lookups = self.plan_cache_hits + self.plan_cache_misses
        return {
            "plans_built": self.plans_built,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_cache_invalidations": self.plan_cache_invalidations,
            "plan_cache_hit_rate": (
                self.plan_cache_hits / lookups if lookups else 0.0
            ),
            "rows_scanned": self.rows_scanned,
            "rows_visited": self.rows_visited,
            "rows_returned": self.rows_returned,
        }

    def counters(self) -> tuple[int, ...]:
        """The :data:`DELTA_FIELDS` values as a tuple (cheap to snapshot
        around a single condition/action evaluation)."""
        return tuple(getattr(self, name) for name in DELTA_FIELDS)

    def delta_since(self, before: tuple[int, ...]) -> dict[str, int]:
        """``{field: increment}`` relative to a :meth:`counters` tuple."""
        return {
            name: getattr(self, name) - then
            for name, then in zip(DELTA_FIELDS, before)
        }


class PlanCache:
    """Compiled plans keyed by select AST, guarded by the schema version.

    ``max_entries`` bounds ad-hoc query growth; on overflow the cache is
    cleared wholesale (plans are cheap to rebuild — the win is the
    steady-state rule workload, whose handful of condition/action selects
    always fits).
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._plans: dict[Any, Any] = {}
        self._schema_version: Optional[int] = None
        self._stats_epoch: Optional[int] = None

    def __len__(self) -> int:
        return len(self._plans)

    def plan_for(self, select: Any, database: Any, stats: Any) -> Any:
        """The cached plan for ``select``, building (and caching) on
        miss; ``stats`` is the :class:`PlannerStats` to count into."""
        from .builder import build_plan

        if self._schema_version != database.schema_version:
            if self._plans:
                stats.plan_cache_invalidations += 1
                self._plans.clear()
            self._schema_version = database.schema_version
            self._stats_epoch = database.stats_epoch
        elif self._stats_epoch != database.stats_epoch:
            # statistics drifted past a table's rebuild threshold (or an
            # index came/went): cached plans were costed against stale
            # estimates — re-plan (a "replan", distinct from the schema
            # invalidation above, which would re-plan regardless of cost)
            if self._plans:
                stats.plan_cache_invalidations += 1
                database.optimizer_stats.replans += 1
                self._plans.clear()
            self._stats_epoch = database.stats_epoch
        plan = self._plans.get(select)
        if plan is not None:
            stats.plan_cache_hits += 1
            return plan
        stats.plan_cache_misses += 1
        stats.plans_built += 1
        plan = build_plan(database, select)
        if len(self._plans) >= self.max_entries:
            self._plans.clear()
        self._plans[select] = plan
        return plan

    def clear(self) -> None:
        self._plans.clear()
