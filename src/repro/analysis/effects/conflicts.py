"""Column-granular conflict diagnostics (RPL5xx) and the OCC advisory.

The PR 5 confluence warning (RPL203) covers *mutually triggerable*
unordered pairs — rules whose transition predicates watch the same
table. This pass covers the pairs RPL203 structurally cannot see:
**unordered siblings across a cascade** — two rules triggered by a
common provider's single transition through *different* tables, whose
effect sets still collide:

* **RPL501** — the siblings' write sets overlap at ``(table, column)``
  granularity (write/write): the final value depends on which sibling
  the selection strategy happens to fire last;
* **RPL502** — one sibling writes a column the other's condition or
  action reads (write-after-read): the reader's outcome depends on
  whether it fires before or after the writer.

Both are heuristically scoped to keep the signal high: pairs already
covered by RPL203 are skipped (``predicates_overlap``), as are rules
with constant-false conditions and opaque external actions (RPL203
already reports those with ``assumed`` interference).

:func:`conflict_advisory` distills the same effect index into the
table-level summary ``stats()["analysis"]`` exposes: the OCC
coordinator compares observed ``txn_conflict`` events against the
predicted contended-table set (see
``repro.concurrency.control``) — static analysis as a conflict
*forecast*, validated by the runtime.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..graph import may_trigger
from ..lint.base import register_pass
from ..lint.context import LintContext, LintRule
from ..lint.diagnostics import Diagnostic, make
from .sets import ANY_COLUMN, RuleEffects, SchemaLookup, program_effects
from ..conflicts import predicates_overlap

_PASS = "effects"


def _overlapping_writes(first: RuleEffects,
                        second: RuleEffects) -> list[tuple[str, str]]:
    """(table, column) pairs both rules can write."""
    if first.writes is None or second.writes is None:
        return []
    overlap = set()
    for table in first.written_tables() & second.written_tables():
        mine = first.write_columns(table)
        theirs = second.write_columns(table)
        if ANY_COLUMN in mine or ANY_COLUMN in theirs:
            shared = {ANY_COLUMN}
        else:
            shared = mine & theirs
        overlap.update((table, column) for column in shared)
    return sorted(overlap)


def _write_read_overlap(writer: RuleEffects,
                        reader: RuleEffects) -> list[tuple[str, str]]:
    """(table, column) pairs the writer writes and the reader reads."""
    if writer.writes is None:
        return []
    overlap = set()
    read_index: dict[str, set] = {}
    for table, column in reader.reads:
        read_index.setdefault(table, set()).add(column)
    for _, table, column in writer.writes:
        read_columns = read_index.get(table)
        if not read_columns:
            continue
        if column == ANY_COLUMN or ANY_COLUMN in read_columns \
                or column in read_columns:
            overlap.add((table, column))
    return sorted(overlap)


def _common_provider(first: LintRule, second: LintRule,
                     rules: list[LintRule]) -> Optional[str]:
    """A rule whose single firing can trigger both (cascade siblings)."""
    for provider in rules:
        if provider.name in (first.name, second.name):
            continue
        if may_trigger(provider, first) and may_trigger(provider, second):
            return provider.name
    return None


def _describe(pairs: list[tuple[str, str]]) -> str:
    return ", ".join(
        table if column == ANY_COLUMN else f"{table}.{column}"
        for table, column in pairs
    )


@register_pass(_PASS, scope="program",
               description="column-granular effect conflicts (RPL5xx)")
def run(context: LintContext) -> Iterable[Diagnostic]:
    # function-level: refine imports this package's sets module, so a
    # top-level import here would close an import cycle through it
    from ..lint.refine import condition_provably_false

    out: list[Diagnostic] = []
    active = [
        rule for rule in context.rules
        if rule.active and not rule.is_external
        and not condition_provably_false(rule.condition)
    ]
    if len(active) < 2:
        return out
    effects = program_effects(active, context.schema)

    for i, first in enumerate(active):
        for second in active[i + 1:]:
            if predicates_overlap(first, second):
                continue  # RPL203's (mutually-triggerable) territory
            if context.precedes(first.name, second.name) \
                    or context.precedes(second.name, first.name):
                continue
            provider = _common_provider(first, second, context.rules)
            if provider is None:
                continue
            span = first.span or second.span
            ww = _overlapping_writes(effects[first.name],
                                     effects[second.name])
            if ww:
                out.append(make(
                    "RPL501",
                    f"rules {first.name!r} and {second.name!r} are "
                    f"unordered cascade siblings (both triggered by "
                    f"{provider!r}) with overlapping writes to "
                    f"{{{_describe(ww)}}}; the last writer wins",
                    span=span, rule=first.name,
                    hint="order the pair with 'create rule priority "
                         "... before ...'",
                    pass_name=_PASS,
                ))
                continue  # one finding per pair: write/write dominates
            for writer, reader in ((first, second), (second, first)):
                wr = _write_read_overlap(effects[writer.name],
                                         effects[reader.name])
                if wr:
                    out.append(make(
                        "RPL502",
                        f"rule {writer.name!r} writes {{{_describe(wr)}}}"
                        f" which unordered cascade sibling "
                        f"{reader.name!r} reads (both triggered by "
                        f"{provider!r}); the reader's outcome depends "
                        f"on firing order",
                        span=span, rule=writer.name,
                        hint="order the pair with 'create rule priority "
                             "... before ...'",
                        pass_name=_PASS,
                    ))
                    break  # one finding per pair
    return out


# ---------------------------------------------------------------------------
# the OCC advisory

def conflict_advisory(rules: Iterable[object],
                      schema_lookup: SchemaLookup) -> dict:
    """Table-level conflict forecast for ``stats()["analysis"]``.

    A table is *contended* when two different rules' effect sets
    collide on it — write/write, or write by one and read by another.
    The OCC coordinator classifies each observed transaction conflict
    by whether its tables were forecast here (``conflicts_predicted``
    vs ``conflicts_unpredicted``); a high unpredicted count means the
    static analysis is missing workload structure, a high predicted
    count confirms the RPL5xx warnings point at real contention.
    """
    summaries = [
        rule_effects for rule_effects in (
            program_effects(list(rules), schema_lookup).values()
        )
    ]
    contended: set = set()
    opaque = sum(1 for s in summaries if s.opaque)
    pairs = 0
    for i, first in enumerate(summaries):
        for second in summaries[i + 1:]:
            tables = set()
            if first.writes is not None and second.writes is not None:
                tables |= first.written_tables() & second.written_tables()
            if first.writes is not None:
                tables |= first.written_tables() & second.read_tables()
            if second.writes is not None:
                tables |= second.written_tables() & first.read_tables()
            if tables:
                pairs += 1
                contended |= tables
    return {
        "rules_analyzed": len(summaries),
        "opaque_rules": opaque,
        "conflict_pairs": pairs,
        "contended_tables": sorted(contended),
    }
