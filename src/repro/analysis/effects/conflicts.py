"""Column-granular conflict diagnostics (RPL5xx).

The confluence warning (RPL203) covers *mutually triggerable*
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
covered by RPL203 are skipped, as are rules with constant-false
conditions and opaque external actions (RPL203 already reports those
with ``assumed`` interference).

The table-level distillation of the same effect sets is
:meth:`repro.analysis.program.ProgramAnalysis.advisory` — the forecast
``stats()["analysis"]`` exposes and the OCC coordinator validates
against observed ``txn_conflict`` events.
"""

from __future__ import annotations

from typing import Iterable

from ..lint.base import register_pass
from ..lint.context import LintContext
from ..lint.diagnostics import Diagnostic, make
from ..lint.refine import condition_provably_false
from ..lint.triggering import unordered_pairs
from .sets import ANY_COLUMN, RuleEffects

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


def _describe(pairs: list[tuple[str, str]]) -> str:
    return ", ".join(
        table if column == ANY_COLUMN else f"{table}.{column}"
        for table, column in pairs
    )


@register_pass(_PASS, scope="program",
               description="column-granular effect conflicts (RPL5xx)")
def run(context: LintContext) -> Iterable[Diagnostic]:
    out: list[Diagnostic] = []
    live = [
        rule for rule in context.rules
        if rule.active and not rule.is_external
        and not condition_provably_false(rule.condition)
    ]
    graph = context.triggering_graph()
    for first, second in unordered_pairs(
        live, context.precedes, co_triggered=False
    ):
        provider = graph.common_provider(first.name, second.name)
        if provider is None:
            continue
        span = first.span or second.span
        ww = _overlapping_writes(first.effects, second.effects)
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
            wr = _write_read_overlap(writer.effects, reader.effects)
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
