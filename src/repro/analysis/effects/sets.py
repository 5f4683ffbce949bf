"""Static per-rule effect sets at (table, column) granularity.

An *effect set* summarizes what one rule can observe and change; it is
one of the products of the single scoped walk over the rule
(:class:`repro.analysis.types.infer.RuleWalk`), computed when the rule
is walked:

* **reads** — ``(table, column)`` pairs the rule's condition and action
  may look at, charged where the walk resolves each column reference:
  a reference several in-scope tables could own charges every
  candidate; one that resolves through an unknown table charges
  ``(table, "*")``. Reads may be too big, never too small.
* **scans** — the tables named in any FROM clause (transition tables
  count as their base table) plus the targets of ``delete``/``update``,
  which scan their target to find qualifying tuples: the table-level
  read set of the paper's §6 conflict check.
* **writes** — ``(kind, table, column)`` triples the rule's action can
  perform, with ``kind`` in ``inserted``/``deleted``/``updated``.
  Inserts and deletes touch every column of the target (``"*"`` when
  the schema is unknown); updates list exactly the assigned columns.
  ``None`` means the action is opaque (external procedure): assume
  everything.
* **selected** — the base tables the action's top-level ``select``
  operations retrieve from (what §5.1 ``selected`` predicates trigger
  on).

Writes are *exact* over SQL actions — that is what makes them strong
enough to draw the triggering graph's edges (:meth:`RuleEffects
.can_satisfy`) and to prune them (:func:`writes_can_populate`):
``updated t.c`` transition views contain only handles whose column
``c`` was actually assigned, so an action that never assigns ``c``
provably leaves that view empty.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ...records import Record
from ...sql import ast

#: Wildcard column: "every column of the table" (schema unknown, or a
#: whole-row effect we cannot narrow).
ANY_COLUMN = "*"

SchemaLookup = Callable[[str], object]

#: the write kind that satisfies each basic transition predicate kind
_WRITE_KIND = {
    ast.TransitionPredicateKind.INSERTED: "inserted",
    ast.TransitionPredicateKind.DELETED: "deleted",
    ast.TransitionPredicateKind.UPDATED: "updated",
}


class RuleEffects(Record):
    """One rule's static effect summary.

    ``writes`` is ``None`` for opaque (external) actions — every
    consumer must assume the action reads and writes everything.
    """

    reads: frozenset
    writes: Optional[frozenset]
    scans: frozenset = frozenset()
    selected: frozenset = frozenset()

    @property
    def opaque(self) -> bool:
        return self.writes is None

    def write_columns(self, table: str) -> set:
        """Columns of ``table`` this rule can write (any kind)."""
        if self.writes is None:
            return {ANY_COLUMN}
        return {
            column for kind, written, column in self.writes
            if written == table
        }

    def written_tables(self) -> set:
        if self.writes is None:
            return set()
        return {table for _, table, _ in self.writes}

    def read_tables(self) -> set:
        return {table for table, _ in self.reads}

    def can_satisfy(self, predicate: ast.BasicTransitionPredicate) -> bool:
        """Can the action produce an effect satisfying ``predicate``?
        (The syntactic triggering edge; opaque actions can do anything.)"""
        if self.writes is None:
            return True
        if predicate.kind is ast.TransitionPredicateKind.SELECTED:
            return predicate.table in self.selected
        wanted = _WRITE_KIND[predicate.kind]
        return any(
            kind == wanted and table == predicate.table and (
                wanted != "updated" or predicate.column in (None, column)
            )
            for kind, table, column in self.writes
        )


def operation_writes(operation: object, schema_lookup: SchemaLookup,
                     ) -> Iterator[tuple[str, str, str]]:
    """The ``(kind, table, column)`` writes of one DML operation."""
    if isinstance(operation, ast.Update):
        for assignment in operation.assignments:
            yield "updated", operation.table, assignment.column
        return
    if isinstance(operation, (ast.InsertValues, ast.InsertSelect)):
        kind = "inserted"
    elif isinstance(operation, ast.Delete):
        kind = "deleted"
    else:
        return
    schema = schema_lookup(operation.table)
    columns = [ANY_COLUMN] if schema is None else schema.column_names
    for column in columns:
        yield kind, operation.table, column


def writes_can_populate(writes: Optional[frozenset],
                        table_ref: ast.TransitionTableRef) -> bool:
    """Can an action with the given write set ever put a row into the
    transition table ``table_ref`` names?

    Used contrapositively by ``repro.analysis.lint.refine``: when the
    provider's writes cannot populate the transition table a required
    ``exists`` conjunct of the consumer selects from, that conjunct is
    provably false whenever the provider alone triggered the consumer.
    Conservative: opaque writes (None) and ``selected`` views always
    return True.
    """
    if writes is None or table_ref.kind is ast.TransitionKind.SELECTED:
        return True  # read tracking is not modelled as a write
    wanted = _WRITE_KIND[ast.KIND_TO_PREDICATE[table_ref.kind]]
    for write_kind, table, column in writes:
        if write_kind != wanted or table != table_ref.table:
            continue
        if wanted != "updated" or table_ref.column is None:
            return True
        if column == table_ref.column or column == ANY_COLUMN:
            return True
    return False
