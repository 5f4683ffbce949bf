"""Logical transition tables (paper Section 3).

For each basic transition predicate of a rule, the rule's condition and
action may reference corresponding *transition tables*:

* ``inserted t`` — tuples of t **in the current state** inserted by the
  triggering (composite) transition;
* ``deleted t`` — tuples of t **in the previous (baseline) state** deleted
  by the transition;
* ``old updated t[.c]`` — baseline pre-images of tuples of t whose column
  c (or any column) was updated;
* ``new updated t[.c]`` — the **current** values of those same tuples;
* ``selected t[.c]`` (§5.1) — current values of retrieved tuples.

The resolver below serves these out of a rule's composite
:class:`~repro.core.effects.TransitionEffect`, falling through to the
database for ordinary tables — so one SQL evaluator handles rule
conditions, rule actions and plain queries alike. Every transition
table reads in ascending handle order, storage's scan order.
"""

from __future__ import annotations

from ..errors import ExecutionError, InvalidRuleError
from ..relational.batch import Batch
from ..relational.select import BaseTableResolver
from ..sql import ast
from .effects import TableEffect

_UNTOUCHED = TableEffect()  # what a table the effect never touched reads


class TransitionTableResolver(BaseTableResolver):
    """Resolves FROM references for one rule evaluation.

    Base tables come from the database; transition tables come from the
    rule's composite transition information (its baseline pre-images and
    the database's current state, exactly as §4.1 specifies: evaluation
    "may depend on E1, S1, and S0").
    """

    def __init__(self, database, info):
        super().__init__(database)
        self.info = info

    def resolve(self, table_ref):
        if not isinstance(table_ref, ast.TransitionTableRef):
            return super().resolve(table_ref)
        if table_ref.kind in _PRE_IMAGES:
            return (self.database.schema(table_ref.table).column_names,
                    self._pre_images(table_ref))
        # the views over live storage: one gather of their rows
        columns, batch = self.resolve_batch(table_ref)
        return columns, batch.rows()

    def _pre_images(self, table_ref):
        """Baseline pre-images of the net-deleted tuples, or of the
        net-updated ones (whose ``column`` was updated)."""
        part = self.info.tables.get(table_ref.table, _UNTOUCHED)
        if table_ref.kind is ast.TransitionKind.DELETED:
            return part.deleted_rows()
        pre = part.pre
        return [pre[handle] for handle in part.updated_handles(table_ref.column)]

    def resolve_batch(self, table_ref):
        """Batch form of :meth:`resolve` for the vectorized scan path.

        Transition batches carry ``label=None``: §5.1 touched-handle
        collection attributes handles to *base* tables only, and a
        transition view over live storage must not re-report its
        members as retrieved tuples.
        """
        if not isinstance(table_ref, ast.TransitionTableRef):
            return super().resolve_batch(table_ref)

        table = table_ref.table
        schema = self.database.schema(table)
        columns = schema.column_names
        kind = table_ref.kind
        if kind in _PRE_IMAGES:
            rows = self._pre_images(table_ref)
            return columns, Batch.from_rows(rows, schema.arity)
        part = self.info.tables.get(table, _UNTOUCHED)
        storage = self.database.table(table)
        if kind is ast.TransitionKind.INSERTED:
            handles = part.inserted_handles()
        elif kind is ast.TransitionKind.NEW_UPDATED:
            handles = part.updated_handles(table_ref.column)
        elif kind is ast.TransitionKind.SELECTED:
            handles = [
                handle for handle in part.selected_handles(table_ref.column)
                if handle in storage
            ]
        else:
            raise ExecutionError(f"unknown transition table kind {kind!r}")
        return columns, storage.batch_for_handles(handles).unlabeled()


_PRE_IMAGES = (ast.TransitionKind.DELETED, ast.TransitionKind.OLD_UPDATED)


# ---------------------------------------------------------------------------
# validation (paper §3: "our syntax does not enforce the restriction that a
# rule's condition may only refer to transition tables corresponding to its
# basic transition predicates. This restriction is syntactic, however,
# therefore easily checked." — we check it at create-rule time)

def validate_transition_references(rule_name, predicates, node):
    """Check every transition-table reference under ``node`` corresponds to
    one of the rule's basic transition predicates (exact table and, for
    updated/selected forms, exact column narrowing).

    Raises:
        InvalidRuleError: for a reference with no matching predicate.
    """
    declared = {
        (predicate.kind, predicate.table, predicate.column)
        for predicate in predicates
    }
    if node is None:
        return
    for reference in ast.transition_table_refs(node):
        wanted = (
            ast.KIND_TO_PREDICATE[reference.kind],
            reference.table,
            reference.column,
        )
        if wanted not in declared:
            described = f"{reference.kind.value} {reference.table}"
            if reference.column:
                described += f".{reference.column}"
            raise InvalidRuleError(
                f"rule {rule_name!r} references transition table "
                f"'{described}' but declares no corresponding basic "
                "transition predicate"
            )
