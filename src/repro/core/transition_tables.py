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

The resolver below serves these out of a rule's
:class:`~repro.core.transition_log.TransInfo`, falling through to the
database for ordinary tables — so one SQL evaluator handles rule
conditions, rule actions and plain queries alike.
"""

from __future__ import annotations

from ..errors import ExecutionError, InvalidRuleError
from ..relational.batch import Batch
from ..relational.select import BaseTableResolver
from ..sql import ast


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

        table = table_ref.table
        kind = table_ref.kind
        if kind is ast.TransitionKind.DELETED:
            # Baseline pre-images of net-deleted tuples.
            rows = [row for _, row in self.info.deleted_rows(table)]
            return self.database.schema(table).column_names, rows
        if kind is ast.TransitionKind.OLD_UPDATED:
            rows = [
                old_row
                for _, old_row in self.info.updated_handles(
                    table, table_ref.column
                )
            ]
            return self.database.schema(table).column_names, rows
        # the views over live storage: one gather of their rows
        columns, batch = self.resolve_batch(table_ref)
        return columns, batch.rows()

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

        if kind is ast.TransitionKind.INSERTED:
            storage = self.database.table(table)
            batch = storage.batch_for_handles(
                self.info.inserted_handles(table)
            )
            return columns, batch.unlabeled()

        if kind is ast.TransitionKind.DELETED:
            rows = [row for _, row in self.info.deleted_rows(table)]
            return columns, Batch.from_rows(rows, schema.arity)

        if kind is ast.TransitionKind.OLD_UPDATED:
            rows = [
                old_row
                for _, old_row in self.info.updated_handles(
                    table, table_ref.column
                )
            ]
            return columns, Batch.from_rows(rows, schema.arity)

        if kind is ast.TransitionKind.NEW_UPDATED:
            storage = self.database.table(table)
            batch = storage.batch_for_handles(
                [
                    handle
                    for handle, _ in self.info.updated_handles(
                        table, table_ref.column
                    )
                ]
            )
            return columns, batch.unlabeled()

        if kind is ast.TransitionKind.SELECTED:
            storage = self.database.table(table)
            batch = storage.batch_for_handles(
                [
                    handle
                    for handle in self.info.selected_handles(
                        table, table_ref.column
                    )
                    if handle in storage
                ]
            )
            return columns, batch.unlabeled()

        raise ExecutionError(f"unknown transition table kind {kind!r}")


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
