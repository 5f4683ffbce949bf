"""Translation of high-level constraints into production rules (§6/[CW90]).

Each constraint compiles to one or more ``create rule`` statements over
the core facility — nothing here extends the engine; the constraint
layer is purely a rule *generator*, demonstrating the paper's claim that
"database integrity constraints can automatically be maintained by
production rules".

The generated SQL is kept human-readable on purpose: users are expected
to inspect (and possibly tune) the produced rules, which is the
"semi-automatic" part of the companion paper's design.
"""

from __future__ import annotations

from ..errors import ConstraintError
from ..records import Record
from .language import (
    AggregateBound,
    Assertion,
    Check,
    NotNull,
    ReferentialIntegrity,
    Unique,
)

_NEGATED_COMPARISON = {
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "=": "<>",
    "<>": "=",
}


class GeneratedRule(Record):
    """One statement produced by the compiler: a production rule
    (``kind="rule"``) or a priority pairing between generated rules
    (``kind="priority"``, used when a constraint compiles to several
    rules whose firing order matters)."""

    name: str
    sql: str
    kind: str = "rule"


def compile_constraint(constraint):
    """Compile one constraint declaration into its production rules.

    Returns a list of :class:`GeneratedRule` (1–2 rules per constraint).
    """
    if isinstance(constraint, NotNull):
        return _compile_not_null(constraint)
    if isinstance(constraint, Unique):
        return _compile_unique(constraint)
    if isinstance(constraint, Check):
        return _compile_check(constraint)
    if isinstance(constraint, ReferentialIntegrity):
        return _compile_referential(constraint)
    if isinstance(constraint, AggregateBound):
        return _compile_aggregate(constraint)
    if isinstance(constraint, Assertion):
        return _compile_assertion(constraint)
    raise ConstraintError(
        f"unknown constraint type {type(constraint).__name__}"
    )


def _compile_assertion(constraint):
    predicates = []
    for table in constraint.tables:
        predicates.append(f"inserted into {table}")
        predicates.append(f"updated {table}")
        if constraint.check_on_delete:
            predicates.append(f"deleted from {table}")
    when = "when " + "\n  or ".join(predicates)
    sql = (
        f"create rule {constraint.name}\n{when}\n"
        f"if exists ({constraint.violation})\n"
        "then rollback"
    )
    return [GeneratedRule(constraint.name, sql)]


def _compile_not_null(constraint):
    table, column = constraint.table, constraint.column
    when = f"when inserted into {table} or updated {table}.{column}"
    condition = (
        f"if exists (select * from inserted {table} where {column} is null)\n"
        f"   or exists (select * from new updated {table}.{column} "
        f"where {column} is null)"
    )
    if constraint.repair == "rollback":
        action = "then rollback"
    else:
        action = f"then delete from {table} where {column} is null"
    sql = f"create rule {constraint.name}\n{when}\n{condition}\n{action}"
    return [GeneratedRule(constraint.name, sql)]


def _compile_unique(constraint):
    table, column = constraint.table, constraint.column
    sql = (
        f"create rule {constraint.name}\n"
        f"when inserted into {table} or updated {table}.{column}\n"
        f"if exists (select {column} from {table} "
        f"where {column} is not null "
        f"group by {column} having count(*) > 1)\n"
        "then rollback"
    )
    return [GeneratedRule(constraint.name, sql)]


def _compile_check(constraint):
    table = constraint.table
    violation = f"not ({constraint.predicate})"
    when = f"when inserted into {table} or updated {table}"
    if constraint.repair == "rollback":
        sql = (
            f"create rule {constraint.name}\n{when}\n"
            f"if exists (select * from {table} where {violation})\n"
            "then rollback"
        )
    else:
        sql = (
            f"create rule {constraint.name}\n{when}\n"
            f"if exists (select * from {table} where {violation})\n"
            f"then delete from {table} where {violation}"
        )
    return [GeneratedRule(constraint.name, sql)]


def _compile_referential(constraint):
    child, fk = constraint.child_table, constraint.child_column
    parent, pk = constraint.parent_table, constraint.parent_column
    rules = []

    # Child side: inserts into / foreign-key updates of the child must
    # reference an existing parent key (NULL is exempt).
    orphan = (
        f"{fk} is not null and {fk} not in (select {pk} from {parent})"
    )
    child_name = f"{constraint.name}__child"
    child_when = f"when inserted into {child} or updated {child}.{fk}"
    if constraint.on_violation == "rollback":
        child_sql = (
            f"create rule {child_name}\n{child_when}\n"
            f"if exists (select * from {child} where {orphan})\n"
            "then rollback"
        )
    else:
        child_sql = (
            f"create rule {child_name}\n{child_when}\n"
            f"if exists (select * from {child} where {orphan})\n"
            f"then delete from {child} where {orphan}"
        )
    rules.append(GeneratedRule(child_name, child_sql))

    # Parent side: deletions of parent keys.
    parent_name = f"{constraint.name}__parent"
    if constraint.on_parent_delete == "cascade":
        # The paper's Example 3.1, generalized. (If duplicate parent keys
        # are possible, pair this with a Unique constraint on the key.)
        parent_sql = (
            f"create rule {parent_name}\n"
            f"when deleted from {parent}\n"
            f"then delete from {child}\n"
            f"     where {fk} in (select {pk} from deleted {parent})\n"
            f"       and {fk} not in (select {pk} from {parent})"
        )
    elif constraint.on_parent_delete == "set_null":
        parent_sql = (
            f"create rule {parent_name}\n"
            f"when deleted from {parent}\n"
            f"then update {child} set {fk} = null\n"
            f"     where {fk} in (select {pk} from deleted {parent})\n"
            f"       and {fk} not in (select {pk} from {parent})"
        )
    else:  # rollback (restrict)
        parent_sql = (
            f"create rule {parent_name}\n"
            f"when deleted from {parent}\n"
            f"if exists (select * from {child}\n"
            f"           where {fk} in (select {pk} from deleted {parent})\n"
            f"             and {fk} not in (select {pk} from {parent}))\n"
            "then rollback"
        )
    rules.append(GeneratedRule(parent_name, parent_sql))

    # Parent key updates: aborting rule (cascading a key update would need
    # old→new tuple correlation, which transition tables do not provide —
    # a limitation the companion paper also notes).
    update_name = f"{constraint.name}__parent_update"
    update_sql = (
        f"create rule {update_name}\n"
        f"when updated {parent}.{pk}\n"
        f"if exists (select * from {child} where {orphan})\n"
        "then rollback"
    )
    rules.append(GeneratedRule(update_name, update_sql))
    # Both parent-side rules watch the parent table and touch the child:
    # repairing deletions must run before the key-update guard inspects
    # the child for orphans, or the guard could veto a state the cascade
    # was about to fix. Without this pairing the pair is an RPL203
    # ordering conflict.
    rules.append(GeneratedRule(
        f"{constraint.name}__order",
        f"create rule priority {parent_name} before {update_name}",
        kind="priority",
    ))
    return rules


def _compile_aggregate(constraint):
    table = constraint.table
    where = f" where {constraint.where}" if constraint.where else ""
    violated = _NEGATED_COMPARISON[constraint.comparison]
    bound = constraint.bound
    if isinstance(bound, str):
        bound_text = "'" + bound.replace("'", "''") + "'"
    else:
        bound_text = repr(bound)
    sql = (
        f"create rule {constraint.name}\n"
        f"when inserted into {table} or deleted from {table} "
        f"or updated {table}\n"
        f"if (select {constraint.aggregate} from {table}{where}) "
        f"{violated} {bound_text}\n"
        "then rollback"
    )
    return [GeneratedRule(constraint.name, sql)]
