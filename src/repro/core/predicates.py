"""Transition predicate satisfaction (paper Section 3).

A rule's transition predicate is a disjunction of *basic transition
predicates*; the rule is triggered by any transition whose (composite)
effect satisfies at least one of them:

* ``inserted into t`` — the I component identifies ≥1 tuple of table t;
* ``deleted from t`` — the D component identifies ≥1 tuple of table t;
* ``updated t.c`` — the U component contains a pair naming column c of a
  tuple of table t;
* ``updated t`` — the U component identifies any tuple of t;
* ``selected t[.c]`` (§5.1 extension) — likewise on the S component.
"""

from __future__ import annotations

from ..sql.ast import TransitionPredicateKind


def basic_predicate_satisfied(predicate, info):
    """Does one basic transition predicate hold for a rule's trans-info?

    ``info`` is the rule's composite
    :class:`~repro.core.effects.TransitionEffect` since its baseline.
    """
    kind = predicate.kind
    part = info.tables.get(predicate.table)
    if kind is TransitionPredicateKind.INSERTED:
        return part is not None and bool(part.inserted)
    if kind is TransitionPredicateKind.DELETED:
        return part is not None and bool(part.deleted)
    if kind is TransitionPredicateKind.UPDATED:
        columns_of = part.updated if part else {}
    elif kind is TransitionPredicateKind.SELECTED:
        columns_of = part.reads() if part else {}
    else:
        raise ValueError(f"unknown transition predicate kind {kind!r}")
    column = predicate.column
    if column is None:
        return bool(columns_of)
    return any(column in columns for columns in columns_of.values())


def transition_predicate_satisfied(predicates, info):
    """The disjunction: True if any basic predicate holds (paper §3:
    "the rule is triggered by any transition with an effect satisfying
    one or more of the basic predicates in the list")."""
    return any(
        basic_predicate_satisfied(predicate, info) for predicate in predicates
    )


def predicate_tables(predicates):
    """The set of table names a predicate list watches (for analysis)."""
    return {predicate.table for predicate in predicates}


def describe_predicate(predicate):
    """Human-readable form of one basic transition predicate."""
    kind = predicate.kind
    if kind is TransitionPredicateKind.INSERTED:
        return f"inserted into {predicate.table}"
    if kind is TransitionPredicateKind.DELETED:
        return f"deleted from {predicate.table}"
    suffix = f".{predicate.column}" if predicate.column else ""
    return f"{kind.value} {predicate.table}{suffix}"
