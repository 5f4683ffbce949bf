"""High-level integrity constraint declarations (paper §6 / [CW90]).

"We have designed a facility whereby the user defines integrity
constraints in a high-level non-procedural language. The system then
performs semi-automatic translation of these constraints into sets of
lower-level production rules that maintain the constraints."

This module is the declaration language; the translation lives in
:mod:`repro.constraints.compiler`. Each constraint kind offers the repair
policies the companion paper discusses: abort the violating transaction
(``rollback``) or repair the state (``cascade`` / ``set_null`` /
``delete``) — repair policies generate *repairing* rules, rollback
policies generate *aborting* rules.
"""

from __future__ import annotations

from ..errors import ConstraintError
from ..records import Record

_VALID_SIMPLE_REPAIRS = ("rollback", "delete")
_VALID_REFERENTIAL_REPAIRS = ("rollback", "cascade", "set_null")


class NotNull(Record):
    """Column ``table.column`` must never be NULL.

    Repair ``"rollback"`` aborts violating transactions; ``"delete"``
    removes the violating tuples instead.
    """

    table: str
    column: str
    repair: str = "rollback"

    def __post_init__(self):
        if self.repair not in _VALID_SIMPLE_REPAIRS:
            raise ConstraintError(
                f"not-null repair must be one of {_VALID_SIMPLE_REPAIRS}, "
                f"got {self.repair!r}"
            )

    @property
    def name(self):
        return f"nn_{self.table}_{self.column}"


class Unique(Record):
    """Column ``table.column`` must be unique among non-NULL values.

    Only ``"rollback"`` repair is offered: deleting one of two duplicates
    is an arbitrary choice no automatic policy should make.
    """

    table: str
    column: str
    repair: str = "rollback"

    def __post_init__(self):
        if self.repair != "rollback":
            raise ConstraintError("unique constraints only support rollback")

    @property
    def name(self):
        return f"uq_{self.table}_{self.column}"


class Check(Record):
    """Every tuple of ``table`` must satisfy ``predicate`` (SQL text over
    the table's columns), e.g. ``Check("emp", "salary >= 0")``.

    Repair ``"rollback"`` aborts; ``"delete"`` removes violating tuples.
    """

    table: str
    predicate: str
    repair: str = "rollback"
    label: str = None

    def __post_init__(self):
        if self.repair not in _VALID_SIMPLE_REPAIRS:
            raise ConstraintError(
                f"check repair must be one of {_VALID_SIMPLE_REPAIRS}, "
                f"got {self.repair!r}"
            )

    @property
    def name(self):
        if self.label:
            return f"ck_{self.table}_{self.label}"
        return f"ck_{self.table}"


class ReferentialIntegrity(Record):
    """``child.child_column`` must reference an existing
    ``parent.parent_column`` value (NULL child values are exempt).

    ``on_violation`` governs inserts/updates of the child side:
    ``"rollback"`` (abort) or ``"delete"`` (remove orphans).
    ``on_parent_delete`` governs deletes/key-updates of the parent side:
    ``"rollback"``, ``"cascade"`` (delete orphaned children — the paper's
    Example 3.1), or ``"set_null"``.
    """

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str
    on_violation: str = "rollback"
    on_parent_delete: str = "cascade"

    def __post_init__(self):
        if self.on_violation not in _VALID_SIMPLE_REPAIRS:
            raise ConstraintError(
                f"on_violation must be one of {_VALID_SIMPLE_REPAIRS}, "
                f"got {self.on_violation!r}"
            )
        if self.on_parent_delete not in _VALID_REFERENTIAL_REPAIRS:
            raise ConstraintError(
                f"on_parent_delete must be one of "
                f"{_VALID_REFERENTIAL_REPAIRS}, got {self.on_parent_delete!r}"
            )

    @property
    def name(self):
        return (
            f"fk_{self.child_table}_{self.child_column}__"
            f"{self.parent_table}_{self.parent_column}"
        )


class Assertion(Record):
    """A database-wide assertion over one or more tables (the SQL-standard
    ASSERTION analog; the CW90 case study's inter-table constraints are of
    this shape, e.g. "no employee earns more than their manager").

    ``violation`` is a select statement (SQL text) returning the violating
    combinations — the constraint holds iff it returns no rows. ``tables``
    lists the tables whose changes can affect the assertion (each gets
    inserted/updated — and deleted, when ``check_on_delete`` — triggering).

    Example::

        Assertion(
            "salary_hierarchy",
            tables=("emp", "dept"),
            violation=(
                "select * from emp e, dept d, emp m "
                "where e.dept_no = d.dept_no and m.emp_no = d.mgr_no "
                "  and e.salary > m.salary"
            ),
        )

    Only ``"rollback"`` repair: an assertion has no canonical repair.
    """

    label: str
    tables: tuple
    violation: str
    check_on_delete: bool = True

    def __post_init__(self):
        if not self.tables:
            raise ConstraintError("assertion must name at least one table")
        object.__setattr__(self, "tables", tuple(self.tables))

    @property
    def name(self):
        return f"assert_{self.label}"


class AggregateBound(Record):
    """An aggregate over ``table`` must stay within a bound, e.g. "total
    salary of department 5 at most 1M": ``AggregateBound("emp",
    "sum(salary)", "<=", 1000000, where="dept_no = 5")``.

    Only ``"rollback"`` repair: automatically repairing an aggregate bound
    requires an application-specific policy (use a hand-written rule).
    """

    table: str
    aggregate: str
    comparison: str
    bound: object
    where: str = None
    label: str = None

    def __post_init__(self):
        if self.comparison not in ("<", "<=", ">", ">=", "=", "<>"):
            raise ConstraintError(
                f"invalid comparison operator {self.comparison!r}"
            )

    @property
    def name(self):
        if self.label:
            return f"agg_{self.table}_{self.label}"
        return f"agg_{self.table}"
