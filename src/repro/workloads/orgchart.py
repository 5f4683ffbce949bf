"""Synthetic emp/dept org-chart workloads (the paper's running schema).

The paper's examples all run over::

    emp(name, emp_no, salary, dept_no)
    dept(dept_no, mgr_no)

with a hierarchical management structure (Example 4.1: "We assume a
hierarchical structure of employees and departments"). This module
generates such hierarchies at parameterized scale for tests, examples and
benchmarks — the stand-in for the production data the original Starburst
deployment would have had.
"""

from __future__ import annotations

import random

from ..records import Record


EMP_SCHEMA = [
    ("name", "varchar"),
    ("emp_no", "integer"),
    ("salary", "float"),
    ("dept_no", "integer"),
]

DEPT_SCHEMA = [
    ("dept_no", "integer"),
    ("mgr_no", "integer"),
]


def create_schema(db):
    """Create the paper's emp/dept tables on an :class:`ActiveDatabase`
    (or anything exposing ``execute``)."""
    db.execute(
        "create table emp (name varchar, emp_no integer, salary float, "
        "dept_no integer)"
    )
    db.execute("create table dept (dept_no integer, mgr_no integer)")


class OrgChart(Record, frozen=False):
    """A generated management hierarchy.

    Attributes:
        employees: list of (name, emp_no, salary, dept_no) rows.
        departments: list of (dept_no, mgr_no) rows.
        levels: emp_no lists per hierarchy level (level 0 = root managers).
        manager_of: ``{emp_no: manager_emp_no}`` (roots absent).
    """

    employees: list
    departments: list
    levels: list
    manager_of: dict

    def __init__(self, employees=None, departments=None, levels=None,
                 manager_of=None):
        self.employees = [] if employees is None else employees
        self.departments = [] if departments is None else departments
        self.levels = [] if levels is None else levels
        self.manager_of = {} if manager_of is None else manager_of

    @property
    def size(self):
        return len(self.employees)

    def subordinates_of(self, emp_no):
        """Direct reports of one employee."""
        return [
            child for child, manager in self.manager_of.items()
            if manager == emp_no
        ]

    def descendants_of(self, emp_no):
        """All transitive reports of one employee."""
        result = []
        frontier = [emp_no]
        while frontier:
            current = frontier.pop()
            children = self.subordinates_of(current)
            result.extend(children)
            frontier.extend(children)
        return result


def build_orgchart(depth=3, branching=2, seed=0, base_salary=40000,
                   salary_step=10000):
    """Build a complete management tree.

    Level 0 is a single root manager; each manager at level k manages one
    department containing ``branching`` direct reports at level k+1, down
    to ``depth`` levels below the root. Salaries decrease with depth
    (root earns ``base_salary + depth*salary_step``), with small seeded
    jitter so aggregates are non-trivial.

    Returns:
        :class:`OrgChart`.
    """
    rng = random.Random(seed)
    chart = OrgChart()
    next_emp_no = 1
    next_dept_no = 1

    def make_employee(level, dept_no):
        nonlocal next_emp_no
        emp_no = next_emp_no
        next_emp_no += 1
        salary = (
            base_salary
            + (depth - level) * salary_step
            + rng.randint(-1000, 1000)
        )
        chart.employees.append(
            (f"emp{emp_no}", emp_no, float(salary), dept_no)
        )
        return emp_no

    root = make_employee(0, 0)
    chart.levels.append([root])
    frontier = [root]
    for level in range(1, depth + 1):
        new_frontier = []
        for manager in frontier:
            dept_no = next_dept_no
            next_dept_no += 1
            chart.departments.append((dept_no, manager))
            for _ in range(branching):
                child = make_employee(level, dept_no)
                chart.manager_of[child] = manager
                new_frontier.append(child)
        chart.levels.append(list(new_frontier))
        frontier = new_frontier
    return chart


def load_orgchart(db, chart, batch_size=500):
    """Insert a chart's rows into an already-created emp/dept schema.

    Rows go in as multi-row ``insert ... values`` statements of
    ``batch_size`` literal rows: each is read as one value matrix and
    written as one set, and rule processing applies once per statement
    (loading should normally happen before rules are defined).
    """
    for start in range(0, len(chart.departments), batch_size):
        batch = chart.departments[start:start + batch_size]
        values = ", ".join(f"({dept_no}, {mgr_no})" for dept_no, mgr_no in batch)
        db.execute(f"insert into dept values {values}")
    for start in range(0, len(chart.employees), batch_size):
        batch = chart.employees[start:start + batch_size]
        values = ", ".join(
            f"('{name}', {emp_no}, {salary}, {dept_no})"
            for name, emp_no, salary, dept_no in batch
        )
        db.execute(f"insert into emp values {values}")


def populate(db, depth=3, branching=2, seed=0):
    """Create the schema, build a chart, and load it. Returns the chart."""
    create_schema(db)
    chart = build_orgchart(depth=depth, branching=branching, seed=seed)
    load_orgchart(db, chart)
    return chart


# ---------------------------------------------------------------------------
# the org-chart maintenance rule program

#: A lint-clean rule program over the org-chart schema. ``discharge_demo``
#: is deliberately a *syntactic* self-loop (it updates the very column it
#: watches) that condition refinement proves terminating: setting
#: ``salary = 0`` cannot satisfy ``salary < 0`` again, so the analyzer
#: reports the loop as discharged (RPL202) rather than warning about it.
ORG_RULES = [
    # negative salaries are clamped to zero on hire
    "create rule clamp_salary "
    "when inserted into emp "
    "if exists (select * from inserted emp where salary < 0) "
    "then update emp set salary = 0 where salary < 0",
    # ... and on any later salary change (self-disactivating update)
    "create rule discharge_demo "
    "when updated emp.salary "
    "if exists (select * from new updated emp.salary where salary < 0) "
    "then update emp set salary = 0 where salary < 0",
    # deleting a department moves its employees to the unassigned pool
    "create rule dept_integrity "
    "when deleted from dept "
    "then update emp set dept_no = 0 "
    "where dept_no in (select dept_no from deleted dept)",
    # every salary change is journaled
    "create rule log_salaries "
    "when updated emp.salary "
    "then insert into salary_log select name, salary "
    "from new updated emp.salary",
]

#: Priorities making every mutually-triggerable interfering pair ordered
#: (otherwise the analyzer would rightly report RPL203 confluence
#: warnings): clamp first, then the salary watcher, then the journal.
ORG_PRIORITIES = [
    ("clamp_salary", "discharge_demo"),
    ("discharge_demo", "log_salaries"),
    ("clamp_salary", "log_salaries"),
]


def define_rules(db):
    """Define the org-chart maintenance rule program.

    Creates the ``salary_log`` journal table, the :data:`ORG_RULES`
    rules and the :data:`ORG_PRIORITIES` orderings on ``db`` (an
    :class:`~repro.system.ActiveDatabase`). The program is lint-clean:
    ``db.lint()`` afterwards reports no errors or warnings.
    """
    db.execute("create table salary_log (name varchar, salary float)")
    for sql in ORG_RULES:
        db.execute(sql)
    for higher, lower in ORG_PRIORITIES:
        db.execute(f"create rule priority {higher} before {lower}")
