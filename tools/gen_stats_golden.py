#!/usr/bin/env python
"""Generate the golden counter snapshot ``tests/golden/stats_golden.json``.

``stats()`` is how an operator reads where a rule's work went, and the
per-rule counters are its attribution of every condition evaluation
and every action (Figure 1's loop) to one rule. The snapshot pins the
whole ``stats()`` dict — every section, key order included, and every
``rules`` entry — after deterministic scenarios that move every
evaluation counter: paper Example 4.1's cascade over the Example 4.3
organisation, the org-chart workload's rule program, grouped selects
and aggregates over empty input (in rule conditions, actions and plain
queries), a zone-pruned scan, a statement run row at a time
(``database.enable_vectorized_eval = False``), a scan that wanted a
batch and took the row path (``row_fallbacks``), a window opened by
``reset_stats()``, and a coordinator schedule in which one auto-commit
statement conflicts and is retried (the ``server`` section). Wall-clock
fields (:data:`WALL_CLOCK`) are left out.

House rule: the snapshot is generated with the *parent* commit's
``src`` on ``PYTHONPATH`` and the change has to reproduce it byte for
byte (``tests/integration/test_stats_golden.py``)::

    PYTHONPATH=<checkout of the parent>/src python tools/gen_stats_golden.py
    PYTHONPATH=src python tools/gen_stats_golden.py --check

``--check`` regenerates and compares, writes nothing, names the
scenario and the key path that moved and exits 1 if any did. The tool
uses public entry points only, so it runs against any build.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "stats_golden.json"

#: keys whose values are measured time or a place on disk, not counts
WALL_CLOCK = frozenset({
    "condition_time", "action_time", "selection_time", "append_time",
    "checkpoint_time", "directory",
})


def _paper() -> Any:
    sys.path.insert(0, str(ROOT))
    try:
        from tests.integration import test_paper_examples as paper
    finally:
        sys.path.remove(str(ROOT))
    return paper


def _run(*statements: str) -> Callable[[Any], None]:
    def scenario(db: Any) -> None:
        for statement in statements:
            db.execute(statement)
    return scenario


def example_41(db: Any) -> None:
    paper = _paper()
    for statement in (paper.EMP, paper.DEPT, paper.RULE_41):
        db.execute(statement)
    paper.build_example_43_org(db)
    db.execute("delete from emp where name = 'Jane'")


def orgchart(db: Any) -> None:
    from repro.workloads.orgchart import define_rules, populate

    populate(db, depth=2, branching=2)
    define_rules(db)
    db.execute("insert into emp values ('new', 100, -5.0, 1)")
    db.execute("update emp set salary = salary - 50000 where dept_no = 1")
    db.execute("delete from dept where dept_no = 2")
    db.query("select dept_no, count(*) from emp group by dept_no")


grouped = _run(
    "create table t (g integer, x integer)",
    "create table totals (g integer, total integer)",
    "create table alarms (n integer)",
    # an action that groups its transition table column-wise
    "create rule sum_by_group when inserted into t "
    "then insert into totals select g, sum(x) from inserted t group by g",
    # a condition whose aggregate runs over empty input
    "create rule negatives when inserted into t "
    "if (select count(*) from inserted t where x < 0) = 0 "
    "then insert into alarms values (0)",
    # a condition over a grouped select with HAVING
    "create rule crowded when inserted into t "
    "if exists (select g from t group by g having count(*) > 2) "
    "then insert into alarms select count(*) from t",
    "insert into t values (1, 10), (1, 20), (2, 5), (3, -1), (1, 7)",
    "insert into t values (2, 1)",
    "select g, count(*), max(x) from t group by g order by g",
    "select count(*), min(x) from t where x > 1000",
)


def zone_pruned(db: Any) -> None:
    db.execute("create table big (k integer, v integer)")
    db.execute("create table probe (k integer)")
    db.execute("create table hits (k integer)")
    db.execute("insert into big values " + ", ".join(
        f"({k}, {k % 7})" for k in range(600)))
    db.execute(
        "create rule probe_big when inserted into probe "
        "if exists (select * from big where k > 590) "
        "then insert into hits select big.k from big, inserted probe "
        "where big.k >= 595 and big.k = probe.k")
    db.execute("insert into probe values (596), (597), (10)")
    db.query("select count(*) from big where k < 10")
    db.query("select v from big where k between 300 and 310")
    # an index bumps the schema version: cached plans and programs go
    db.execute("create index big_k on big (k)")
    db.query("select count(*) from big where k < 10")


def row_at_a_time(db: Any) -> None:
    db.database.enable_vectorized_eval = False
    example_41(db)
    grouped(db)


def unbatched_scan(db: Any) -> None:
    """A transition table named outside a rule has no batch: the join
    takes the row path for it (``row_fallbacks``) and then fails."""
    from repro.errors import ReproError

    db.execute("create table t (a integer)")
    db.execute("insert into t values (1), (2), (3)")
    try:
        db.execute("select * from t x, inserted t y where x.a = y.a")
    except ReproError:
        pass


def after_reset(db: Any) -> None:
    grouped(db)
    db.reset_stats()
    db.execute("insert into t values (4, 4), (4, -4)")
    db.query("select g, sum(x) from t group by g")


def coordinator_retry(db: Any) -> None:
    """One auto-commit insert is parked at its ``wal_append`` pause
    point while a bystander commits a write to the table its rule's
    condition read: the insert conflicts at remount and its retry
    commits."""
    from repro.concurrency import TransactionCoordinator

    for statement in (
        "create table emp (name varchar, sal float)",
        "create table audit (name varchar)",
        "create table limits (cap float)",
        "insert into limits values (1)",
        "create rule gated_log when inserted into emp "
        "if exists (select * from limits where cap > 0) "
        "then insert into audit (select name from inserted emp)",
    ):
        db.execute(statement)
    coordinator = TransactionCoordinator(db)
    writer = coordinator.open_session("writer")
    bystander = coordinator.open_session("bystander")
    parked = []

    def hook(point: str, session: Any) -> None:
        if session is writer and point == "wal_append" and not parked:
            parked.append(point)
            coordinator.execute(bystander, "update limits set cap = 2")

    coordinator.pause_hook = hook
    coordinator.execute(writer, "insert into emp values ('amy', 10)")
    coordinator.pause_hook = None
    coordinator.query(bystander, "select name from audit")
    coordinator.close_session(bystander)
    coordinator.close_session(writer)


#: label -> scenario, run on a fresh database in this order
SCENARIOS: dict[str, Callable[[Any], None]] = {
    "example_4.1": example_41,
    "orgchart": orgchart,
    "grouped": grouped,
    "zone_pruned": zone_pruned,
    "row_at_a_time": row_at_a_time,
    "unbatched_scan": unbatched_scan,
    "after_reset": after_reset,
    "coordinator_retry": coordinator_retry,
}


def _counts(value: Any) -> Any:
    """``value`` less every :data:`WALL_CLOCK` key, at any depth."""
    if isinstance(value, dict):
        return {key: _counts(item) for key, item in value.items()
                if key not in WALL_CLOCK}
    return value


def record(scenario: Callable[[Any], None]) -> dict[str, Any]:
    """``stats()`` of a fresh database after ``scenario``, both
    switches on (whatever the environment says) unless the scenario
    turns one off."""
    from repro import ActiveDatabase

    db = ActiveDatabase()
    db.database.enable_vectorized_eval = True
    db.database.enable_subquery_cache = True
    scenario(db)
    return _counts(db.stats())


def build() -> list[dict[str, Any]]:
    return [{"label": label, "stats": record(scenario)}
            for label, scenario in SCENARIOS.items()]


def _paths(value: Any, prefix: str = "") -> list[tuple[str, str]]:
    """``(key path, JSON text)`` of every leaf, in document order."""
    if isinstance(value, dict) and value:
        found = []
        for key, item in value.items():
            found += _paths(item, f"{prefix}/{key}")
        return found
    return [(prefix or "/", json.dumps(value))]


def moved(golden: list[dict[str, Any]], entries: list[dict[str, Any]]
          ) -> list[str]:
    """What differs between the snapshot and a fresh build: one line per
    scenario added or dropped, per leaf whose value or place moved."""
    found = {entry["label"]: entry["stats"] for entry in entries}
    pinned = {entry["label"]: entry["stats"] for entry in golden}
    problems = [f"{label}: not in the snapshot"
                for label in found if label not in pinned]
    problems += [f"{label}: no longer a scenario"
                 for label in pinned if label not in found]
    for label in [label for label in found if label in pinned]:
        ours, theirs = _paths(found[label]), _paths(pinned[label])
        if ours == theirs:
            continue
        theirs_at = dict(theirs)
        ours_at = dict(ours)
        changed = [path for path, text in ours
                   if theirs_at.get(path) != text]
        changed += [path for path in theirs_at if path not in ours_at]
        problems += [f"{label}: {path} moved" for path in changed]
        if not changed:
            problems.append(f"{label}: the key order moved")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate and compare, write nothing")
    args = parser.parse_args()
    entries = build()
    if args.check:
        problems = moved(json.loads(GOLDEN.read_text()), entries)
        for problem in problems:
            print(problem)
        print(f"{GOLDEN.relative_to(ROOT)}: "
              f"{'MOVED' if problems else 'reproduced'}")
        return 1 if problems else 0
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)} ({len(entries)} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
