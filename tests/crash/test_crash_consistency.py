"""Crash-consistency property tests.

The central atomicity claim: **after a crash at any point, recovery
yields exactly the committed-transaction prefix** — same rows with the
same tuple handles, same indexes, same rules, same priorities — with
empty transition state and no handle ever reused.

The harness runs a deterministic seeded workload against a
durability-enabled database with a :class:`FaultInjector` armed at one
of the named crash points, and an identical workload against an
in-memory *oracle* database, snapshotting the oracle's full state after
every committed transaction. When the injected crash fires, the
durability directory is recovered and the result is compared —
structure-for-structure — against the oracle snapshot for
``recovery["last_txn"]``. The commit-point rule is also checked
directionally: a crash *after* the fsync'd WAL append means the
in-flight transaction IS committed; a crash anywhere before it means it
never happened.
"""

import random

import pytest

from repro import ActiveDatabase, FaultInjector, SimulatedCrash, recover
from repro.durability.faults import CRASH_POINTS, POINTS_AFTER_COMMIT_POINT

SEEDS = range(9)

SETUP = [
    "create table acct (id integer, bal float)",
    "create table audit (aid integer, note varchar)",
    "create index acct_id on acct (id)",
    # terminating rule chain: acct changes append audit rows, and large
    # audit inserts are themselves trimmed by a second rule
    "create rule journal when inserted into acct "
    "then insert into audit (select id, 'ins' from inserted acct)",
    "create rule journal_upd when updated acct.bal "
    "then insert into audit (select id, 'upd' from new updated acct.bal)",
    "create rule trim when inserted into audit "
    "then delete from audit where aid < 0",
    "create rule priority journal before trim",
    # two committed transactions of seed data (keeps the auto-checkpoint
    # counter below the interval until the workload starts)
    "insert into acct values (1, 10.0), (2, 20.0), (3, 30.0)",
    "insert into audit values (0, 'seed')",
]
SETUP_TXNS = 2  # the two DML statements above
WORKLOAD_LENGTH = 14
CHECKPOINT_INTERVAL = 3


def make_workload(seed):
    """A deterministic list of single-transaction statements."""
    rng = random.Random(seed)
    statements = []
    next_id = 100
    for _ in range(WORKLOAD_LENGTH):
        kind = rng.choice(["insert", "update", "delete", "multi"])
        if kind == "insert":
            statements.append(
                f"insert into acct values ({next_id}, {rng.randint(1, 99)}.0)"
            )
            next_id += 1
        elif kind == "update":
            statements.append(
                f"update acct set bal = bal + {rng.randint(1, 9)}.0 "
                f"where id <= {rng.randint(1, next_id)}"
            )
        elif kind == "delete":
            statements.append(
                f"delete from acct where id = {rng.randint(1, next_id)}"
            )
        else:  # one transaction, several operations
            statements.append(
                f"insert into acct values ({next_id}, 1.0); "
                f"update acct set bal = bal * 2.0 where id = {next_id}; "
                f"insert into acct values ({next_id + 1}, 5.0)"
            )
            next_id += 2
    return statements


def full_state(db):
    """Everything the atomicity claim quantifies over."""
    return {
        "tables": {
            name: dict(db.database.table(name).items())
            for name in sorted(db.database.table_names())
        },
        "indexes": {
            name: {
                key: handles
                for key, handles in
                db.database.indexes.get(name).buckets().items()
                if handles
            }
            for name in sorted(db.database.indexes.names())
        },
        "rules": sorted(
            (rule.name, rule.to_sql(), rule.reset_policy, rule.active)
            for rule in db.catalog
        ),
        "priorities": sorted(db.catalog.pairings()),
    }


def run_oracle(statements):
    """Replay the workload in memory; snapshot after every transaction."""
    oracle = ActiveDatabase()
    for statement in SETUP:
        oracle.execute(statement)
    assert oracle.engine._txn_id == SETUP_TXNS
    snapshots = {SETUP_TXNS: full_state(oracle)}
    for statement in statements:
        oracle.execute(statement)
        snapshots[oracle.engine._txn_id] = full_state(oracle)
    return snapshots


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_recovery_yields_exactly_the_committed_prefix(
    tmp_path, point, seed
):
    rng = random.Random((CRASH_POINTS.index(point) + 1) * 1000 + seed)
    injector = FaultInjector(
        point=point,
        occurrence=rng.randint(1, 4),
        torn_fraction=rng.uniform(0.05, 0.95),
    )
    statements = make_workload(seed)
    snapshots = run_oracle(statements)

    directory = str(tmp_path / "d")
    db = ActiveDatabase(durability=directory)
    db.durability.checkpoint_interval = CHECKPOINT_INTERVAL
    for statement in SETUP:
        db.execute(statement)
    # arm the injector only now, so occurrence counting starts at the
    # workload (setup DDL/DML appends are not counted)
    db.durability.injector = injector
    db.durability.wal.injector = injector

    completed = 0
    crashed = False
    for statement in statements:
        try:
            db.execute(statement)
        except SimulatedCrash:
            crashed = True
            break
        completed += 1
    assert crashed, (
        f"schedule {injector.describe()} never fired in "
        f"{WORKLOAD_LENGTH} transactions"
    )
    # the process "dies" here: the db object is abandoned un-closed;
    # every durable byte was already fsync'd by its own append

    recovered = recover(directory)
    info = recovered.durability.recovery
    committed = info["last_txn"]

    # directional commit-point check: the crashing transaction is
    # committed iff the crash struck after the WAL append returned
    if point in POINTS_AFTER_COMMIT_POINT or point == "mid_checkpoint_rename":
        # post-append (and checkpointing happens after commit), so the
        # in-flight transaction made it
        assert committed == SETUP_TXNS + completed + 1
    else:
        assert committed == SETUP_TXNS + completed

    # the committed prefix, exactly
    assert committed in snapshots
    assert full_state(recovered) == snapshots[committed]

    # clean lifecycle: no open transaction, empty transition state
    assert not recovered.engine.in_transaction
    assert recovered.engine._log is None

    # handles are non-reusable across the crash: anything allocated from
    # here on is beyond every handle the crashed lifetime durably issued
    before = {
        handle
        for name in recovered.database.table_names()
        for handle in dict(recovered.database.table(name).items())
    }
    recovered.execute("insert into acct values (999, 9.0)")
    after = set(dict(recovered.database.table("acct").items()))
    new_handles = after - before
    assert new_handles
    assert min(new_handles) > max(before | {0})
    # and beyond the crashed process's own high-water mark for committed
    # work (uncommitted handles may be re-issued — they never existed)
    committed_handles = {
        handle
        for table in snapshots[committed]["tables"].values()
        for handle in table
    }
    assert min(new_handles) > max(committed_handles | {0})

    # the recovered database is fully operational: rules fire, commits
    # append to the same WAL, and a second recovery agrees
    recovered.execute("delete from acct where id = 999")
    expected = full_state(recovered)
    recovered.durability.close()
    again = recover(directory)
    assert full_state(again) == expected


def test_every_crash_point_is_exercised():
    """The parametrization above must cover every named crash point."""
    assert set(CRASH_POINTS) == {
        "mid_block", "mid_quiesce", "pre_wal_append", "torn_wal_append",
        "post_wal_append", "mid_checkpoint_rename",
    }
    assert len(CRASH_POINTS) * len(SEEDS) >= 50


BULK_ROWS = 300


def bulk_insert(first_id, rows=BULK_ROWS):
    """One all-literal multi-row insert: parsed as one value matrix,
    written as one set, journaled by one set-valued rule action."""
    return "insert into acct values " + ", ".join(
        f"({first_id + n}, {n}.25)" for n in range(rows)
    )


@pytest.mark.parametrize("torn_fraction", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("point", [
    "mid_block", "mid_quiesce", "pre_wal_append", "torn_wal_append",
    "post_wal_append",
])
def test_a_crash_inside_a_bulk_inserts_commit_keeps_all_rows_or_none(
    tmp_path, point, torn_fraction
):
    """The 2 x 300 tuples of a bulk insert and of the journal rule it
    fires are one commit record: a crash anywhere on its way to the log
    leaves every one of them or none, never a prefix of the set."""
    statements = [bulk_insert(1000), "delete from acct where id >= 1100",
                  bulk_insert(2000)]
    snapshots = run_oracle(statements)

    directory = str(tmp_path / "d")
    db = ActiveDatabase(durability=directory)
    for statement in SETUP + statements[:2]:
        db.execute(statement)
    injector = FaultInjector(point=point, torn_fraction=torn_fraction)
    db.durability.injector = injector
    db.durability.wal.injector = injector
    with pytest.raises(SimulatedCrash):
        db.execute(statements[2])

    recovered = recover(directory)
    committed = recovered.durability.recovery["last_txn"]
    survived = point in POINTS_AFTER_COMMIT_POINT
    assert committed == SETUP_TXNS + 2 + survived
    assert full_state(recovered) == snapshots[committed]
    acct = recovered.database.table("acct")
    assert len(acct) == 103 + BULK_ROWS * survived
    # recovery left the zone maps exactly as a rebuild from storage
    recovered_zones = [(list(mins), list(maxs))
                       for mins, maxs in acct.stats.zones]
    acct.rebuild_stats()
    assert [(list(mins), list(maxs))
            for mins, maxs in acct.stats.zones] == recovered_zones

    # the set path keeps working on the recovered storage, on handles
    # past everything the crashed lifetime durably issued
    before = max(
        handle for name in recovered.database.table_names()
        for handle in recovered.database.table(name).handles()
    )
    result = recovered.execute(bulk_insert(5000, rows=260))
    inserted = result.transitions[0].effect.inserted
    assert len(inserted) == 260 and min(inserted) > before
    expected = full_state(recovered)
    recovered.durability.close()
    assert full_state(recover(directory)) == expected
