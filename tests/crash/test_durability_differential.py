"""Differential test: a durability-enabled database must behave
identically to an in-memory one — same results, same final state, same
event stream (minus the wal_append/checkpoint/recovery events that only
durability emits)."""

import random

import pytest

from repro import ActiveDatabase, RingBufferSink

DURABILITY_ONLY = {"wal_append", "checkpoint", "recovery"}


def run_workload(db, seed):
    db.execute("create table acct (id integer, bal float)")
    db.execute("create table audit (aid integer, note varchar)")
    db.execute("create index acct_id on acct (id)")
    db.execute(
        "create rule journal when inserted into acct "
        "then insert into audit (select id, 'ins' from inserted acct)"
    )
    db.execute(
        "create rule veto when inserted into acct "
        "if exists (select * from acct where bal < 0.0) then rollback"
    )
    db.execute("create rule priority journal before veto")
    rng = random.Random(seed)
    results = []
    next_id = 1
    for _ in range(20):
        kind = rng.choice(["insert", "update", "delete", "bad", "query"])
        if kind == "insert":
            statement = (
                f"insert into acct values ({next_id}, {rng.randint(1, 9)}.0)"
            )
            next_id += 1
        elif kind == "update":
            statement = (
                f"update acct set bal = bal + 1.0 "
                f"where id <= {rng.randint(1, next_id)}"
            )
        elif kind == "delete":
            statement = f"delete from acct where id = {rng.randint(1, next_id)}"
        elif kind == "bad":
            # triggers the veto rule: the whole transaction rolls back
            statement = f"insert into acct values ({next_id}, -1.0)"
            next_id += 1
        else:
            statement = "select id, bal from acct"
        result = db.execute(statement)
        results.append(
            result.rows
            if hasattr(result, "rows") and statement.startswith("select")
            else getattr(result, "rolled_back", None)
        )
    results.append(db.rows("select * from acct"))
    results.append(db.rows("select * from audit"))
    return results


def state(db):
    return {
        name: dict(db.database.table(name).items())
        for name in db.database.table_names()
    }


def event_trace(sink):
    return [
        (event.kind, event.txn, event.data.get("rule"))
        for event in sink.events
        if event.kind not in DURABILITY_ONLY
    ]


@pytest.mark.parametrize("seed", range(5))
def test_durable_and_in_memory_runs_are_identical(tmp_path, seed):
    plain_sink, durable_sink = RingBufferSink(50000), RingBufferSink(50000)
    plain = ActiveDatabase(sink=plain_sink)
    durable = ActiveDatabase(
        durability=str(tmp_path / "d"), sink=durable_sink
    )
    durable.durability.checkpoint_interval = 4  # checkpoints mid-stream

    plain_results = run_workload(plain, seed)
    durable_results = run_workload(durable, seed)

    assert durable_results == plain_results
    assert state(durable) == state(plain)
    assert event_trace(durable_sink) == event_trace(plain_sink)

    plain_stats = plain.stats()
    durable_stats = durable.stats()

    # the engine counters agree except the raw event count (wal/checkpoint
    # events are legitimately extra), wall-clock timings, the
    # layout-sensitive cost counters (checkpoint compaction rebuilds the
    # zone maps exactly, and they may prune batch rows the in-memory
    # run's widen-only zones cannot — cost-only differences; results,
    # state and the event trace are asserted identical above), and the
    # stats sections durability adds
    CACHE_SENSITIVE = {
        "zones_pruned",
        "rows_zone_pruned",
        "batch_rows_scanned",
    }

    def counters(section):
        return {
            key: value
            for key, value in section.items()
            if key != "events"
            and key not in CACHE_SENSITIVE
            and not key.endswith("_time")
        }

    assert counters(durable_stats["engine"]) == counters(plain_stats["engine"])
    assert {
        name: counters(rule) for name, rule in durable_stats["rules"].items()
    } == {
        name: counters(rule) for name, rule in plain_stats["rules"].items()
    }
    assert "durability" not in plain_stats
    assert durable_stats["durability"]["checkpoints"] >= 1
