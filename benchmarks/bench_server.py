"""Server throughput and conflict behaviour under concurrent clients.

The concurrency layer multiplexes many sessions over one engine, so the
interesting questions are about *aggregate* behaviour:

1. Committed txns/sec as the client count grows on a conflict-free
   workload (blind inserts, each firing a rule cascade). Statements
   never physically interleave — the server's loop serializes them — so
   throughput must stay flat from 1 to 8 clients; a drop would mean the
   coordinator's context switching or validation is charging per-client
   overhead it shouldn't.
2. The same sweep with durability attached: group commit batches the
   per-commit fsyncs of same-tick committers, so more clients should
   *help* amortize the dominant cost, not hurt.
3. A deliberately contended workload (explicit transactions
   incrementing one hot row): first-committer-wins aborts the rest, the
   clients retry, and the final balance proves no increment was ever
   lost over the wire. The series reports the conflict/abort rate.
"""

import asyncio
import tempfile
import threading
import time

import pytest

from repro import ActiveDatabase
from repro.errors import ConflictError
from repro.server import RuleServer, connect

from .conftest import FAST_MODE, print_series, record_stats

CLIENTS = (1, 2, 4) if FAST_MODE else (1, 2, 4, 8)
TXNS_PER_CLIENT = 20 if FAST_MODE else 150
HOT_TXNS = 10 if FAST_MODE else 60
HOT_CLIENTS = (2, 4)

SCHEMA = [
    "create table t (v float)",
    "create table audit (v float)",
    "create rule journal when inserted into t "
    "then insert into audit (select v from inserted t)",
]


class _Harness:
    """A live server, started and stopped from an asyncio event loop on
    a thread of its own (bench-local copy of the tests' fixture —
    benchmarks must not import from tests/)."""

    def __init__(self, system=None):
        self.system = system or ActiveDatabase(record_seen=False)
        self.server = RuleServer(self.system, port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(10):
            raise TimeoutError("server never started")
        self.port = self.server.address[1]

    def client(self):
        return connect(port=self.port)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


def _sweep(clients, system=None):
    """One throughput measurement: ``clients`` connections each blind-
    insert ``TXNS_PER_CLIENT`` rows; returns (seconds-per-txn, system)."""
    harness = _Harness(system)
    try:
        with harness.client() as setup:
            for statement in SCHEMA:
                setup.execute(statement)
        barrier = threading.Barrier(clients + 1)
        errors = []

        def worker(base):
            try:
                with harness.client() as client:
                    barrier.wait(30)
                    for i in range(TXNS_PER_CLIENT):
                        client.execute(f"insert into t values ({base + i})")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(base * 10_000,))
            for base in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(30)
        start = time.perf_counter()
        for thread in threads:
            thread.join(120)
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        total = clients * TXNS_PER_CLIENT
        with harness.client() as check:
            assert check.query("select count(*) from t") == [[total]]
            assert check.query("select count(*) from audit") == [[total]]
            server = check.stats()["server"]
            assert server["conflicts"] == 0, "blind inserts must not conflict"
        return elapsed / total, harness.system
    finally:
        harness.stop()


def test_throughput_vs_clients(benchmark):
    benchmark.pedantic(_shape_throughput, rounds=1, iterations=1)


def _shape_throughput():
    rows = []
    times = {}
    tps = {}
    for clients in CLIENTS:
        seconds, system = _sweep(clients)
        times[clients] = seconds
        tps[clients] = 1.0 / seconds
        rows.append((clients, f"{1.0 / seconds:,.0f}", f"{seconds * 1e6:.1f}"))
        record_stats(f"memory_{clients}_clients", system)
    print_series(
        "committed txns/sec vs client count (blind inserts + rule "
        f"cascade, {TXNS_PER_CLIENT} txns/client, in-memory)",
        ("clients", "txns/sec", "us/txn"),
        rows,
        values={"seconds_per_txn": times},
    )
    if not FAST_MODE:
        # the acceptance gate: adding clients must not cost throughput
        # on a conflict-free workload (generous floor for CI noise)
        assert tps[8] >= 0.5 * tps[1], (
            f"throughput regressed 1->8 clients: {tps[1]:.0f} -> {tps[8]:.0f}"
        )


def test_group_commit_vs_clients(benchmark):
    benchmark.pedantic(_shape_group_commit, rounds=1, iterations=1)


def _shape_group_commit():
    rows = []
    times = {}
    for clients in CLIENTS:
        with tempfile.TemporaryDirectory() as directory:
            seconds, system = _sweep(
                clients, ActiveDatabase(durability=directory)
            )
            stats = system.stats()["durability"]
            assert stats["group_commit"] is True
            times[clients] = seconds
            rows.append((
                clients,
                f"{1.0 / seconds:,.0f}",
                stats["wal_records"],
                stats["wal_syncs"],
            ))
            record_stats(f"durable_{clients}_clients", system)
    print_series(
        "group commit: txns/sec and fsync batching vs client count "
        f"({TXNS_PER_CLIENT} txns/client, WAL attached)",
        ("clients", "txns/sec", "wal records", "fsyncs"),
        rows,
        values={"seconds_per_txn": times},
    )


def test_contended_hot_row(benchmark):
    benchmark.pedantic(_shape_contention, rounds=1, iterations=1)


def _shape_contention():
    rows = []
    rates = {"conflict_rate": {}, "seconds_per_txn": {}}
    for clients in HOT_CLIENTS:
        harness = _Harness()
        try:
            with harness.client() as setup:
                setup.execute("create table acct (name varchar, bal float)")
                setup.execute("insert into acct values ('hot', 0)")
            barrier = threading.Barrier(clients + 1)
            errors = []

            def worker():
                try:
                    with harness.client() as client:
                        barrier.wait(30)
                        for _ in range(HOT_TXNS):
                            while True:
                                try:
                                    client.begin()
                                    client.execute(
                                        "update acct set bal = bal + 1 "
                                        "where name = 'hot'"
                                    )
                                    client.commit()
                                    break
                                except ConflictError:
                                    continue  # first committer won; retry
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait(30)
            start = time.perf_counter()
            for thread in threads:
                thread.join(120)
            elapsed = time.perf_counter() - start
            if errors:
                raise errors[0]
            committed = clients * HOT_TXNS
            with harness.client() as check:
                # lost-update freedom, end to end over the wire
                assert check.query("select bal from acct") == [
                    [float(committed)]
                ]
                server = check.stats()["server"]
            conflicts = server["conflicts"]
            rate = conflicts / (conflicts + committed)
            rates["conflict_rate"][clients] = rate
            rates["seconds_per_txn"][clients] = elapsed / committed
            rows.append((
                clients, committed, conflicts, f"{rate:.2f}",
            ))
            record_stats(f"contended_{clients}_clients", harness.system)
        finally:
            harness.stop()
    print_series(
        "hot-row contention: first-committer-wins aborts and client "
        f"retries ({HOT_TXNS} increments/client)",
        ("clients", "committed", "conflicts", "conflict rate"),
        rows,
        values=rates,
    )


@pytest.mark.parametrize("clients", [1, max(CLIENTS)])
def test_insert_throughput(benchmark, clients):
    """pytest-benchmark timing of the sweep itself (shape above carries
    the series; this pins per-config timings in the benchmark table)."""
    benchmark.pedantic(lambda: _sweep(clients), rounds=1, iterations=1)
