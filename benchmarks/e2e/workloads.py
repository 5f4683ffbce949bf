"""The five workloads: set-up, seeded op stream, harness-side model.

Every workload runs the system as shipped (default constructor
arguments, durable, ``fsync=True``) and keeps its own model of what the
database must contain, so each op and the final state are checked
against something the program did not compute. A workload's write op
and read op are each one statement shape; statements that only restore
state between ops ("housekeeping") run untimed and uncounted.

The op stream is a function of the seed and of ``--seconds`` alone (a
fixed number of rounds, not a time box): two slices with the same seed
issue the same statements in the same order, which is what the
cross-slice signature check relies on.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import zlib
from time import perf_counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))

#: an op that conflicts more often than this is a failed op
MAX_CONFLICT_RETRIES = 50

#: paper Example 3.2, as in tests/integration/test_paper_examples.py
RULE_32 = """
create rule salary_watch
when updated emp.salary
if (select sum(salary) from new updated emp.salary) >
   (select sum(salary) from old updated emp.salary)
then update emp set salary = 0.95 * salary where dept_no = 2;
     update emp set salary = 0.85 * salary where dept_no = 3
"""

#: paper Example 4.1, verbatim
RULE_41 = """
create rule manager_cascade
when deleted from emp
then delete from emp
     where dept_no in (select dept_no from dept
                       where mgr_no in (select emp_no from deleted emp));
     delete from dept
     where mgr_no in (select emp_no from deleted emp)
"""


class Recorder:
    """Timed calls, failures and the determinism signature of one phase."""

    def __init__(self, tracer=None, first_op=0):
        self.tracer = tracer
        #: seconds per completed op, by kind
        self.latencies = {"write": [], "read": []}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.next_op = first_op
        #: seconds spent inside timed calls, failed ones included
        self.busy = 0.0
        #: seconds of the latest timed call (also when it raised)
        self.last = 0.0
        #: wall seconds of the phase when several threads issued ops
        #: (throughput is then ops over wall time, not over busy time)
        self.wall = None
        #: running checksum after each signed point of the op stream
        self.signature = []
        self._crc = 0

    def new_op(self):
        self.next_op += 1
        return self.next_op

    def timed(self, kind, op, function, *args):
        """One client-observed call; returns ``(result, seconds)``."""
        start = perf_counter()
        try:
            if self.tracer is None:
                result = function(*args)
            else:
                with self.tracer.root("op." + kind, op):
                    result = function(*args)
        finally:
            self.last = perf_counter() - start
            self.busy += self.last
        return result, self.last

    def op(self, kind, function, argument, check):
        """Run, time, check and record one whole operation."""
        self.attempted += 1
        try:
            result, seconds = self.timed(
                kind, self.new_op(), function, argument
            )
            problem = check(result)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            result, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(f"{kind} {argument!r}: {problem}")
        else:
            self.latencies[kind].append(seconds)
        return result

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def sign(self, *values):
        self._crc = zlib.crc32(repr(values).encode(), self._crc)
        self.signature.append(self._crc)

    def absorb(self, other):
        """Fold another thread's recorder into this one."""
        for kind, values in other.latencies.items():
            self.latencies[kind].extend(values)
        self.busy += other.busy
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:5]

    def op_seconds(self):
        """The denominator of ``ops_per_s``: time spent inside ops (so
        housekeeping and the harness's model do not count), or the
        phase's wall time when several threads issued ops."""
        return self.busy if self.wall is None else self.wall


def _org_chart(depth, seed):
    """The paper's org chart with cent-precision-and-beyond salaries, so
    WAL record sizes are in their steady state from the first op."""
    from repro.workloads import orgchart

    chart = orgchart.build_orgchart(depth=depth, branching=2, seed=seed)
    rng = random.Random(seed)
    chart.employees = [
        (name, emp_no, salary + rng.random(), dept_no)
        for name, emp_no, salary, dept_no in chart.employees
    ]
    return chart


def _load_org(target, chart, indexes=True):
    from repro.workloads import orgchart

    orgchart.create_schema(target)
    orgchart.load_orgchart(target, chart)
    if indexes:
        target.execute("create index emp_no_idx on emp (emp_no)")
        target.execute("create index emp_dept_idx on emp (dept_no)")


class Workload:
    """Common shape: set up, run phases of the op stream, report."""

    name = None
    #: whether one thread issues every op (signatures must then agree)
    single_threaded = True
    #: rounds per second on the machine the benchmark was sized on; it
    #: only turns ``--seconds`` into a fixed, seeded number of rounds
    ROUNDS_PER_SECOND = 0
    #: fewest untimed rounds before the measured op list, enough to
    #: fill the plan and compile caches
    WARMUP_ROUNDS = 0

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.db = None
        self.peak_rss_mb = None

    # -- lifecycle -----------------------------------------------------

    def setup(self, directory, workdir):
        raise NotImplementedError

    def rounds(self, seconds):
        """``(warm-up rounds, measured rounds)`` of a slice sized to
        ``seconds``: fixed counts, so every slice of a seed executes the
        same statements whatever the speed of the code under test."""
        measured = max(1, round(self.ROUNDS_PER_SECOND * seconds))
        return max(self.WARMUP_ROUNDS, -(-measured // 10)), measured

    def run(self, rounds, recorder):
        """Issue ``rounds`` rounds of the op stream."""
        for _ in range(rounds):
            self.round(recorder)

    def round(self, recorder):
        raise NotImplementedError

    def host_pid(self):
        """The process hosting the engine."""
        return os.getpid()

    def sample_rss(self):
        """Read the engine host's peak RSS (``VmHWM``). Called right
        after the op list: a fixed amount of work, so the peak is
        comparable between runs, and the end-of-slice checks are not in
        it."""
        with open(f"/proc/{self.host_pid()}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    self.peak_rss_mb = int(line.split()[1]) / 1024

    def stop(self):
        """Stop abruptly (no ``close()``); safe to call twice."""

    # -- observation ---------------------------------------------------

    def flushed_length(self):
        """The WAL's flushed length if another process hosts the engine
        (None: the slice's own :class:`~.flushlog.FlushLog` knows)."""
        return None

    def stats(self):
        return self.db.stats()

    def rows(self, sql):
        return self.db.rows(sql)

    def checkpoint(self):
        """Take one explicit checkpoint; returns its seconds. (As
        shipped no checkpoint is ever automatic, so a traced slice
        prices one by hand, after everything else was checked.)"""
        return self.db.checkpoint()["duration"]

    def expected_state(self):
        """``[(select, expected rows)]`` from the harness-side model; the
        live database and the crash-recovered copy must both match."""
        raise NotImplementedError

    def check_stats(self, delta):
        """Problems visible only in the op list's ``stats()`` delta."""
        return []

    def _sign(self, recorder):
        recorder.sign(
            self.db.durability.wal.bytes_written,
            self.db.database.handles.issued_count,
        )


# ---------------------------------------------------------------------------


class SetBulk(Workload):
    """The paper's set-oriented case: one statement, ~600 affected rows."""

    name = "set_bulk"
    ROUNDS_PER_SECOND = 20
    WARMUP_ROUNDS = 6
    READ = (
        "select d.dept_no, count(*), sum(e.salary) from emp e, dept d "
        "where e.dept_no = d.dept_no and e.salary > 45000 "
        "group by d.dept_no"
    )
    SPAN = 300

    def setup(self, directory, workdir):
        from repro import ActiveDatabase
        from repro.workloads import orgchart

        chart = _org_chart(11, self.seed)
        self.db = db = ActiveDatabase(durability=directory)
        _load_org(db, chart)
        db.execute("create table salary_log (name varchar, salary float)")
        db.execute(RULE_32)
        db.execute(next(
            rule for rule in orgchart.ORG_RULES if "log_salaries" in rule
        ))
        db.execute("create rule priority salary_watch before log_salaries")
        #: the model: salary and department per employee, in load order
        self.salary = {e[1]: e[2] for e in chart.employees}
        self.dept_of = {e[1]: e[3] for e in chart.employees}
        self.max_dept = len(chart.departments)
        #: the employees Example 3.2's action cuts on every firing
        self.cut = [e for e, d in self.dept_of.items() if d in (2, 3)]
        self.logged = 0

    def round(self, recorder):
        low = self.rng.randint(4, self.max_dept + 1 - self.SPAN)
        high = low + self.SPAN
        hit = [e for e, d in self.dept_of.items() if low <= d < high]

        def check_write(result):
            updated = len(result.transitions[0].effect.updated)
            if not result.committed or result.rule_firings != 2 \
                    or updated != len(hit):
                return (f"committed={result.committed} firings="
                        f"{result.rule_firings} updated={updated}")

        result = recorder.op(
            "write", self.db.execute,
            f"update emp set salary = salary * 1.01 "
            f"where dept_no >= {low} and dept_no < {high}",
            check_write,
        )
        if result is not None:
            for emp_no in hit:
                self.salary[emp_no] = self.salary[emp_no] * 1.01
            for emp_no in self.cut:
                factor = 0.95 if self.dept_of[emp_no] == 2 else 0.85
                self.salary[emp_no] = factor * self.salary[emp_no]
            self.logged += len(hit) + len(self.cut)

        rich = [e for e, s in self.salary.items()
                if s > 45000 and self.dept_of[e] > 0]
        groups = len({self.dept_of[e] for e in rich})

        def check_read(result):
            counted = sum(row[1] for row in result.rows)
            if len(result.rows) != groups or counted != len(rich):
                return (f"{len(result.rows)} groups / {counted} rows, "
                        f"model {groups} / {len(rich)}")

        recorder.op("read", self.db.query, self.READ, check_read)
        self._sign(recorder)

    def expected_state(self):
        return [
            ("select count(*) from salary_log", [(self.logged,)]),
            ("select emp_no, salary from emp",
             sorted(self.salary.items())),
        ]


class RecursiveCascade(Workload):
    """Self-retriggering to a fixpoint: paper Example 4.1."""

    name = "recursive_cascade"
    ROUNDS_PER_SECOND = 15
    WARMUP_ROUNDS = 3
    DEPTH = 4

    def setup(self, directory, workdir):
        from repro import ActiveDatabase
        from repro.workloads import orgchart

        self.orgchart = orgchart
        self.chart = chart = _org_chart(self.DEPTH, self.seed)
        self.db = db = ActiveDatabase(durability=directory)
        _load_org(db, chart, indexes=False)
        db.execute(RULE_41)
        self.manager_salaries = [
            salary for _, emp_no, salary, _ in chart.employees
            if any(mgr == emp_no for _, mgr in chart.departments)
        ]

    def round(self, recorder):
        db = self.db

        def check_write(result):
            if not result.committed \
                    or result.rule_firings != self.DEPTH + 1:
                return (f"committed={result.committed} "
                        f"firings={result.rule_firings}")
            left = db.rows("select count(*) from emp") \
                + db.rows("select count(*) from dept")
            if left != [(0,), (0,)]:
                return f"rows left after the cascade: {left}"

        if recorder.op("write", db.execute,
                       "delete from emp where emp_no = 1",
                       check_write) is None:
            db.execute("delete from emp")
            db.execute("delete from dept")
        # housekeeping: put the chart back (an insert triggers nothing)
        self.orgchart.load_orgchart(db, self.chart)

        threshold = self.rng.randint(40000, 80000)
        expected = 2 * sum(s > threshold for s in self.manager_salaries)
        recorder.op(
            "read", db.query,
            "select count(*) from emp where dept_no in "
            "(select dept_no from dept where mgr_no in "
            f"(select emp_no from emp where salary > {threshold}))",
            lambda result: None if result.rows == [(expected,)]
            else f"{result.rows}, model {expected}",
        )
        self._sign(recorder)

    def expected_state(self):
        return [
            ("select count(*) from emp", [(len(self.chart.employees),)]),
            ("select count(*) from dept", [(len(self.chart.departments),)]),
        ]


class RuleFanout(Workload):
    """Many triggered rules, almost none of which fire."""

    name = "rule_fanout"
    ROUNDS_PER_SECOND = 48
    WARMUP_ROUNDS = 6
    RULES = 128
    BASE_ROWS = 2000
    BATCH = 20
    GROUPS = 16
    READ = "select g, count(*) from t where x > 1000 group by g"

    def setup(self, directory, workdir):
        from repro import ActiveDatabase

        self.db = db = ActiveDatabase(durability=directory)
        db.execute("create table t (x integer, g integer)")
        db.execute("create table journal (x integer, g integer)")
        base = [
            (self.rng.randrange(100_000), i % self.GROUPS)
            for i in range(self.BASE_ROWS)
        ]
        db.execute("insert into t values " + ", ".join(
            f"({x}, {g})" for x, g in base
        ))
        for i in range(self.RULES):
            db.execute(
                f"create rule never_{i} when inserted into t "
                f"if exists (select * from t where x > {10 ** 9 + i}) "
                f"then insert into journal values ({i}, -1)"
            )
        db.execute(
            "create rule journal_t when inserted into t "
            "then insert into journal select x, g from inserted t"
        )
        self.visible = sum(x > 1000 for x, _ in base)
        self.writes = 0

    def round(self, recorder):
        # Every never_i is considered before journal_t fires and again
        # after its transition (their trans-info only resets on
        # execution); journal_t itself is considered once.
        considerations = 2 * self.RULES + 1

        def check_write(result):
            if not result.committed or result.rule_firings != 1 \
                    or len(result.considered) != considerations:
                return (f"committed={result.committed} firings="
                        f"{result.rule_firings} considered="
                        f"{len(result.considered)}")

        values = ", ".join(
            f"({1_000_000 + self.rng.randrange(1_000_000)}, "
            f"{self.rng.randrange(self.GROUPS)})"
            for _ in range(self.BATCH)
        )
        if recorder.op("write", self.db.execute,
                       f"insert into t values {values}",
                       check_write) is not None:
            self.writes += 1
        self.db.execute("delete from t where x >= 1000000")  # housekeeping

        def check_read(result):
            counted = sum(row[1] for row in result.rows)
            if len(result.rows) != self.GROUPS or counted != self.visible:
                return (f"{len(result.rows)} groups / {counted} rows, "
                        f"model {self.GROUPS} / {self.visible}")

        recorder.op("read", self.db.query, self.READ, check_read)
        self._sign(recorder)

    def check_stats(self, delta):
        if delta("incremental", "fallbacks"):
            return ["incremental conditions fell back to full evaluation"]
        return []

    def expected_state(self):
        return [
            ("select count(*) from t", [(self.BASE_ROWS,)]),
            ("select count(*) from journal",
             [(self.BATCH * self.writes,)]),
        ]


class _Writer:
    """One writer session's place in its current transaction."""

    def __init__(self, session):
        self.session = session
        self.step = 0
        self.key = 0
        self.op = 0
        #: seconds spent in this transaction's statements so far
        self.seconds = 0.0
        self.retries = 0


class HotSessions(Workload):
    """Contention without a scheduler: one thread steps five sessions.

    Each step advances one seeded-random session by one statement, so
    conflicts, retries and context switches are a function of the seed.
    A write's latency is the time spent in its own statements from the
    first ``begin`` to the acknowledged commit, retried attempts
    included.
    """

    name = "hot_sessions"
    ROUNDS_PER_SECOND = 4100
    WARMUP_ROUNDS = 600
    ACCOUNTS = 1000
    WRITERS = 4

    def setup(self, directory, workdir):
        from repro import ActiveDatabase
        from repro.concurrency import TransactionCoordinator
        from repro.errors import ConflictError

        self.ConflictError = ConflictError
        self.db = db = ActiveDatabase(durability=directory)
        db.execute("create table acct (id integer, bal float)")
        db.execute("create table journal (id integer, bal float)")
        db.execute("create index acct_id on acct (id)")
        db.execute("insert into acct values " + ", ".join(
            f"({i}, 100.0)" for i in range(self.ACCOUNTS)
        ))
        db.execute(
            "create rule no_overdraft when updated acct.bal "
            "if exists (select * from new updated acct.bal where bal < 0) "
            "then rollback"
        )
        db.execute(
            "create rule journal when updated acct.bal "
            "then insert into journal select id, bal "
            "from new updated acct.bal"
        )
        self.coordinator = TransactionCoordinator(db)
        self.reader = self.coordinator.open_session("reader")
        self.writers = [
            _Writer(self.coordinator.open_session(f"writer{i}"))
            for i in range(self.WRITERS)
        ]
        self.commits = 0

    def _key(self):
        return int(self.ACCOUNTS * self.rng.random() ** 3)

    def round(self, recorder):
        """One scheduler step."""
        turn = self.rng.randrange(self.WRITERS + 1)
        if turn == self.WRITERS:
            recorder.op(
                "read",
                lambda sql: self.coordinator.query(self.reader, sql),
                f"select bal from acct where id = {self._key()}",
                lambda result: None if len(result.rows) == 1
                else f"{len(result.rows)} rows",
            )
        else:
            self._advance(self.writers[turn], recorder)
        stats = self.coordinator.stats
        recorder.sign(
            self.db.durability.wal.bytes_written,
            stats.conflicts, stats.switches,
        )

    def _advance(self, writer, recorder):
        coordinator, session = self.coordinator, writer.session
        if writer.step == 0 and writer.retries == 0:
            writer.key, writer.op = self._key(), recorder.new_op()
            writer.seconds = 0.0
            recorder.attempted += 1
        call = (
            (coordinator.begin, session),
            (coordinator.query, session,
             f"select bal from acct where id = {writer.key}"),
            (coordinator.execute, session,
             f"update acct set bal = bal + 1 where id = {writer.key}"),
            (coordinator.commit, session),
        )[writer.step]
        try:
            result, seconds = recorder.timed("write", writer.op, *call)
        except self.ConflictError:
            writer.seconds += recorder.last
            writer.step = 0
            writer.retries += 1
            if writer.retries > MAX_CONFLICT_RETRIES:
                recorder.fail(f"account {writer.key}: more than "
                              f"{MAX_CONFLICT_RETRIES} conflict retries")
                writer.retries = 0
            return
        writer.seconds += seconds
        if writer.step == 1 and len(result.rows) != 1:
            recorder.fail(f"account {writer.key}: {len(result.rows)} rows")
        if writer.step == 3:
            if result.committed and result.rule_firings == 1:
                recorder.latencies["write"].append(writer.seconds)
                self.commits += 1
            else:
                recorder.fail(f"account {writer.key}: committed="
                              f"{result.committed} firings="
                              f"{result.rule_firings}")
            writer.retries = 0
        writer.step = (writer.step + 1) % 4

    def rows(self, sql):
        # through the coordinator, so a writer's mounted open
        # transaction is suspended and only committed state is visible
        return self.coordinator.query(self.reader, sql).rows

    def checkpoint(self):
        for writer in self.writers:
            if writer.session.in_txn:
                try:
                    self.coordinator.rollback(writer.session)
                except self.ConflictError:
                    pass  # a stale transaction aborts when mounted: same end
        return super().checkpoint()

    def expected_state(self):
        return [
            ("select sum(bal) from acct",
             [(100.0 * self.ACCOUNTS + self.commits,)]),
            ("select count(*) from journal", [(self.commits,)]),
        ]


class OltpServed(Workload):
    """Point reads and single-row rule-firing writes through the server.

    Closed loop: ``CLIENTS`` threads, one connection each, the next
    request only after the previous reply.
    """

    name = "oltp_served"
    single_threaded = False
    CLIENTS = 2
    ROUNDS_PER_SECOND = 550  # per client

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.child = None

    def setup(self, directory, workdir):
        from repro.server import connect
        from repro.workloads import orgchart

        self.mirror = os.path.join(workdir, "flushed.bin")
        if self.tracer is not None:
            # a traced slice hosts RuleServer on a thread of this
            # process, so client and server spans share one buffer
            port = self._serve_on_thread(directory)
        else:
            port = self._serve_in_child(directory)
        self.control = connect(port=port)
        if self.tracer is not None:
            session = self.control.session_info()["name"]
            self.tracer.session_ops[session] = "setup"
        chart = _org_chart(11, self.seed)
        _load_org(self.control, chart)
        orgchart.define_rules(self.control)
        self.clients = [connect(port=port) for _ in range(self.CLIENTS)]
        self.rngs = [
            random.Random(self.seed * 1000 + i) for i in range(self.CLIENTS)
        ]
        self.salary = {e[1]: e[2] for e in chart.employees}
        self.emp_count = len(chart.employees)
        self.acknowledged = 0
        self._model_lock = threading.Lock()

    def _serve_in_child(self, directory):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        self.child = subprocess.Popen(
            [sys.executable, "-u", "-m", "benchmarks.e2e.server_child",
             self.mirror, directory, "--port", "0"],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.child.stdout.readline()
        if "listening on" not in line:
            self.child.kill()
            self.child.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def _serve_on_thread(self, directory):
        import asyncio

        from repro.server import RuleServer
        from repro.server.__main__ import build_system

        self.system = build_system(directory)
        server = RuleServer(self.system, port=0)
        self.loop = loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        if not started.wait(30):
            raise RuntimeError("in-process server did not start")
        return server.address[1]

    def run(self, rounds, recorder):
        """``rounds`` ops from each client thread, all started together."""
        barrier = threading.Barrier(self.CLIENTS + 1)
        recorders = [
            Recorder(recorder.tracer, recorder.next_op + i * 10_000_000)
            for i in range(self.CLIENTS)
        ]
        threads = [
            threading.Thread(target=self._client, args=(
                client, rng, own, rounds, barrier,
            ))
            for client, rng, own in zip(self.clients, self.rngs, recorders)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(60)
        start = perf_counter()
        for thread in threads:
            thread.join(120)
            if thread.is_alive():
                recorder.fail("client thread did not finish")
        recorder.wall = perf_counter() - start
        for own in recorders:
            recorder.absorb(own)
        recorder.next_op += self.CLIENTS * 10_000_000

    def _client(self, client, rng, recorder, rounds, barrier):
        from repro.errors import ConflictError

        tracer = recorder.tracer
        session = client.session_info()["name"] if tracer else None

        def request(sql):
            if tracer is not None:
                tracer.session_ops[session] = recorder.next_op
            for _ in range(MAX_CONFLICT_RETRIES):
                try:
                    return client.request(sql)
                except ConflictError:
                    continue
            return client.request(sql)

        barrier.wait(60)
        for _ in range(rounds):
            emp_no = rng.randint(1, self.emp_count)
            if rng.random() < 0.5:
                recorder.op(
                    "read", request,
                    f"select name, salary from emp where emp_no = {emp_no}",
                    lambda reply: None if len(reply["rows"]) == 1
                    else f"{len(reply['rows'])} rows",
                )
                continue
            reply = recorder.op(
                "write", request,
                f"update emp set salary = salary + 1 where emp_no = {emp_no}",
                lambda reply: None
                if reply["committed"] and reply["rule_firings"] == 1
                else f"reply {reply}",
            )
            if reply is not None:
                with self._model_lock:
                    self.salary[emp_no] = self.salary[emp_no] + 1
                    self.acknowledged += 1

    def host_pid(self):
        return os.getpid() if self.child is None else self.child.pid

    def stop(self):
        if self.child is not None and self.child.poll() is None:
            self.child.send_signal(signal.SIGKILL)
            self.child.wait()
            self.child.stdout.close()
            for client in [self.control, *self.clients]:
                client.close()

    def flushed_length(self):
        from .flushlog import read_mirror

        return read_mirror(self.mirror) if self.child is not None else None

    def stats(self):
        return self.control.stats()

    def rows(self, sql):
        return [tuple(row) for row in self.control.query(sql)]

    def checkpoint(self):
        # only a traced slice asks, and its server is in this process
        return self.system.checkpoint()["duration"]

    def expected_state(self):
        return [
            ("select count(*) from salary_log", [(self.acknowledged,)]),
            ("select emp_no, salary from emp", sorted(self.salary.items())),
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (OltpServed, SetBulk, RecursiveCascade, RuleFanout,
                HotSessions)
}
