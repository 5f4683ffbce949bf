"""Property test: the columnar version-2 commit record and its bulk
replay reproduce exactly what the row-at-a-time version-1 codec did.

Hypothesis transactions run against a durable database whose manager
also renders every commit with ``tests/reference/wal_v1.py`` at the same
commit point. The production side is then the real thing —
``recover()`` over the bytes in ``wal.jsonl``: decode, bulk replay, one
index and statistics rebuild — and the reference side is the v1 records
replayed one row at a time through the ordinary mutators. Both must
agree with each other and with the database that wrote the log on rows,
per-table storage order, handle allocation, index contents, rebuilt
statistics and query answers.

A record that was tampered with behind a valid CRC must fail the way the
v1 replay failed: same exception, same pointed message.
"""

import json
import os
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ActiveDatabase, DurabilityManager, recover
from repro.durability.wal import (
    WAL_FILENAME,
    WalError,
    decode_runs,
    encode_record,
    encode_runs,
    scan_wal,
)
from repro.errors import CatalogError, ExecutionError, TypeError_
from tests.reference import wal_v1

SCHEMA = [
    "create table t (a integer, b varchar, c float, d boolean)",
    "create table u (k integer, s varchar)",
    "create table log (a integer, note varchar)",
    "create index t_a on t (a)",
    "create rule journal when inserted into t "
    "then insert into log (select a, 'ins' from inserted t)",
]
TABLES = ("t", "u", "log")

QUERIES = [
    "select a, b, c, d from t",
    "select count(*), sum(c) from t where a >= 2",
    "select b from t where a = 3",
    "select k, s from u",
    "select a, note from log",
]


def literal(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


keys = st.integers(min_value=-2, max_value=8)
texts = st.text(
    alphabet=st.sampled_from("ab'\"\n\t\\ ,é☃"), max_size=6
)
floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def nullable(strategy):
    return st.one_of(st.none(), strategy)


t_rows = st.tuples(
    nullable(keys), nullable(texts), nullable(floats), nullable(st.booleans())
)
u_rows = st.tuples(nullable(keys), nullable(texts))


def values_clause(rows):
    return ", ".join(
        "(" + ", ".join(literal(value) for value in row) + ")"
        for row in rows
    )


@st.composite
def operations(draw):
    kind = draw(st.sampled_from([
        "insert_t", "insert_t", "insert_u", "duplicates", "delete_t",
        "delete_t_range", "delete_u", "update_one", "update_same",
        "update_many", "update_key", "update_split", "update_u",
        "insert_then_delete",
    ]))
    k = draw(keys)
    if kind == "insert_t":
        rows = draw(st.lists(t_rows, min_size=1, max_size=5))
        return f"insert into t values {values_clause(rows)}"
    if kind == "insert_u":
        rows = draw(st.lists(u_rows, min_size=1, max_size=4))
        return f"insert into u values {values_clause(rows)}"
    if kind == "duplicates":
        row = draw(t_rows)
        return f"insert into t values {values_clause([row] * 3)}"
    if kind == "delete_t":
        return f"delete from t where a = {k}"
    if kind == "delete_t_range":
        return f"delete from t where a > {k}"
    if kind == "delete_u":
        return f"delete from u where k <= {k}"
    if kind == "update_one":
        return f"update t set c = c * 1.5 where a < {k}"
    if kind == "update_same":
        return f"update t set a = a, b = b where a >= {k}"
    if kind == "update_many":
        return (
            f"update t set b = {literal(draw(nullable(texts)))}, "
            f"d = {literal(draw(nullable(st.booleans())))} where a = {k}"
        )
    if kind == "update_key":
        return f"update t set a = {draw(keys)} where a = {k}"
    if kind == "update_split":
        # two updated-column sets on one table in one transaction
        return (
            f"update t set c = 0.5 where a < {k}; "
            f"update t set b = 'z', c = 0.25 where a >= {k}"
        )
    if kind == "update_u":
        return f"update u set s = {literal(draw(nullable(texts)))}"
    # the newest handles die inside the transaction: hwm > every live handle
    return (
        "insert into t values (99, 'tmp', null, null), (99, null, 1.0, true); "
        "delete from t where a = 99"
    )


transactions = st.lists(
    st.lists(operations(), min_size=1, max_size=3).map("; ".join),
    min_size=1, max_size=6,
)


class BothCodecs(DurabilityManager):
    """Logs with the production codec and keeps, for every commit, the
    record the v1 reference builds from the same effect and state."""

    def __init__(self, directory):
        super().__init__(directory, fsync=False)
        self.v1_records = []

    def log_commit(self, txn_id, effect, database):
        record = wal_v1.build_commit_record(txn_id, effect, database)
        info = super().log_commit(txn_id, effect, database)
        record["lsn"] = info["lsn"]
        # what a v1 recovery would have read back from the log
        self.v1_records.append(json.loads(json.dumps(record)))
        return info


def run_source(directory, blocks):
    manager = BothCodecs(directory)
    db = ActiveDatabase(durability=manager)
    for statement in SCHEMA:
        db.execute(statement)
    for block in blocks:
        db.execute(block)
    manager.close()
    return db, manager.v1_records


def replay_v1(records):
    db = ActiveDatabase()
    for statement in SCHEMA:
        db.execute(statement)
    for record in records:
        wal_v1.replay_commit_record(record, db.database)
    return db


def logged_handles(v1_records):
    handles = set()
    for record in v1_records:
        handles.update(entry[1] for entry in record["insert"])
        handles.update(entry[1] for entry in record["delete"])
        handles.update(entry[1] for entry in record["update"])
    return handles


def index_contents(db):
    return {
        name: {
            key: handles
            for key, handles in db.database.indexes.get(name).buckets().items()
            if handles
        }
        for name in db.database.indexes.names()
    }


def rebuilt_stats(db):
    snapshots = {}
    for name in TABLES:
        table = db.database.table(name)
        table.rebuild_stats()
        snapshots[name] = table.stats.snapshot()
    return snapshots


def observable(db, handles):
    database = db.database
    return {
        "snapshot": database.snapshot(),
        "order": {name: database.table(name).handles() for name in TABLES},
        "issued": database.handles.issued_count,
        "table_of": {h: database.table_of_handle(h) for h in sorted(handles)},
        "indexes": index_contents(db),
        "stats": rebuilt_stats(db),
        "answers": [db.rows(query) for query in QUERIES],
    }


class TestCodecDifferential:
    @given(transactions)
    @example(["insert into t values (1, 'x', 1.0, true)",
              "insert into t values (99, 'tmp', null, null); "
              "delete from t where a = 99"])
    @example(["insert into t values (3, null, 0.1, false), (3, 'é', null, null)",
              "update t set a = a, b = b where a >= 0",
              "update t set c = 0.5 where a < 5; "
              "update t set b = 'z', c = 0.25 where a >= 3",
              "delete from t where a = 3"])
    @settings(max_examples=60, deadline=None)
    def test_bulk_replay_equals_row_at_a_time_replay(
        self, tmp_path_factory, blocks
    ):
        directory = str(tmp_path_factory.mktemp("wal"))
        try:
            source, v1_records = run_source(directory, blocks)
            handles = logged_handles(v1_records)
            v2 = recover(directory, fsync=False)
            v2.durability.close()
            assert v2.durability.recovery["commits_replayed"] == len(blocks)
            v1 = replay_v1(v1_records)

            expected = observable(v1, handles)
            assert observable(v2, handles) == expected
            assert observable(source, handles) == expected
        finally:
            shutil.rmtree(directory)


class TestRuns:
    @given(st.sets(st.integers(min_value=1, max_value=400), max_size=120))
    @example(set())
    @example({7})
    @example(set(range(6143, 6143 + 604)))
    @example(set(range(1, 200, 2)))
    def test_round_trip(self, handles):
        ascending = sorted(handles)
        runs = encode_runs(ascending)
        assert decode_runs(runs) == ascending
        assert len(runs) <= 2 * len(ascending)
        # what the log holds is the JSON of the runs
        assert decode_runs(json.loads(json.dumps(runs))) == ascending

    def test_bulk_insert_is_one_run(self):
        assert encode_runs(range(6143, 6143 + 604)) == [6143, 604]
        assert encode_runs([1, 2, 3, 7, 9, 10]) == [1, 3, 7, 1, 9, 2]

    @pytest.mark.parametrize("runs", [
        [1], [1, 0], [1, -2], [0, 1], [5, 2, 6, 1], [5, 2, 3, 1],
        [1, 2.0], [True, 1], ["1", 1], None, {"1": 1},
    ])
    def test_malformed_runs_are_rejected(self, runs):
        with pytest.raises(WalError, match="malformed handle runs"):
            decode_runs(runs)


class TestTamperedRecords:
    """Valid CRC, wrong content: the checks that guard replay."""

    BLOCKS = [
        "insert into t values (1, 'x', 1.0, true), (2, 'y', 2.0, false); "
        "insert into u values (1, 'one')",
        "update t set c = 9.5 where a = 2; delete from u where k = 1",
    ]

    @pytest.fixture
    def logged(self, tmp_path):
        directory = str(tmp_path / "d")
        _, v1_records = run_source(directory, self.BLOCKS)
        wal_path = os.path.join(directory, WAL_FILENAME)
        return directory, wal_path, scan_wal(wal_path).records, v1_records

    def failures(self, logged, tamper_v2, tamper_v1):
        """Both replays' exceptions after tampering each codec's form of
        the same record."""
        directory, wal_path, records, v1_records = logged
        commits = [record for record in records if "commit" in record]
        tamper_v2(commits)
        with open(wal_path, "wb") as handle:
            for record in records:
                handle.write(encode_record(record))
        tamper_v1(v1_records)
        with pytest.raises(Exception) as v2_failure:
            recover(directory, fsync=False)
        with pytest.raises(Exception) as v1_failure:
            replay_v1(v1_records)
        return v2_failure.value, v1_failure.value

    def test_row_count(self, logged):
        def v2(commits):
            commits[1]["commit"]["u"]["n"] += 1

        def v1(records):
            records[1]["counts"]["u"] += 1

        ours, reference = self.failures(logged, v2, v1)
        assert type(ours) is type(reference) is WalError
        assert str(ours) == str(reference)
        assert "recovery verification failed: table 'u'" in str(ours)

    def test_wrong_type(self, logged):
        def v2(commits):
            commits[1]["commit"]["t"]["u"][0][2][0] = "9.5"

        def v1(records):
            records[1]["update"][0][2]["c"] = "9.5"

        ours, reference = self.failures(logged, v2, v1)
        assert type(ours) is type(reference) is TypeError_
        assert str(ours) == str(reference)
        assert "column t.c" in str(ours)

    def test_vector_length(self, logged):
        def v2(commits):
            commits[0]["commit"]["t"]["i"][2].pop()  # column b loses a value

        def v1(records):
            records[0]["insert"][1][2].pop()         # a row loses a value

        ours, reference = self.failures(logged, v2, v1)
        assert type(ours) is type(reference) is CatalogError
        assert "column t.b: 1 values for 2 handles" in str(ours)

    def test_missing_column_vector(self, logged):
        def v2(commits):
            commits[0]["commit"]["t"]["i"].pop()

        def v1(records):
            for entry in records[0]["insert"]:
                if entry[0] == "t":
                    entry[2].pop()

        ours, reference = self.failures(logged, v2, v1)
        assert type(ours) is type(reference) is CatalogError
        assert "table 't' expects 4" in str(ours)

    def test_delete_of_a_handle_that_is_not_live(self, logged):
        def v2(commits):
            commits[1]["commit"]["u"]["d"] = [40, 1]

        def v1(records):
            records[1]["delete"][0][1] = 40

        ours, reference = self.failures(logged, v2, v1)
        assert type(ours) is type(reference) is ExecutionError
        assert "handle 40" in str(reference)
        assert "handle 40 is not live in table 'u'" in str(ours)

    def test_insert_of_a_handle_that_is_already_live(self, logged):
        def v2(commits):
            commits[1]["commit"]["t"]["i"] = [[2, 1], [5], ["z"], [0.5], [None]]

        def v1(records):
            records[1]["insert"].append(["t", 2, [5, "z", 0.5, None]])

        ours, reference = self.failures(logged, v2, v1)
        assert type(ours) is type(reference) is ExecutionError
        assert str(ours) == str(reference)
        assert "handle 2 already live in table 't'" in str(ours)

    def test_update_of_a_handle_that_is_not_live(self, logged):
        def v2(commits):
            commits[1]["commit"]["t"]["u"][0][1] = [3, 1]  # u's handle

        def v1(records):
            records[1]["update"][0][1] = 3

        ours, reference = self.failures(logged, v2, v1)
        assert type(ours) is type(reference) is ExecutionError
        assert str(ours) == str(reference)
        assert "handle 3 is not live in table 't'" in str(ours)
