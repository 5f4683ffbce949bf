"""Property test: the typed section codec (version 3's packed doubles,
in version 6's deflated frames), and the restore of a checkpoint written
with it, reproduce exactly what the version-2 WAL codec and the
version-1 checkpoint did.

Hypothesis transactions run against a durable database whose manager
also renders every commit with ``tests/reference/wal_v2.py`` at the same
commit point. The production side is then the real thing —
``recover()`` over the bytes in ``wal.jsonl``: decode, bulk replay, one
index and statistics rebuild — and the reference side is the v2 records
replayed by the v2 reader. Both must agree with each other and with the
database that wrote the log on rows, per-table storage order, handle
allocation, index contents, rebuilt statistics and query answers. The
checkpoint differential does the same for a checkpoint taken part-way,
against ``tests/reference/checkpoint_v1.py`` and the v2 records of the
WAL suffix behind it.

The vector codec itself is checked bit for bit against ``struct``, its
byte planes against the doubles' bytes read with a stride. A
record that was tampered with behind a valid CRC must fail the way the
v2 replay failed — same exception, same pointed message — or, where v2
let a malformed section through to the set mutators, with a
``WalError`` naming the LSN and the table.
"""

import base64
import json
import math
import os
import random
import shutil
import struct
import zlib
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ActiveDatabase, DurabilityManager, recover
from repro.durability import wal
from repro.durability.checkpoint import read_checkpoint
from repro.durability.wal import (
    WAL_FILENAME,
    WalError,
    decode_runs,
    encode_json,
    encode_runs,
    encode_vector,
    pack_floats,
    table_section,
    scan_wal,
    unpack_floats,
)
from repro.errors import CatalogError, ExecutionError, TypeError_
from tests.crash.envelope import stated, write_log
from tests.reference import checkpoint_v1, wal_v2

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
    record the v2 reference builds from the same effect and state."""

    def __init__(self, directory):
        super().__init__(directory, fsync=False)
        self.v2_records = []

    def log_commit(self, txn_id, effect, database):
        record = wal_v2.build_commit_record(txn_id, effect, database)
        info = super().log_commit(txn_id, effect, database)
        record["lsn"] = info["lsn"]
        # what a v2 recovery would have read back from the log
        self.v2_records.append(json.loads(json.dumps(record)))
        return info


def run_source(directory, blocks, checkpoint_after=None):
    """The source database after ``blocks``, its v2 records and — when
    ``checkpoint_after`` is a block count — the v1 checkpoint document
    of the state the production checkpoint took at that point."""
    manager = BothCodecs(directory)
    db = ActiveDatabase(durability=manager)
    for statement in SCHEMA:
        db.execute(statement)
    v1_checkpoint = None
    for position, block in enumerate(blocks):
        if position == checkpoint_after:
            v1_checkpoint = take_checkpoint(db, directory)
        db.execute(block)
    if checkpoint_after == len(blocks):
        v1_checkpoint = take_checkpoint(db, directory)
    manager.close()
    return db, manager.v2_records, v1_checkpoint


def take_checkpoint(db, directory):
    db.checkpoint()
    document = read_checkpoint(directory)
    return json.loads(json.dumps(checkpoint_v1.build_checkpoint_document(
        db, document["wal_lsn"], document["last_txn"])))


def replay_v2(records, v1_checkpoint=None):
    db = ActiveDatabase()
    wal_lsn = 0
    if v1_checkpoint is None:
        for statement in SCHEMA:
            db.execute(statement)
    else:
        checkpoint_v1.restore_checkpoint(db, v1_checkpoint)
        wal_lsn = v1_checkpoint["wal_lsn"]
    for record in records:
        if record["lsn"] > wal_lsn:
            wal_v2.replay_commit_record(record, db.database)
    return db


def logged_handles(v2_records):
    handles = set()
    for record in v2_records:
        for entry in record["commit"].values():
            handles.update(wal_v2.decode_runs(entry.get("d", [])))
            if "i" in entry:
                handles.update(wal_v2.decode_runs(entry["i"][0]))
            for group in entry.get("u", ()):
                handles.update(wal_v2.decode_runs(group[1]))
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
        snapshots[name] = [(list(mins), list(maxs))
                           for mins, maxs in table.stats.zones]
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
    @example(["insert into t values (1, 'p', 0.1, true), (2, 'q', -0.0, null), "
              "(4, 'r', 1e-300, false)",
              "update t set c = c / 3.0 where a < 5"])  # packed vectors
    # no insert and a mark of 0: the mark is stated all the same
    @example(["delete from t where a = 0"])
    @settings(max_examples=60, deadline=None)
    def test_v3_replay_equals_v2_replay(self, tmp_path_factory, blocks):
        directory = str(tmp_path_factory.mktemp("wal"))
        try:
            source, v2_records, _ = run_source(directory, blocks)
            handles = logged_handles(v2_records)
            v3 = recover(directory, fsync=False)
            v3.durability.close()
            assert v3.durability.recovery["commits_replayed"] == len(blocks)
            v2 = replay_v2(v2_records)

            expected = observable(v2, handles)
            assert observable(v3, handles) == expected
            assert observable(source, handles) == expected
        finally:
            shutil.rmtree(directory)

    def test_long_decimals_are_logged_packed(self, tmp_path):
        directory = str(tmp_path / "d")
        run_source(directory, ["insert into t values (1, 'p', 0.1, true), "
                               "(2, 'q', 0.2, null)",
                               "update t set c = c / 3.0"])
        records = scan_wal(os.path.join(directory, WAL_FILENAME)).records
        inserted, updated = (record["commit"]["t"] for record in records[-2:])
        assert inserted["i"][3] == [0.1, 0.2]  # short: stays a list
        ((names, _, packed),) = updated["u"]
        assert names == ["c"]
        assert unpack_floats(packed) == [0.1 / 3.0, 0.2 / 3.0]


class TestCheckpointDifferential:
    @given(transactions, st.integers(min_value=0, max_value=6))
    @example(["insert into t values (1, 'x', 0.1, true), (2, null, null, false)",
              "update t set c = c / 7.0", "delete from t where a = 1"], 2)
    @settings(max_examples=40, deadline=None)
    def test_checkpoint_restore_equals_v1_restore(
        self, tmp_path_factory, blocks, checkpoint_after
    ):
        """The checkpoint and the WAL suffix behind it: recover() ≡ the
        v1 checkpoint restored and the suffix replayed by v2 ≡ the
        source."""
        checkpoint_after = min(checkpoint_after, len(blocks))
        directory = str(tmp_path_factory.mktemp("ckpt"))
        try:
            source, v2_records, v1_checkpoint = run_source(
                directory, blocks, checkpoint_after)
            handles = logged_handles(v2_records)
            v3 = recover(directory, fsync=False)
            v3.durability.close()
            info = v3.durability.recovery
            assert info["checkpoint"] is True
            assert info["commits_replayed"] == len(blocks) - checkpoint_after
            reference = replay_v2(v2_records, v1_checkpoint)
            # neither checkpoint keeps the table of a handle deleted
            # before it was taken
            handles = {h for h in handles
                       if reference.database.handles.knows(h)}
            assert handles == {h for h in logged_handles(v2_records)
                               if v3.database.handles.knows(h)}

            expected = observable(reference, handles)
            assert observable(v3, handles) == expected
            assert observable(source, handles) == expected
            assert list(v3.catalog.rule_names()) == list(
                reference.catalog.rule_names())
        finally:
            shutil.rmtree(directory)


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


#: the awkward doubles: signed zeros, infinities, NaN, the subnormal
#: range and its edge, and 1-ulp neighbours of ordinary values
awkward = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     0.1, 1 / 3]),
    st.floats(max_value=2.2250738585072014e-308, min_value=-2.2250738585072014e-308),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([x, math.nextafter(x, math.inf),
                                   math.nextafter(x, -math.inf)])),
    st.floats(),
)


def unpack_bits(text):
    return base64.b64decode(text, validate=True)


def planes(raw):
    """The byte planes of contiguous doubles: byte ``k`` of double ``j``
    at ``k * n + j``."""
    return b"".join(raw[k::8] for k in range(8))


def contiguous_text(values):
    """What version 7 wrote for ``values``: the base64 of their
    contiguous little-endian doubles."""
    return base64.b64encode(bits(values)).decode()


def deflated(text):
    deflate = zlib.compressobj(1, zlib.DEFLATED, -15)
    return len(deflate.compress(text.encode("ascii")) + deflate.flush())


def json_round_trip(vector):
    return json.loads(encode_json(vector))


class TestVectorCodec:
    @given(st.lists(awkward, max_size=40))
    @example([-0.0, 5e-324, math.inf, -math.inf])
    @example([0.1 + 0.2])
    def test_packed_doubles_round_trip_bit_for_bit(self, values):
        packed = pack_floats(values)
        assert bits(unpack_floats(packed)) == bits(values)
        # the text is the base64 of the little-endian doubles' byte
        # planes, low byte first
        assert unpack_bits(packed) == planes(bits(values))
        assert len(packed) == len(contiguous_text(values))

    @given(awkward)
    def test_one_value_is_its_contiguous_double(self, value):
        """A vector of one double has one byte per plane: its text is
        what version 7 wrote."""
        assert pack_floats([value]) == contiguous_text([value])

    def test_planes_deflate_shorter_than_contiguous_doubles(self):
        """600 salaries, as ``set_bulk`` logs them: their sign and
        exponent bytes side by side deflate (level 1, as the log does)
        at least 8 % shorter than spread among the mantissa bytes."""
        draw = random.Random(20260419)
        salaries = [draw.uniform(30_000, 90_000) for _ in range(600)]
        packed, flat = pack_floats(salaries), contiguous_text(salaries)
        assert len(packed) == len(flat)
        assert deflated(packed) <= 0.92 * deflated(flat)
        assert unpack_floats(packed) == salaries

    @given(st.lists(awkward, min_size=1, max_size=300))
    @example([0.1 + 0.2])          # 19 characters of decimal: packed
    @example([200.0, 95.0, 85.0])  # short decimals: a list
    @example([1 / 3] * 70 + [1.0] * 130)   # long first, short after
    @example([1.0] * 130 + [1 / 3] * 70)   # short first, long after
    @example([1.5] * 64 + [2.0] * 64)      # whole chunks, a list
    @example([math.inf, -math.inf])        # "Infinity" is not repr(inf)
    def test_float_vector_is_never_longer_and_reads_back(self, values):
        """A FLOAT vector is packed exactly when that is strictly shorter
        than its list, and reads back bit for bit. (JSON text spells
        every NaN as ``NaN``, as version 2 did, so a NaN payload
        survives only packed.)"""
        encoded = encode_vector(values)
        listed = len(encode_json(values))
        packed = len(pack_floats(values)) + 2
        assert len(encode_json(encoded)) == min(listed, packed)
        assert isinstance(encoded, str) == (packed < listed)
        logged = json_round_trip(encoded)
        if isinstance(logged, str):
            assert bits(unpack_floats(logged)) == bits(values)
        else:
            canonical = [math.nan if math.isnan(v) else v for v in values]
            assert bits(logged) == bits(canonical)

    @given(st.lists(st.tuples(
        st.one_of(st.none(), awkward), st.one_of(st.none(), st.integers()),
        st.one_of(st.none(), st.text(max_size=30)),
        st.one_of(st.none(), st.booleans()),
    ), min_size=1, max_size=30))
    def test_only_float_vectors_without_null_are_packed(self, rows):
        db = ActiveDatabase()
        db.execute("create table v (f float, i integer, s varchar, b boolean)")
        db.database.insert_rows("v", [list(column) for column in zip(*rows)])
        table = db.database.table("v")
        runs, f, i, s, b = table_section(table, table.handles())
        assert runs == [1, len(rows)]
        assert [i, s, b] == table.column_vectors(table.handles())[1:]
        if isinstance(f, str):
            assert None not in [row[0] for row in rows]
            f = unpack_floats(f)
        assert list(map(repr, f)) == [repr(row[0]) for row in rows]

    @given(st.lists(awkward, max_size=20))
    def test_forced_byteswap_gives_the_same_bytes(self, values):
        """On a big-endian host an array holds the ``>`` layout and the
        swap turns it into the logged ``<`` layout: simulate that host
        by loading its layout and forcing the swap."""
        big_endian_memory = array("d")
        big_endian_memory.frombytes(struct.pack(f">{len(values)}d", *values))
        wal._BYTESWAP = True
        try:
            swapped = pack_floats(big_endian_memory)
            read_back = unpack_floats(swapped)
        finally:
            wal._BYTESWAP = False
        assert swapped == pack_floats(values)
        # ... and reading swaps back into that host's layout
        assert bits(read_back) == struct.pack(f">{len(values)}d", *values)

    @pytest.mark.parametrize("text, problem", [
        ("AAAAAAAA8D8", "not the base64"),          # no padding
        ("AAAAAAAA8D8=!", "not the base64"),        # a stray character
        ("AAAAAAAA", "not the base64"),             # six bytes
        ("AAAAAAAAAAAA", "not the base64"),         # nine bytes
        ("A" * 20, "not the base64"),               # fifteen bytes
        ("AAAAAAAA8D8=\n", "not the base64"),      # a newline
        ("☃", "not the base64"),                    # not ASCII
    ])
    def test_malformed_packed_vectors_are_rejected(self, text, problem):
        with pytest.raises(WalError, match=problem):
            unpack_floats(text)
        assert unpack_floats("AAAAAAAA8D8=") == [1.0]


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
    """Valid CRC, wrong content: the checks that guard replay. The
    floats here are short, so the v2 form of each record is the
    production record, and one tamper applies to both."""

    BLOCKS = [
        "insert into t values (1, 'x', 1.0, true), (2, 'y', 2.0, false); "
        "insert into u values (1, 'one')",
        "update t set c = 9.5 where a = 2; delete from u where k = 1",
    ]

    @pytest.fixture
    def logged(self, tmp_path):
        directory = str(tmp_path / "d")
        _, v2_records, _ = run_source(directory, self.BLOCKS)
        wal_path = os.path.join(directory, WAL_FILENAME)
        records = scan_wal(wal_path).records
        commits = [record for record in records if "commit" in record]
        for ours, reference in zip(commits, v2_records):
            assert stated(ours) == {"v": wal.WAL_VERSION, **reference}
        return directory, wal_path, records, v2_records

    def failures(self, logged, tamper):
        """Both replays' exceptions after the same tampering of each
        codec's commit records."""
        directory, wal_path, records, v2_records = logged
        tamper([record for record in records if "commit" in record])
        write_log(wal_path, records)
        tamper(v2_records)
        with pytest.raises(Exception) as v3_failure:
            recover(directory, fsync=False)
        with pytest.raises(Exception) as v2_failure:
            replay_v2(v2_records)
        return v3_failure.value, v2_failure.value

    def test_row_count(self, logged):
        def tamper(commits):
            commits[1]["commit"]["u"]["n"] += 1

        ours, reference = self.failures(logged, tamper)
        assert type(ours) is type(reference) is WalError
        assert str(ours) == str(reference)
        assert "recovery verification failed: table 'u'" in str(ours)

    def test_wrong_type(self, logged):
        def tamper(commits):
            commits[1]["commit"]["t"]["u"][0][2][0] = "9.5"

        ours, reference = self.failures(logged, tamper)
        assert type(ours) is type(reference) is TypeError_
        assert str(ours) == str(reference)
        assert "column t.c" in str(ours)

    def test_vector_length(self, logged):
        """v2 left it to the set mutators; v3 refuses the section."""
        def tamper(commits):
            commits[0]["commit"]["t"]["i"][2].pop()  # column b loses a value

        ours, reference = self.failures(logged, tamper)
        assert type(reference) is CatalogError
        assert "column t.b: 1 values for 2 handles" in str(reference)
        assert type(ours) is WalError
        assert "txn 1 (lsn 6): table 't': column 'b': 1 values for 2 handles" \
            in str(ours)

    def test_missing_column_vector(self, logged):
        def tamper(commits):
            commits[0]["commit"]["t"]["i"].pop()

        ours, reference = self.failures(logged, tamper)
        assert type(reference) is CatalogError
        assert "table 't' expects 4" in str(reference)
        assert type(ours) is WalError
        assert "txn 1 (lsn 6): table 't': a section is a list of handle runs " \
            "and 4 value vector(s)" in str(ours)

    def test_delete_of_a_handle_that_is_not_live(self, logged):
        def tamper(commits):
            commits[1]["commit"]["u"]["d"] = [40, 1]

        ours, reference = self.failures(logged, tamper)
        assert type(ours) is type(reference) is ExecutionError
        assert str(ours) == str(reference)
        assert "handle 40 is not live in table 'u'" in str(ours)

    def test_insert_of_a_handle_that_is_already_live(self, logged):
        def tamper(commits):
            commits[1]["commit"]["t"]["i"] = [[2, 1], [5], ["z"], [0.5], [None]]

        ours, reference = self.failures(logged, tamper)
        assert type(ours) is type(reference) is ExecutionError
        assert str(ours) == str(reference)
        assert "handle 2 already live in table 't'" in str(ours)

    def test_update_of_a_handle_that_is_not_live(self, logged):
        def tamper(commits):
            commits[1]["commit"]["t"]["u"][0][1] = [3, 1]  # u's handle

        ours, reference = self.failures(logged, tamper)
        assert type(ours) is type(reference) is ExecutionError
        assert str(ours) == str(reference)
        assert "handle 3 is not live in table 't'" in str(ours)
