"""Property test: a version-4 document writes a vector it already wrote
as a reference, and the sharing is exact.

Rules copy columns across FLOAT, INTEGER and BOOLEAN tables, so records
hold vectors equal in Python but not in text — ``[1, 0]``, ``[1.0,
-0.0]`` and ``[True, False]`` — beside vectors equal in text: NaN, the
infinities, signed zeros and NULL. Every commit is also rendered by the
version-3 writer (``tests/reference/wal_v3.py``) at the same commit
point. Then:

* every reference in the log and in a checkpoint points backward;
* each logged record with its references expanded is, byte for byte,
  the version-3 record apart from ``"v"``; so is the checkpoint's data;
* ``recover()`` from the log, and from the checkpoint, rebuilds the
  live database: rows under their handles, storage order and the text
  of every value (which tells ``-0.0`` from ``0.0``).
"""

import shutil

from hypothesis import example, given, settings, strategies as st

from repro import ActiveDatabase, DurabilityManager, recover
from repro.durability.checkpoint import read_checkpoint
from repro.durability.wal import WAL_VERSION, encode_json, scan_wal
from tests.reference import wal_v3

SCHEMA = [
    "create table src (i integer, f float, b boolean, s varchar)",
    "create table fl (v float, w float)",
    "create table it (v integer, w integer)",
    "create table bo (v boolean, w boolean)",
    "create rule copy_f when inserted into src "
    "then insert into fl (select f, i from inserted src)",
    "create rule copy_i when inserted into src "
    "then insert into it (select i, i from inserted src)",
    "create rule copy_b when inserted into src "
    "then insert into bo (select b, b from inserted src)",
    "create rule journal_f when updated src.f "
    "then insert into fl (select f, f from new updated src.f)",
]
TABLES = ("src", "fl", "it", "bo")

INF = "(1e308 * 10.0)"
integers = st.sampled_from(["null", "0", "1", "-1", "2"])
floats = st.sampled_from([
    "null", "0.0", "-0.0", "1.0", "0.1", "(1.0 / 3.0)", INF, f"-{INF}",
    f"({INF} - {INF})",
])
booleans = st.sampled_from(["null", "true", "false"])
texts = st.sampled_from(["null", "'a'", "'1'", "'1.0'", "'True'", "'NaN'"])
rows = st.tuples(integers, floats, booleans, texts).map(
    lambda row: "(" + ", ".join(row) + ")")


@st.composite
def operations(draw):
    kind = draw(st.sampled_from([
        "insert", "insert", "same_row", "update_f", "update_ib",
        "copy_within", "delete_src", "delete_fl",
    ]))
    k = draw(st.sampled_from(["-1", "0", "1", "2"]))
    if kind == "insert":
        values = draw(st.lists(rows, min_size=1, max_size=4))
        return f"insert into src values {', '.join(values)}"
    if kind == "same_row":
        return f"insert into src values {', '.join([draw(rows)] * 3)}"
    if kind == "update_f":
        return f"update src set f = {draw(floats)} where i >= {k}"
    if kind == "update_ib":
        return (f"update src set i = {draw(integers)}, b = {draw(booleans)} "
                f"where i <= {k}")
    if kind == "copy_within":
        return f"update it set w = v where v >= {k}; update fl set v = w"
    if kind == "delete_src":
        return f"delete from src where i = {k}"
    return f"delete from fl where w < {k}"


transactions = st.lists(
    st.lists(operations(), min_size=1, max_size=3).map("; ".join),
    min_size=1, max_size=5,
)


class BothWriters(DurabilityManager):
    """Logs version 4 and keeps, per commit, the version-3 record text."""

    def __init__(self, directory):
        super().__init__(directory, fsync=False)
        self.v3_texts = {}

    def log_commit(self, txn_id, effect, database):
        body = wal_v3.build_commit_record(txn_id, effect, database)
        info = super().log_commit(txn_id, effect, database)
        self.v3_texts[info["lsn"]] = encode_json(
            {"v": WAL_VERSION, "lsn": info["lsn"], **body})
        return info


def state(db):
    """Rows under their handles, in storage order, every value as text."""
    database = db.database
    return {
        name: (database.table(name).handles(), repr(
            database.table(name).column_vectors(database.table(name).handles())))
        for name in TABLES
    }, database.handles.issued_count


def run(directory, blocks):
    manager = BothWriters(directory)
    db = ActiveDatabase(durability=manager)
    for statement in SCHEMA + list(blocks):
        db.execute(statement)
    return db, manager


def check_log(db, manager):
    """Expanded, every logged record is the version-3 record; returns how
    many vectors were written as references."""
    shared = 0
    for record in scan_wal(manager.wal_path).records:
        if "commit" not in record:
            continue
        expanded = wal_v3.expand_references(record["commit"])
        assert encode_json({**record, "commit": expanded}) \
            == manager.v3_texts[record["lsn"]]
        shared += sum(
            type(section[index]) is int
            for section, index in wal_v3.vector_positions(record["commit"]))
    assert shared == db.stats()["durability"]["vectors_shared"]
    return shared


@given(transactions)
@example(["insert into src values (1, 1.0, true, '1'), (0, -0.0, false, 'a')"])
@example([f"insert into src values (1, {INF}, null, null), "
          f"(null, ({INF} - {INF}), true, 'NaN')",
          "update src set f = 0.1 where i >= 0",
          "update it set w = v where v >= 0; update fl set v = w"])
@example(["insert into src values (2, (1.0 / 3.0), true, 'a'), "
          "(1, (1.0 / 3.0), false, 'b')",  # a packed vector, shared
          "update src set f = (1.0 / 3.0) where i >= 1"])
@settings(max_examples=50, deadline=None)
def test_shared_vectors_are_exact(tmp_path_factory, blocks):
    directory = str(tmp_path_factory.mktemp("shared"))
    try:
        db, manager = run(directory, blocks)
        live = state(db)
        check_log(db, manager)
        manager.close()
        from_log = recover(directory, fsync=False)
        assert state(from_log) == live

        from_log.checkpoint()
        from_log.durability.close()
        document = read_checkpoint(directory)
        data = wal_v3.expand_references(document["data"])
        assert encode_json(data) == encode_json(
            wal_v3.checkpoint_data(from_log.database))
        from_checkpoint = recover(directory, fsync=False)
        from_checkpoint.durability.close()
        assert from_checkpoint.durability.recovery["checkpoint"] is True
        assert state(from_checkpoint) == live
    finally:
        shutil.rmtree(directory)


def test_copies_are_references_and_equal_values_of_other_types_are_not(
        tmp_path):
    db, manager = run(str(tmp_path / "d"), [
        "insert into src values (1, 1.0, true, 'x'), (0, -0.0, false, 'y')"])
    assert check_log(db, manager) == 5
    (record,) = [r for r in scan_wal(manager.wal_path).records
                 if "commit" in r]
    commit = record["commit"]
    # tables in name order: bo, fl, it, src; slots 0-1, 2-3, 4-5, 6-9.
    # fl.w is src.i widened to FLOAT: [1.0, 0.0], neither [1.0, -0.0]
    # nor [1, 0]
    assert commit["bo"]["i"][1:] == [[True, False], 0]
    assert repr(commit["fl"]["i"][1:]) == "[[1.0, -0.0], [1.0, 0.0]]"
    assert commit["it"]["i"][1:] == [[1, 0], 4]
    assert commit["src"]["i"][1:] == [4, 2, 0, ["x", "y"]]
    manager.close()


def test_reference_into_a_table_updated_later_in_the_record(tmp_path):
    """Slot 2 (``fl``'s inserted ``v``) is handed to ``fl``'s storage,
    then ``fl``'s update group — the same vector, so a reference — is
    applied to the same column, and ``src``'s ``f`` reads slot 2 after
    both: every read must still see the logged values."""
    directory = str(tmp_path / "d")
    rows = "(1, 1.0, true, 'x'), (0, -0.0, false, 'y')"
    db, manager = run(directory, [
        f"insert into src values {rows}",
        f"update fl set v = v; insert into src values {rows}",
    ])
    live = state(db)
    check_log(db, manager)
    manager.close()
    commit = scan_wal(manager.wal_path).records[-1]["commit"]
    assert repr(commit["fl"]["i"][1:]) == "[[1.0, -0.0], [1.0, 0.0]]"
    assert commit["fl"]["u"] == [[["v"], [3, 2], 2]]
    assert commit["src"]["i"][1:] == [5, 2, 0, ["x", "y"]]
    assert state(recover(directory, fsync=False)) == live
