"""Property test: a version-5 document writes a copy of an earlier
table's column as a gather, and the gathering is exact.

Journal rules copy the columns a transaction did *not* update out of
``new updated`` transition tables — and every column out of ``inserted``
— across FLOAT, INTEGER, BOOLEAN and VARCHAR tables, so records hold
columns equal in Python but not in text (``1``, ``1.0``, ``True``)
beside ones equal in text: NaN, signed zeros, NULL and non-ASCII text.
Every commit is also rendered by the version-4 writer
(``tests/reference/wal_v4.py``) at the same commit point. Then:

* every gather names a section of an earlier table of its record;
* each logged record with its gathers expanded against the database at
  its commit point is, byte for byte, the version-4 record but for
  ``"v"``; a checkpoint never gathers, and its data is version 4's;
* ``recover()`` from the log, and from the checkpoint, rebuilds the
  live database: rows under their handles, storage order and the text
  of every value.
"""

import os
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ActiveDatabase, DurabilityManager, RingBufferSink, recover
from repro.concurrency import TransactionCoordinator
from repro.durability.checkpoint import read_checkpoint
from repro.durability.faults import FaultInjector, SimulatedCrash
from repro.durability.wal import (
    WAL_FILENAME,
    decode_line,
    encode_json,
    encode_record,
    scan_wal,
)
from tests.reference import wal_v4

SCHEMA = [
    "create table src (i integer, f float, b boolean, s varchar, k integer)",
    "create table tf (x float, y integer, z boolean, w varchar)",
    "create table ti (i integer, f float, b boolean, s varchar)",
    "create table tk (i integer, f float, b boolean, s varchar, k integer)",
    # tf.x is src.i widened to FLOAT: equal in text to src.f at most
    "create rule journal_f when updated src.f "
    "then insert into tf (select i, i, b, s from new updated src.f)",
    "create rule journal_i when inserted into src "
    "then insert into ti (select i, f, b, s from inserted src)",
    "create rule journal_k when updated src.k "
    "then insert into tk (select i, f, b, s, k from new updated src.k)",
]
TABLES = ("src", "tf", "ti", "tk")

INF = "(1e308 * 10.0)"
integers = st.sampled_from(["null", "0", "1", "-1", "2", "12345678901"])
floats = st.sampled_from([
    "null", "0.0", "-0.0", "1.0", "0.1", "(1.0 / 3.0)", INF, f"-{INF}",
    f"({INF} - {INF})",
])
booleans = st.sampled_from(["null", "true", "false"])
texts = st.sampled_from([
    "null", "'a'", "'1'", "'1.0'", "'True'", "'NaN'", "'Zoë'", "'雪だるま ☃'",
    "'O''Brien'",
])
rows = st.tuples(integers, floats, booleans, texts, integers).map(
    lambda row: "(" + ", ".join(row) + ")")


@st.composite
def operations(draw):
    kind = draw(st.sampled_from([
        "insert", "insert", "same_rows", "update_k", "update_k", "update_f",
        "update_fk", "update_sk", "delete_src", "delete_tk",
    ]))
    k = draw(st.sampled_from(["-1", "0", "1", "2"]))
    if kind == "insert":
        values = draw(st.lists(rows, min_size=1, max_size=10))
        return f"insert into src values {', '.join(values)}"
    if kind == "same_rows":
        return f"insert into src values {', '.join([draw(rows)] * 9)}"
    if kind == "update_k":
        return f"update src set k = {draw(integers)} where i >= {k}"
    if kind == "update_f":
        return f"update src set f = {draw(floats)} where i <= {k}"
    if kind == "update_fk":
        return (f"update src set f = {draw(floats)}, k = {draw(integers)} "
                f"where b or i = {k}")
    if kind == "update_sk":
        return (f"update src set s = {draw(texts)}, k = {draw(integers)} "
                f"where not b")
    if kind == "delete_src":
        return f"delete from src where i = {k}"
    return f"delete from tk where k < {k}"


transactions = st.lists(
    st.lists(operations(), min_size=1, max_size=3).map("; ".join),
    min_size=1, max_size=5,
)


class BothWriters(DurabilityManager):
    """Logs version 5 and keeps, per commit, the version-4 record text
    and the logged record with its gathers expanded at the commit point."""

    def __init__(self, directory):
        super().__init__(directory, fsync=False)
        self.texts = {}

    def log_commit(self, txn_id, effect, database):
        body = wal_v4.build_commit_record(txn_id, effect, database)
        info = super().log_commit(txn_id, effect, database)
        with open(self.wal_path, "rb") as handle:
            record = decode_line(handle.readlines()[-1])
        expanded = wal_v4.expand_gathers(record["commit"], database)
        self.texts[info["lsn"]] = (
            encode_json({**record, "v": 4, "commit": expanded}),
            encode_json({"v": 4, "lsn": info["lsn"], **body}))
        return info


def state(db, tables=TABLES):
    """Rows under their handles, in storage order, every value as text."""
    database = db.database
    return {
        name: (database.table(name).handles(), repr(
            database.table(name).column_vectors(database.table(name).handles())))
        for name in tables
    }, database.handles.issued_count


def run(directory, blocks, schema=SCHEMA):
    manager = BothWriters(directory)
    db = ActiveDatabase(durability=manager)
    for statement in schema + list(blocks):
        db.execute(statement)
    return db, manager


def check_log(db, manager):
    """Every gather names an earlier table's section, and expanded, every
    logged record is the version-4 record; returns the gathers."""
    found = []
    for record in scan_wal(manager.wal_path).records:
        if "commit" not in record:
            continue
        numbered = list(wal_v4.numbered_sections(record["commit"]))
        for name, number, gather in wal_v4.gathers(record["commit"]):
            assert set(gather) == {"g"}
            source, column = gather["g"]
            assert 0 <= source < number and numbered[source][0] != name
            found.append(gather)
        ours, theirs = manager.texts[record["lsn"]]
        assert ours == theirs
    assert len(found) == db.stats()["durability"]["vectors_gathered"]
    return found


@given(transactions)
@example(["insert into src values " + ", ".join(
    f"({i}, {i}.0, true, 'Zoë', 0)" for i in range(9)),
    "update src set k = 1 where i >= 0"])
@example(["insert into src values " + ", ".join(
    ["(1, 1.0, true, 'NaN', null)", "(0, -0.0, false, null, 1)",
     f"(null, ({INF} - {INF}), null, '雪だるま ☃', 2)"] * 3),
    "update src set f = 1.0, k = 2 where b or i = 0",
    "update src set s = 'a', k = 0 where not b"])
# all-NULL vectors: one text under every type, so only a column of the
# target's type may be gathered (tf.w is src.s, not the NULL src.k)
@example(["insert into src values " + ", ".join(
    ["(1, 1.0, true, null, null)"] * 9),
    "update src set f = 0.1 where i <= 1"])
# two update groups of one table, equal columns: never a gather
@example(["insert into src values " + ", ".join(
    ["(1, 1.0, true, 'a', 0)"] * 9 + ["(2, 2.0, false, 'b', 0)"] * 9),
    "update src set k = 2 where i = 1; "
    "update src set f = 1.0, k = 6 where i = 2"])
@settings(max_examples=50, deadline=None)
def test_gathers_are_exact(tmp_path_factory, blocks):
    directory = str(tmp_path_factory.mktemp("gathers"))
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
        assert encode_json(document["data"]) == encode_json(
            wal_v4.checkpoint_data(from_log.database))
        from_checkpoint = recover(directory, fsync=False)
        from_checkpoint.durability.close()
        assert from_checkpoint.durability.recovery["checkpoint"] is True
        assert state(from_checkpoint) == live
    finally:
        shutil.rmtree(directory)


ORG = [
    "create table emp (name varchar, dno integer, salary float)",
    "create table salary_log (name varchar, salary float)",
    "create rule log_salaries when updated emp.salary "
    "then insert into salary_log select name, salary "
    "from new updated emp.salary",
]
EMPLOYEES = "insert into emp values " + ", ".join(
    f"('employee{at}', {at % 2}, {at}.5)" for at in range(8))


def commits(path):
    return [record["commit"] for record in scan_wal(path).records
            if "commit" in record]


def test_unupdated_copied_columns_are_gathers(tmp_path):
    sink = RingBufferSink()
    db, manager = run(str(tmp_path / "d"), [EMPLOYEES], ORG)
    db.attach_sink(sink)
    db.execute("update emp set salary = salary * 2.0")
    db.execute("update emp set dno = 5, salary = 0.0 where dno = 1")
    assert len(check_log(db, manager)) == 2
    _, double, cut = commits(manager.wal_path)
    assert double["salary_log"]["i"][1:] == [{"g": [0, "name"]}, 0]
    # the update group is [dno, salary]: name is still not in it
    assert cut["emp"]["u"][0][0] == ["dno", "salary"]
    assert cut["salary_log"]["i"][1] == {"g": [0, "name"]}
    assert [event.data["gathered"]
            for event in sink.of_kind("wal_append")] == [1, 1]
    assert db.stats()["durability"]["vectors_gathered"] == 2
    manager.close()
    assert state(recover(str(tmp_path / "d"), fsync=False),
                 ("emp", "salary_log")) == state(db, ("emp", "salary_log"))


def test_gather_from_rows_restored_by_a_checkpoint_then_a_crash(tmp_path):
    """The gathered names were last written before the checkpoint, so
    replay reads them from the rows the checkpoint restored; the crash
    tears the record after it."""
    directory = str(tmp_path / "d")
    db = ActiveDatabase(durability=directory)
    for statement in ORG + [EMPLOYEES]:
        db.execute(statement)
    db.checkpoint()
    db.durability.injector = db.durability.wal.injector = FaultInjector(
        "torn_wal_append", occurrence=2)
    db.execute("update emp set salary = salary + 1.0 where dno = 0")
    live = state(db, ("emp", "salary_log"))
    with pytest.raises(SimulatedCrash):  # the process dies here
        db.execute("update emp set salary = 0.0")
    (gathered,) = commits(db.durability.wal_path)
    assert gathered["salary_log"]["i"][1] == {"g": [0, "name"]}
    recovered = recover(directory, fsync=False)
    assert recovered.durability.recovery["checkpoint"] is True
    assert state(recovered, ("emp", "salary_log")) == live


def test_gather_after_another_session_committed_the_source_column(tmp_path):
    """Session ``b`` renames every employee inside ``a``'s transaction;
    ``a`` then raises salaries (its log copies the new names) and
    commits: at its commit point the database is the latest committed
    state plus ``a``'s writes, and so is replay's."""
    directory = str(tmp_path / "d")
    db = ActiveDatabase(durability=directory)
    for statement in ORG + [EMPLOYEES, "create table other (x integer)"]:
        db.execute(statement)
    coordinator = TransactionCoordinator(db)
    a, b = coordinator.open_session(), coordinator.open_session()
    coordinator.begin(a)
    coordinator.execute(a, "insert into other values (1)")
    coordinator.execute(b, "update emp set name = name || '-renamed'")
    coordinator.execute(a, "update emp set salary = salary * 3.0")
    coordinator.commit(a)
    *_, record = commits(db.durability.wal_path)
    assert record["salary_log"]["i"][1] == {"g": [0, "name"]}
    assert {name for name, _ in db.rows("select * from salary_log")} == {
        f"employee{at}-renamed" for at in range(8)}
    live = state(db, ("emp", "salary_log", "other"))
    db.durability.close()
    assert state(recover(directory, fsync=False),
                 ("emp", "salary_log", "other")) == live


def test_a_gathered_vector_is_not_storage(tmp_path):
    """``c`` reads ``b``'s gathered names through a slot reference after
    ``b``'s own update group (added to the record here) has overwritten
    the rows that vector was handed to: ``c`` must still get the logged
    names, never what ``b``'s storage holds by then."""
    directory = str(tmp_path / "d")
    db = ActiveDatabase(durability=directory)
    for statement in [
        "create table a (name varchar, v float)",
        "create table b (name varchar)",
        "create table c (name varchar)",
        "create rule to_b when updated a.v "
        "then insert into b select name from new updated a.v",
        "create rule to_c when updated a.v "
        "then insert into c select name from new updated a.v",
        "insert into a values " + ", ".join(
            f"('name{at}', 0.5)" for at in range(6)),
        "update a set v = 1.5",
    ]:
        db.execute(statement)
    db.durability.close()
    path = os.path.join(directory, WAL_FILENAME)
    records = scan_wal(path).records
    commit = records[-1]["commit"]
    assert commit["b"]["i"][1] == {"g": [0, "name"]}
    assert commit["c"]["i"][1] == 1  # slot 1: b's gathered names
    commit["b"]["u"] = [[["name"], commit["b"]["i"][0], ["x"] * 6]]
    with open(path, "wb") as handle:
        handle.writelines(map(encode_record, records))
    recovered = recover(directory, fsync=False)
    assert recovered.rows("select name from b") == [("x",)] * 6
    assert recovered.rows("select name from c") \
        == db.rows("select name from c") == db.rows("select name from a")
