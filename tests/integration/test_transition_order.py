"""Transition tables read in ascending handle order — storage's scan
order — whatever order their tuples were inserted, deleted or updated in
(docs/semantics.md §4)."""

import time

from repro import ActiveDatabase


def make(rows=0):
    db = ActiveDatabase()
    db.execute("create table t (k integer, x integer)")
    for name in ("ins", "dels", "olds", "news"):
        db.execute(f"create table {name} (k integer)")
    if rows:
        db.execute("insert into t values "
                   + ", ".join(f"({i}, {i})" for i in range(rows)))
    return db


def column(db, table):
    return [row[0] for row in db.rows(f"select k from {table}")]


class TestAscendingHandleOrder:
    def test_inserted_past_a_set_wrap(self):
        """30 fresh handles above 2,030 stored ones: a handle set
        iterates them out of order, the transition table may not."""
        db = make(rows=2030)
        db.execute("create rule r when inserted into t "
                   "then insert into ins select k from inserted t")
        db.execute("insert into t values "
                   + ", ".join(f"({k}, 0)" for k in range(5000, 5030)))
        assert column(db, "ins") == list(range(5000, 5030))

    def test_deleted_in_any_order(self):
        db = make(rows=4)
        db.execute("create rule r when deleted from t "
                   "then insert into dels select k from deleted t")
        db.execute("delete from t where k = 3; delete from t where k = 1; "
                   "delete from t where k = 2")
        assert column(db, "dels") == [1, 2, 3]

    def test_updated_in_descending_key_order(self):
        db = make(rows=4)
        db.execute("create rule r when updated t.x "
                   "then insert into olds select k from old updated t.x; "
                   "insert into news select k from new updated t.x")
        db.execute("update t set x = x + 1 where k = 3; "
                   "update t set x = x + 1 where k = 2; "
                   "update t set x = x + 1 where k = 1")
        assert column(db, "olds") == [1, 2, 3]
        assert column(db, "news") == [1, 2, 3]


def test_select_then_delete_is_linear():
    """Deleting 20,000 read tuples must not rebuild §5.1's S once per
    tuple, which is quadratic: the block stays far below a 5 s ceiling,
    and S holds no read of a deleted tuple."""
    db = ActiveDatabase(track_selects=True)
    db.execute("create table t (x integer)")
    db.execute("create table log (x integer)")
    db.execute("insert into t values "
               + ", ".join(f"({i})" for i in range(20000)))
    db.execute("create rule r when selected t then insert into log values (1)")
    start = time.perf_counter()
    db.execute("select x from t; delete from t")
    assert time.perf_counter() - start < 5.0
    assert db.rows("select x from log") == []
