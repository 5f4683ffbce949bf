"""Unit tests for columnar table storage: batches, tombstones,
compaction, index maintenance and undo replay over compacted slots."""

import pytest

from repro.errors import ExecutionError
from repro.relational.batch import Batch
from repro.relational.database import Database
from repro.relational.table import _COMPACT_MIN_DEAD, Table
from repro.relational.schema import Column, TableSchema
from repro.relational.types import SqlType


def make_table():
    return Table(
        TableSchema(
            "t",
            [Column("a", SqlType.INTEGER), Column("b", SqlType.VARCHAR)],
        )
    )


@pytest.fixture
def database():
    db = Database()
    db.create_table("t", [("a", "integer"), ("b", "varchar")])
    return db


class TestBatch:
    def test_from_rows_transposes(self):
        batch = Batch.from_rows([(1, "x"), (2, "y")], 2)
        assert batch.cols == ([1, 2], ["x", "y"])
        assert batch.sel == [0, 1]
        assert batch.rows() == [(1, "x"), (2, "y")]

    def test_from_rows_empty_keeps_arity(self):
        batch = Batch.from_rows([], 3)
        assert len(batch.cols) == 3
        assert batch.rows() == []

    def test_with_sel_shares_storage(self):
        batch = Batch.from_rows([(1, "x"), (2, "y"), (3, "z")], 2)
        narrowed = batch.with_sel([2, 0])
        assert narrowed.cols is batch.cols
        assert narrowed.rows() == [(3, "z"), (1, "x")]

    def test_row_without_materialized_tuples(self):
        batch = Batch(([1, 2], ["x", "y"]), [0, 1])
        assert batch.row(1) == (2, "y")
        assert batch.rows() == [(1, "x"), (2, "y")]

    def test_unlabeled_strips_label_only(self):
        batch = Batch.from_rows([(1, "x")], 2, label="t")
        stripped = batch.unlabeled()
        assert stripped.label is None
        assert stripped.cols is batch.cols
        assert stripped.sel is batch.sel


class TestTableBatches:
    def test_batch_covers_live_rows_in_insertion_order(self):
        table = make_table()
        table.insert(1, (10, "x"))
        table.insert(2, (20, "y"))
        table.insert(3, (30, "z"))
        table.delete(2)
        batch = table.batch()
        assert batch.label == "t"
        assert batch.rows() == [(10, "x"), (30, "z")]
        assert [batch.handle(slot) for slot in batch.sel] == [1, 3]

    def test_batch_for_handles_preserves_given_order(self):
        table = make_table()
        table.insert(1, (10, "x"))
        table.insert(2, (20, "y"))
        batch = table.batch_for_handles([2, 1])
        assert batch.rows() == [(20, "y"), (10, "x")]

    def test_batch_for_dead_handle_raises(self):
        table = make_table()
        table.insert(1, (10, "x"))
        table.delete(1)
        with pytest.raises(ExecutionError):
            table.batch_for_handles([1])

    def test_replace_updates_columns_and_tuples(self):
        table = make_table()
        table.insert(1, (10, "x"))
        table.replace(1, (99, "q"))
        batch = table.batch()
        assert batch.rows() == [(99, "q")]
        assert table.get(1) == (99, "q")

    def test_iter_handles_matches_handles(self):
        table = make_table()
        for handle in range(1, 6):
            table.insert(handle, (handle, "r"))
        table.delete(3)
        assert list(table.iter_handles()) == table.handles() == [1, 2, 4, 5]
        assert list(table.iter_items()) == table.items()


class TestCompaction:
    def test_delete_tombstones_until_compact(self):
        table = make_table()
        for handle in range(1, 5):
            table.insert(handle, (handle, "r"))
        table.delete(2)
        assert table.tombstones == 1
        assert len(table) == 3
        reclaimed = table.compact()
        assert reclaimed == 1
        assert table.tombstones == 0
        assert table.rows() == [(1, "r"), (3, "r"), (4, "r")]
        assert table.get(4) == (4, "r")

    def test_compact_noop_when_clean(self):
        table = make_table()
        table.insert(1, (1, "r"))
        assert table.compact() == 0

    def test_auto_compaction_when_tombstones_dominate(self):
        table = make_table()
        count = 2 * _COMPACT_MIN_DEAD
        for handle in range(count):
            table.insert(handle, (handle, "r"))
        for handle in range(_COMPACT_MIN_DEAD):
            table.delete(handle)
        # The threshold delete triggered compaction automatically.
        assert table.tombstones == 0
        assert len(table) == count - _COMPACT_MIN_DEAD
        assert table.rows()[0] == (_COMPACT_MIN_DEAD, "r")

    def test_batch_after_compaction_is_dense(self):
        table = make_table()
        for handle in range(1, 6):
            table.insert(handle, (handle, "r"))
        table.delete(1)
        table.delete(4)
        table.compact()
        batch = table.batch()
        assert batch.sel == [0, 1, 2]
        assert batch.rows() == [(2, "r"), (3, "r"), (5, "r")]


class TestIndexMaintenanceOverCompaction:
    def test_index_survives_compaction(self, database):
        database.create_index("idx_a", "t", "a")
        handles = [
            database.insert_row("t", [value, "r"]) for value in range(10)
        ]
        for handle in handles[:5]:
            database.delete_row("t", handle)
        table = database.table("t")
        table.compact()
        index = table.index_on("a")
        assert index.lookup(7) == [handles[7]]
        assert index.lookup(2) == []
        # mutations after compaction keep maintaining the index
        new = database.insert_row("t", [2, "again"])
        assert index.lookup(2) == [new]

    def test_index_attach_after_tombstones(self, database):
        handles = [
            database.insert_row("t", [value, "r"]) for value in range(4)
        ]
        database.delete_row("t", handles[0])
        database.create_index("idx_a", "t", "a")
        index = database.table("t").index_on("a")
        assert index.lookup(0) == []
        assert index.lookup(3) == [handles[3]]


class TestUndoOverColumnBatches:
    def test_undo_restores_deleted_rows(self, database):
        handles = [
            database.insert_row("t", [value, "r"]) for value in range(3)
        ]
        database.transactions.begin()
        database.delete_row("t", handles[1])
        database.transactions.rollback()
        assert database.table("t").get(handles[1]) == (1, "r")
        # undo revives the tombstoned slot: the restored row is back at
        # its handle's place in the scan order, and no slot was added
        assert database.table("t").rows() == [(0, "r"), (1, "r"), (2, "r")]
        assert database.table("t").tombstones == 0
        assert len(database.table("t").batch().handles) == 3

    def test_undo_after_auto_compaction(self, database):
        count = 2 * _COMPACT_MIN_DEAD
        handles = [
            database.insert_row("t", [value, "r"]) for value in range(count)
        ]
        database.transactions.begin()
        for handle in handles[:_COMPACT_MIN_DEAD]:
            database.delete_row("t", handle)
        # the last delete auto-compacted storage mid-transaction
        assert database.table("t").tombstones == 0
        database.transactions.rollback()
        table = database.table("t")
        assert len(table) == count
        # the compacted-away slots come back through merge inserts, one
        # per undone delete, each at its handle's place
        assert table.rows() == [(v, "r") for v in range(count)]
        assert table.merge_inserts == _COMPACT_MIN_DEAD
        for handle in handles:
            assert handle in table

    def test_savepoint_interleaving_with_compaction(self, database):
        handles = [
            database.insert_row("t", [value, "r"]) for value in range(6)
        ]
        database.transactions.begin()
        database.delete_row("t", handles[0])
        savepoint = database.transactions.savepoint()
        database.delete_row("t", handles[1])
        database.update_row("t", handles[2], {"b": "changed"})
        database.table("t").compact()
        database.transactions.rollback_to_savepoint(savepoint)
        table = database.table("t")
        assert handles[0] not in table
        assert table.get(handles[1]) == (1, "r")
        assert table.get(handles[2]) == (2, "r")
        database.transactions.commit()

    def test_rollback_of_update_after_compaction(self, database):
        handles = [
            database.insert_row("t", [value, "r"]) for value in range(4)
        ]
        database.transactions.begin()
        database.delete_row("t", handles[0])
        database.table("t").compact()
        database.update_row("t", handles[3], {"a": 99})
        database.transactions.rollback()
        table = database.table("t")
        assert table.get(handles[3]) == (3, "r")
        assert table.get(handles[0]) == (0, "r")


class TestCheckpointCompaction:
    def test_checkpoint_compacts_tables(self, tmp_path):
        from repro import ActiveDatabase

        db = ActiveDatabase(durability=str(tmp_path))
        db.execute("create table t (a integer)")
        for value in range(8):
            db.execute(f"insert into t values ({value})")
        db.execute("delete from t where a < 4")
        table = db.database.table("t")
        assert table.tombstones == 4
        db.checkpoint()
        assert table.tombstones == 0
        assert sorted(table.rows()) == [(4,), (5,), (6,), (7,)]

    def test_recovery_after_checkpoint_of_compacted_table(self, tmp_path):
        from repro import ActiveDatabase
        from repro.durability import recover

        db = ActiveDatabase(durability=str(tmp_path))
        db.execute("create table t (a integer)")
        for value in range(6):
            db.execute(f"insert into t values ({value})")
        db.execute("delete from t where a % 2 = 0")
        db.checkpoint()
        db.execute("insert into t values (100)")
        expected = db.database.snapshot()
        recovered = recover(str(tmp_path))
        assert recovered.database.snapshot() == expected
