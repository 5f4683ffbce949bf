"""Unit tests for schema, handles, tables and the database mutators."""

import pytest

from repro.errors import (
    CatalogError,
    ExecutionError,
    HandleClaimError,
    TypeError_,
)
from repro.relational.database import Database
from repro.relational.handles import HandleAllocator
from repro.relational.schema import Catalog, Column, TableSchema
from repro.relational.types import SqlType


def zones(table):
    """A copy of ``table``'s zone maps."""
    return [(list(mins), list(maxs)) for mins, maxs in table.stats.zones]


class TestSchema:
    def make(self):
        return TableSchema(
            "emp",
            [
                Column("name", SqlType.VARCHAR),
                Column("salary", SqlType.FLOAT),
            ],
        )

    def test_column_names(self):
        assert self.make().column_names == ("name", "salary")

    def test_arity(self):
        assert self.make().arity == 2

    def test_column_position(self):
        schema = self.make()
        assert schema.column_position("salary") == 1

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            self.make().column_position("nope")

    def test_has_column(self):
        schema = self.make()
        assert schema.has_column("name")
        assert not schema.has_column("x")

    def test_duplicate_column_raises(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t",
                [Column("x", SqlType.INTEGER), Column("x", SqlType.FLOAT)],
            )

    def test_empty_schema_raises(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [])

    def test_coerce_row(self):
        schema = self.make()
        assert schema.coerce_row(["a", 5]) == ("a", 5.0)

    def test_coerce_row_arity_mismatch(self):
        with pytest.raises(CatalogError):
            self.make().coerce_row(["a"])

    def test_coerce_row_type_error(self):
        with pytest.raises(TypeError_):
            self.make().coerce_row([1, 2.0])


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        schema = TableSchema("t", [Column("x", SqlType.INTEGER)])
        catalog.create_table(schema)
        assert catalog.schema("t") is schema
        assert "t" in catalog
        assert catalog.table_names() == ("t",)

    def test_duplicate_table_raises(self):
        catalog = Catalog()
        schema = TableSchema("t", [Column("x", SqlType.INTEGER)])
        catalog.create_table(schema)
        with pytest.raises(CatalogError):
            catalog.create_table(schema)

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(TableSchema("t", [Column("x", SqlType.INTEGER)]))
        catalog.drop_table("t")
        assert "t" not in catalog

    def test_drop_unknown_raises(self):
        with pytest.raises(CatalogError):
            Catalog().drop_table("nope")

    def test_unknown_schema_raises(self):
        with pytest.raises(CatalogError):
            Catalog().schema("nope")


class TestHandleAllocator:
    def test_handles_are_distinct_and_monotone(self):
        allocator = HandleAllocator()
        handles = [allocator.allocate("t") for _ in range(100)]
        assert len(set(handles)) == 100
        assert handles == sorted(handles)

    def test_table_association_is_permanent(self):
        allocator = HandleAllocator()
        handle = allocator.allocate("emp")
        assert allocator.table_of(handle) == "emp"

    def test_knows(self):
        allocator = HandleAllocator()
        handle = allocator.allocate("t")
        assert allocator.knows(handle)
        assert not allocator.knows(handle + 1)

    def test_issued_count(self):
        allocator = HandleAllocator()
        allocator.allocate("a")
        allocator.allocate("b")
        assert allocator.issued_count == 2

    def test_memory_follows_table_changes_not_handles(self):
        """Handles are kept as allocation runs, neighbours of one table
        merged: a million handles of one table are one run."""
        allocator = HandleAllocator()
        for _ in range(50):
            allocator.allocate_many("big", 1000)
        allocator.allocate("small")
        allocator.allocate_many("big", 10)
        assert len(allocator.blocks()) == 3
        assert allocator.table_of(1) == allocator.table_of(50_000) == "big"
        assert allocator.table_of(50_001) == "small"
        assert allocator.table_of(50_011) == "big"
        for unknown in (0, 50_012):
            assert not allocator.knows(unknown)
            with pytest.raises(KeyError):
                allocator.table_of(unknown)

    def test_restore_interleaves_and_merges_runs(self):
        """Recovery re-registers each table's handles on its own, in any
        order; the runs end up as if allocated in handle order, and
        allocation resumes past them."""
        allocator = HandleAllocator()
        allocator.restore([9, 2, 4, 8], "b")
        allocator.restore([1, 3, 5, 6, 7], "a")
        assert [allocator.table_of(h) for h in range(1, 10)] == [
            "a", "b", "a", "b", "a", "a", "a", "b", "b"]
        assert [start for start, _, _ in allocator.blocks()] == [
            1, 2, 3, 4, 5, 8]
        assert allocator.allocate("c") == 10
        allocator.restore([], "d")
        assert allocator.issued_count == 10



class TestDatabaseMutators:
    def make(self):
        database = Database()
        database.create_table(
            "t", [("x", "integer"), ("y", "varchar")]
        )
        return database

    def test_insert_returns_handle(self):
        database = self.make()
        handle = database.insert_row("t", [1, "a"])
        assert database.row("t", handle) == (1, "a")
        assert database.table_of_handle(handle) == "t"

    def test_insert_coerces(self):
        database = self.make()
        handle = database.insert_row("t", [2.0, "b"])
        assert database.row("t", handle) == (2, "b")

    def test_insert_bad_type_raises(self):
        with pytest.raises(TypeError_):
            self.make().insert_row("t", ["not-int", "a"])

    def test_delete_returns_row(self):
        database = self.make()
        handle = database.insert_row("t", [1, "a"])
        assert database.delete_row("t", handle) == (1, "a")
        assert database.row_count("t") == 0

    def test_delete_dead_handle_raises(self):
        database = self.make()
        handle = database.insert_row("t", [1, "a"])
        database.delete_row("t", handle)
        with pytest.raises(ExecutionError):
            database.delete_row("t", handle)

    def test_update_partial_columns(self):
        database = self.make()
        handle = database.insert_row("t", [1, "a"])
        old, new = database.update_row("t", handle, {"x": 9})
        assert old == (1, "a")
        assert new == (9, "a")
        assert database.row("t", handle) == (9, "a")

    def test_update_to_same_value_is_allowed(self):
        database = self.make()
        handle = database.insert_row("t", [1, "a"])
        old, new = database.update_row("t", handle, {"x": 1})
        assert old == new == (1, "a")

    def test_duplicate_rows_coexist(self):
        database = self.make()
        h1 = database.insert_row("t", [1, "a"])
        h2 = database.insert_row("t", [1, "a"])
        assert h1 != h2
        assert database.row_count("t") == 2

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            self.make().insert_row("nope", [1])

    def test_drop_table(self):
        database = self.make()
        database.drop_table("t")
        with pytest.raises(CatalogError):
            database.table("t")

    def test_snapshot_is_independent(self):
        database = self.make()
        handle = database.insert_row("t", [1, "a"])
        snapshot = database.snapshot()
        database.update_row("t", handle, {"x": 2})
        assert snapshot["t"][handle] == (1, "a")

    def test_create_table_with_sqltype_objects(self):
        database = Database()
        from repro.relational.types import SqlType

        database.create_table("u", [("x", SqlType.BOOLEAN)])
        handle = database.insert_row("u", [True])
        assert database.row("u", handle) == (True,)


class TestBulkRecoveryMutators:
    """The column-vector set mutators every write goes through, as crash
    recovery uses them: handles given, no transaction."""

    def make(self, rows=0):
        database = Database()
        database.create_table("t", [("x", "integer"), ("y", "varchar")])
        for key in range(rows):
            database.insert_row("t", [key, f"r{key}"])
        return database

    def test_restore_rows_keeps_handles_order_and_allocator(self):
        database = self.make()
        database.insert_rows("t", [[1, 2.0, None], ["a", None, "c"]], [3, 4, 9])
        table = database.table("t")
        assert table.items() == [
            (3, (1, "a")), (4, (2, None)), (9, (None, "c")),
        ]
        assert table.column_vectors(table.handles(), ["x"]) == [[1, 2, None]]
        assert database.table_of_handle(9) == "t"
        assert database.insert_row("t", [5, "e"]) == 10

    def test_restore_rows_rejects_handles_a_table_held(self):
        """A handle another table holds, or this one held before its
        delete, is claimed twice: refused, leaving no row behind."""
        database = self.make(rows=2)
        database.create_table("u", [("x", "integer")])
        database.insert_rows("u", [[7]], [5])
        database.delete_rows("t", [2])
        blocks = database.handles.blocks()
        for handles, owner in (([4, 5], "u"), ([2], "t")):
            before = database.snapshot()
            with pytest.raises(HandleClaimError, match=(
                    f"handle {handles[-1]} claimed by table 't' already "
                    f"belongs to table '{owner}'")):
                database.insert_rows("t", [[8] * len(handles),
                                           ["z"] * len(handles)], handles)
            assert database.snapshot() == before
            assert database.handles.blocks() == blocks

    def test_restore_rows_rejects_live_and_repeated_handles(self):
        database = self.make(rows=2)
        for handles in ([2, 3], [5, 5]):
            before = database.snapshot()
            with pytest.raises(ExecutionError, match="already live"):
                database.insert_rows("t", [[7, 8], ["a", "b"]], handles)
            assert database.snapshot() == before

    def test_vectors_are_type_and_length_checked(self):
        database = self.make(rows=2)
        with pytest.raises(TypeError_, match="column t.x"):
            database.insert_rows("t", [["seven"], ["a"]], [7])
        with pytest.raises(CatalogError, match="column t.y: 1 values for 2"):
            database.insert_rows("t", [[7, 8], ["a"]], [7, 8])
        with pytest.raises(CatalogError, match="expects 2 columns, got 1"):
            database.insert_rows("t", [[7]], [7])
        with pytest.raises(TypeError_, match="column t.y"):
            database.assign_columns("t", [1], ["y"], [[5]])
        with pytest.raises(CatalogError, match="2 value vectors for 1"):
            database.assign_columns("t", [1], ["y"], [["a"], ["b"]])
        assert database.table("t").items() == [(1, (0, "r0")), (2, (1, "r1"))]

    def test_delete_rows_is_all_or_nothing(self):
        database = self.make(rows=3)
        with pytest.raises(ExecutionError, match="handle 8 is not live in table 't'"):
            database.delete_rows("t", [1, 8])
        assert database.row_count("t") == 3
        database.delete_rows("t", [1, 3])
        assert database.table("t").handles() == [2]
        assert database.table("t").tombstones == 2

    def test_delete_rows_compacts_like_a_tuple_loop(self):
        database = self.make(rows=100)
        table = database.table("t")
        database.delete_rows("t", list(range(1, 81)))
        # the 64th delete makes 64 dead of 100 slots: compacted there,
        # and the 16 deletes after it are tombstones again
        assert table.tombstones == 16
        assert table.handles() == list(range(81, 101))
        assert len(table.batch().handles) == 36  # slots, tombstones included
        assert table.compactions == 1

    def observable(self, database):
        table = database.table("t")
        return (table.items(), table.tombstones, table.mutations,
                zones(table), database.version,
                database.transactions.savepoint())

    def test_delete_rows_refuses_a_handle_named_twice(self):
        database = self.make(rows=3)
        database.transactions.begin()
        before = self.observable(database)
        with pytest.raises(ExecutionError, match="handle 1 named twice"):
            database.delete_rows("t", [1, 1])
        assert self.observable(database) == before
        assert len(database.table("t")) == 3

    def test_assign_columns_refuses_a_handle_named_twice(self):
        database = self.make(rows=3)
        database.transactions.begin()
        before = self.observable(database)
        with pytest.raises(ExecutionError, match="handle 2 named twice"):
            database.assign_columns("t", [2, 3, 2], ["x"], [[7, 8, 9]])
        assert self.observable(database) == before

    def test_assign_columns_overwrites_in_place(self):
        database = self.make(rows=3)
        database.assign_columns("t", [1, 3], ["y", "x"], [["p", "q"], [7.0, None]])
        table = database.table("t")
        assert table.items() == [
            (1, (7, "p")), (2, (1, "r1")), (3, (None, "q")),
        ]
        assert table.batch().rows() == table.rows()
        with pytest.raises(ExecutionError, match="handle 9 is not live in table 't'"):
            database.assign_columns("t", [9], ["x"], [[1]])

    def test_bulk_mutators_bump_versions(self):
        database = self.make(rows=1)
        table = database.table("t")
        stamps = (database.version, table.mutations)
        database.assign_columns("t", [1], ["x"], [[5]])
        assert database.version > stamps[0] and table.mutations > stamps[1]

    def test_set_mutators_are_undo_logged_one_record_per_set(self):
        database = self.make(rows=3)
        before = database.snapshot()
        database.transactions.begin()
        database.delete_rows("t", [1, 3])
        database.insert_rows("t", [[7, 8], ["a", "b"]])
        database.assign_columns("t", [2, 4], ["x"], [[20, 70]])
        assert database.transactions.savepoint() == 3
        assert database.table("t").items() == [
            (2, (20, "r1")), (4, (70, "a")), (5, (8, "b")),
        ]
        database.transactions.rollback()
        assert database.snapshot() == before
        # the deleted tuples' slots were revived: S0's order, S0's slots;
        # the undone inserts' slots are the only tombstones
        assert database.table("t").handles() == [1, 2, 3]
        assert database.table("t").tombstones == 2
        assert database.insert_row("t", [9, "z"]) == 6  # handles are not reused

    def test_an_empty_set_is_not_a_write(self):
        database = self.make(rows=1)
        seen = []
        database.on_table_write = seen.append
        stamp = database.version
        assert database.delete_rows("t", []) == []
        assert database.assign_columns("t", [], ["x"], [[]]) == []
        assert database.insert_rows("t", [[], []]) == ()
        assert seen == [] and database.version == stamp

    def test_a_bad_value_is_reported_row_major_and_leaves_no_trace(self):
        database = self.make(rows=1)
        database.create_index("t_x", "t", "x")
        table = database.table("t")
        before = (table.items(), zones(table), database.version,
                  database.handles.issued_count)
        with pytest.raises(TypeError_) as by_set:
            # row 1 is bad in column y, row 2 in column x: row 1 wins
            database.insert_rows("t", [[1, 2, "no"], ["a", 5, "c"]])
        with pytest.raises(TypeError_) as by_row:
            database.insert_row("t", [2, 5])
        assert str(by_set.value) == str(by_row.value)
        assert table.items() == before[0]
        assert zones(table) == before[1]
        assert database.handles.issued_count == before[3]
        assert database.indexes.get("t_x").lookup(1) == []
