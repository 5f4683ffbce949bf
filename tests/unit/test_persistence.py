"""Unit tests for JSON dump/load of an active database."""

import pytest

from repro import ActiveDatabase
from repro.persistence import (
    PersistenceError,
    dump,
    from_document,
    load,
    to_document,
)


def build():
    db = ActiveDatabase()
    db.execute(
        "create table emp (name varchar, emp_no integer, salary float, "
        "dept_no integer)"
    )
    db.execute("create table dept (dept_no integer, mgr_no integer)")
    db.execute("create index idx_dept on emp (dept_no)")
    db.execute("insert into dept values (1, 100), (2, 200)")
    db.execute(
        "insert into emp values ('Jane', 100, 90000, 1), "
        "('Bill', 101, null, 2)"
    )
    db.execute(
        "create rule cascade when deleted from dept "
        "then delete from emp "
        "where dept_no in (select dept_no from deleted dept)"
    )
    db.engine.define_rule(
        "create rule audit when updated emp.salary then rollback",
        reset_policy="triggering",
    )
    db.execute("create rule priority audit before cascade")
    return db


class TestRoundtrip:
    def test_data_survives(self):
        restored = from_document(to_document(build()))
        assert sorted(restored.rows("select name from emp")) == [
            ("Bill",), ("Jane",),
        ]
        assert restored.query("select count(*) from dept").scalar() == 2

    def test_nulls_survive(self):
        restored = from_document(to_document(build()))
        assert restored.rows(
            "select salary from emp where name = 'Bill'"
        ) == [(None,)]

    def test_schema_types_survive(self):
        restored = from_document(to_document(build()))
        from repro.errors import TypeError_

        with pytest.raises(TypeError_):
            restored.execute("insert into emp values (1, 2, 3.0, 4)")

    def test_rules_survive_and_fire(self):
        restored = from_document(to_document(build()))
        assert set(restored.rule_names()) == {"cascade", "audit"}
        restored.execute("delete from dept where dept_no = 1")
        assert restored.rows("select name from emp") == [("Bill",)]

    def test_reset_policy_survives(self):
        restored = from_document(to_document(build()))
        assert restored.catalog.rule("audit").reset_policy == "triggering"
        assert restored.catalog.rule("cascade").reset_policy == "execution"

    def test_priorities_survive(self):
        restored = from_document(to_document(build()))
        assert restored.catalog.precedes("audit", "cascade")

    def test_indexes_survive(self):
        restored = from_document(to_document(build()))
        assert restored.database.indexes.names() == ["idx_dept"]
        index = restored.database.indexes.get("idx_dept")
        assert len(index.lookup(1)) == 1

    def test_loading_does_not_fire_rules(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute("create table log (x integer)")
        db.execute("insert into t values (1)")
        db.execute(
            "create rule on_ins when inserted into t "
            "then insert into log values (0)"
        )
        restored = from_document(to_document(db))
        assert restored.rows("select * from log") == []

    def test_fresh_handles_after_load(self):
        db = build()
        restored = from_document(to_document(db))
        # a fresh allocator: count equals rows loaded, not donor's counter
        assert restored.database.handles.issued_count == 4


class TestFiles:
    def test_dump_and_load_file(self, tmp_path):
        path = tmp_path / "db.json"
        dump(build(), path)
        restored = load(str(path))
        assert restored.query("select count(*) from emp").scalar() == 2

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError):
            load(str(path))

    def test_file_that_is_not_utf8_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"a":"\xff"}')
        with pytest.raises(PersistenceError, match="malformed dump file"):
            load(str(path))

    def test_wrong_format_raises(self):
        with pytest.raises(PersistenceError):
            from_document({"format": "something-else", "version": 1})

    def test_wrong_version_raises(self):
        with pytest.raises(PersistenceError):
            from_document({"format": "repro-active-database", "version": 99})

    def test_non_dict_raises(self):
        with pytest.raises(PersistenceError):
            from_document([1, 2, 3])


class TestMalformedDocuments:
    """validate_document rejects structural problems with pointed
    messages, before any data is loaded."""

    def valid(self):
        from repro.persistence import to_document

        return to_document(build())

    def test_future_version_names_the_version_gap(self):
        document = self.valid()
        document["version"] = 7
        with pytest.raises(
            PersistenceError,
            match=r"version 7 was written by a newer repro.*reads version 1",
        ):
            from_document(document)

    def test_non_integer_version_is_unsupported_not_newer(self):
        document = self.valid()
        document["version"] = "one"
        with pytest.raises(
            PersistenceError, match=r"unsupported dump version 'one'"
        ):
            from_document(document)

    def test_wrong_format_names_what_it_found(self):
        with pytest.raises(
            PersistenceError,
            match=r"not a repro-active-database document: 'csv'",
        ):
            from_document({"format": "csv", "version": 1})

    def test_duplicate_table_names_rejected(self):
        document = self.valid()
        document["tables"].append(dict(document["tables"][0]))
        name = document["tables"][0]["name"]
        with pytest.raises(
            PersistenceError, match=rf"duplicate table '{name}'"
        ):
            from_document(document)

    def test_row_arity_mismatch_names_table_row_and_counts(self):
        document = self.valid()
        table = document["tables"][0]
        table["rows"][1] = table["rows"][1] + ["extra"]
        expected = len(table["columns"])
        with pytest.raises(
            PersistenceError,
            match=rf"table '{table['name']}': row 1 has {expected + 1} "
            rf"values for {expected} columns",
        ):
            from_document(document)

    def test_rejection_happens_before_any_load_side_effects(self):
        # a document that passes validation of early tables but fails on
        # a later one must not leave a half-built database behind —
        # from_document validates everything up front
        document = self.valid()
        document["tables"][-1]["rows"] = [["wrong-arity"]]
        with pytest.raises(PersistenceError, match="values for"):
            from_document(document)

    def test_non_dict_document_message(self):
        with pytest.raises(
            PersistenceError, match="dump document must be a JSON object"
        ):
            from_document("just a string")


class TestRestrictions:
    def test_open_transaction_rejected(self):
        db = build()
        db.begin()
        with pytest.raises(PersistenceError):
            to_document(db)
        db.rollback()

    def test_external_rule_rejected_by_default(self):
        db = build()
        db.define_external_rule("ext", "inserted into emp", lambda c: None)
        with pytest.raises(PersistenceError):
            to_document(db)

    def test_external_rule_skippable(self):
        db = build()
        db.define_external_rule("ext", "inserted into emp", lambda c: None)
        document = to_document(db, skip_external=True)
        names = {rule["sql"].split()[2] for rule in document["rules"]}
        assert "ext" not in names
        restored = from_document(document)
        assert set(restored.rule_names()) == {"cascade", "audit"}

    def test_db_kwargs_forwarded(self):
        restored = from_document(
            to_document(build()), max_rule_transitions=7
        )
        assert restored.engine.max_rule_transitions == 7


class TestComplexRoundtrip:
    def test_warehouse_case_study_roundtrip(self, tmp_path):
        """A multi-rule application (SQL rules only) survives dump/load
        with behaviour intact."""
        from tests.integration.test_case_study import build_warehouse

        db = build_warehouse()
        db.execute("drop rule supplier_receipt")  # external: not serializable
        db.execute(
            "insert into products values ('widget', 9.99, 100, 20)"
        )
        path = tmp_path / "warehouse.json"
        dump(db, path)
        restored = load(str(path))
        result = restored.execute(
            "insert into orders values (1, 'widget', 5, 'new')"
        )
        assert result.committed
        assert restored.query(
            "select stock from products where sku = 'widget'"
        ).scalar() == 95
        assert restored.rows("select status from orders") == [("fulfilled",)]
        # the guard still works post-restore
        veto = restored.execute(
            "insert into orders values (2, 'widget', 9999, 'new')"
        )
        assert veto.rolled_back_by == "guard_stock"

    def test_dump_is_stable(self, tmp_path):
        """Dumping the same database twice yields identical documents."""
        db = build()
        assert to_document(db) == to_document(db)

    def test_roundtrip_of_roundtrip(self):
        """load(dump(db)) is a fixpoint: dumping the restored database
        produces the same document."""
        document = to_document(build())
        again = to_document(from_document(document))
        assert document == again
