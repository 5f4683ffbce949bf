"""Reference checkpoint codec: the version-1 checkpoint document the repo
shipped until a checkpoint became a catalog plus one version-3 insert
section per table (:mod:`repro.durability.checkpoint`).

Test-only. Version 1 wrapped the persistence rows document
(:func:`repro.persistence.to_document`: every live row built as a list
and written as JSON) with the live handles as one full list per table,
and restored it by transposing the rows back into column vectors.
``tests/property/test_wal_codec_differential.py`` holds a restore of
the production checkpoint to :func:`restore_checkpoint` of this
module's document, and both to the database that wrote them.
:func:`build_checkpoint_document` and :func:`restore_checkpoint` are the
version-1 functions verbatim (restore minus the WAL bookkeeping it
shared with recovery).
"""

from __future__ import annotations

from repro.durability.checkpoint import CheckpointError
from repro.persistence import to_document

CHECKPOINT_FORMAT = "repro-durability-checkpoint"
CHECKPOINT_VERSION = 1


def build_checkpoint_document(db, wal_lsn, last_txn):
    """The version-1 checkpoint document for an
    :class:`~repro.ActiveDatabase`: ``handles`` lists each table's live
    handles in storage (ascending) order, aligned with the wrapped
    document's row lists."""
    document = to_document(db)
    handles = {
        name: db.database.table(name).handles()
        for name in db.database.table_names()
    }
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "wal_lsn": wal_lsn,
        "last_txn": last_txn,
        "next_handle": db.database.handles.issued_count + 1,
        "handles": handles,
        "database": document,
    }


def restore_checkpoint(db, document):
    """Rebuild schema/data/rules from a version-1 checkpoint into the
    empty :class:`~repro.ActiveDatabase` ``db``, keeping handles."""
    inner = document["database"]
    handles = document["handles"]
    for table in inner.get("tables", ()):
        name = table["name"]
        db.database.create_table(
            name,
            [(column, type_name) for column, type_name in table["columns"]],
        )
        table_handles = handles.get(name, [])
        if len(table_handles) != len(table["rows"]):
            raise CheckpointError(
                f"checkpoint table {name!r}: {len(table['rows'])} rows but "
                f"{len(table_handles)} handles"
            )
        arity = len(table["columns"])
        if any(len(row) != arity for row in table["rows"]):
            raise CheckpointError(
                f"checkpoint table {name!r}: a row does not have "
                f"{arity} values"
            )
        if table_handles:
            db.database.insert_rows(
                name, list(zip(*table["rows"])), table_handles
            )
    for index in inner.get("indexes", ()):
        db.database.create_index(
            index["name"], index["table"], index["column"]
        )
    for rule in inner.get("rules", ()):
        defined = db.engine.define_rule(
            rule["sql"], reset_policy=rule.get("reset_policy", "execution")
        )
        defined.active = rule.get("active", True)
    for higher, lower in inner.get("priorities", ()):
        db.engine.add_priority(higher, lower)
    db.database.handles.advance_past(document["next_handle"] - 1)
    db.engine._txn_id = document["last_txn"]
