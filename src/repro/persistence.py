"""Save and restore an :class:`ActiveDatabase` as JSON.

The paper abstracts persistence away ("failures are transparent", §2);
this module is library engineering: it lets examples and applications
checkpoint a database — schema, data, indexes, rules, priorities — and
reload it later.

Format (version 1)::

    {
      "format": "repro-active-database",
      "version": 1,
      "tables":    [{"name": ..., "columns": [[name, type], ...],
                     "rows": [[...], ...]}, ...],
      "indexes":   [{"name": ..., "table": ..., "column": ...}, ...],
      "rules":     [{"sql": "create rule ...", "reset_policy": ...}, ...],
      "priorities":[[higher, lower], ...]
    }

Tuple handles are *not* persisted: they are "non-reusable values"
identifying tuples within one system lifetime; a reloaded database
assigns fresh handles (and starts with empty transition state, exactly
like a freshly started DBMS). Rules with external (Python) actions
cannot be serialized — :func:`dump` raises unless ``skip_external=True``.
"""

from __future__ import annotations

import json

from .errors import ReproError
from .system import ActiveDatabase

FORMAT_NAME = "repro-active-database"
FORMAT_VERSION = 1


class PersistenceError(ReproError):
    """Raised for unserializable content or malformed dump files."""


def catalog_document(db, skip_external=False):
    """``tables`` (name and columns), ``indexes``, ``rules`` and
    ``priorities``: what :func:`to_document` and a durability checkpoint
    share; each adds the data in its own format.

    Raises:
        PersistenceError: if a transaction is open, or an external-action
            rule is present and ``skip_external`` is false.
    """
    if db.engine.in_transaction:
        raise PersistenceError("cannot serialize with an open transaction")
    database = db.database
    rules = []
    for rule in db.catalog:
        if rule.is_external:
            if skip_external:
                continue
            raise PersistenceError(
                f"rule {rule.name!r} has a Python action and cannot be "
                "serialized (pass skip_external=True to drop such rules)"
            )
        rules.append(
            {
                "sql": rule.to_sql(),
                "reset_policy": rule.reset_policy,
                "active": rule.active,
            }
        )
    return {
        "tables": [
            {
                "name": name,
                "columns": [
                    [column.name, column.sql_type.value]
                    for column in database.schema(name).columns
                ],
            }
            for name in database.table_names()
        ],
        "indexes": [
            {"name": index.name, "table": index.table_name,
             "column": index.column}
            for index in map(database.indexes.get, database.indexes.names())
        ],
        "rules": rules,
        "priorities": [list(pair) for pair in sorted(db.catalog.pairings())],
    }


def restore_catalog(db, catalog, load_data):
    """Define ``catalog`` on an empty database: tables, then
    ``load_data()``, then indexes, rules and priorities — data before
    rules, so loading never fires a rule."""
    for table in catalog.get("tables", ()):
        db.database.create_table(table["name"], table["columns"])
    load_data()
    for index in catalog.get("indexes", ()):
        db.database.create_index(
            index["name"], index["table"], index["column"]
        )
    for rule in catalog.get("rules", ()):
        defined = db.engine.define_rule(
            rule["sql"], reset_policy=rule.get("reset_policy", "execution")
        )
        defined.active = rule.get("active", True)
    for higher, lower in catalog.get("priorities", ()):
        db.engine.add_priority(higher, lower)


def to_document(db, skip_external=False):
    """Serialize an :class:`ActiveDatabase` to a JSON-compatible dict.

    Raises:
        PersistenceError: as :func:`catalog_document`.
    """
    catalog = catalog_document(db, skip_external)
    for table in catalog["tables"]:
        table["rows"] = [
            list(row) for row in db.database.table(table["name"]).rows()
        ]
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, **catalog}


def from_document(document, **db_kwargs):
    """Rebuild an :class:`ActiveDatabase` from :func:`to_document` output.

    ``db_kwargs`` are forwarded to the :class:`ActiveDatabase`
    constructor (strategy, max_rule_transitions, ...). Data is loaded
    *before* rules are defined, so loading never fires rules.

    Raises:
        PersistenceError: on format mismatches or structural problems
            (duplicate table names, rows that do not match their table's
            column count, ...). Validation happens before any data is
            loaded, so a rejected document never yields a half-built
            database.
    """
    validate_document(document)
    db = ActiveDatabase(**db_kwargs)

    def load_rows():
        for table in document.get("tables", ()):
            if table["rows"]:
                db.database.insert_rows(
                    table["name"], list(zip(*table["rows"]))
                )

    restore_catalog(db, document, load_rows)
    return db


def validate_document(document):
    """Check a dump document's format, version and structure.

    Raises:
        PersistenceError: with a message naming the first problem found.
    """
    if not isinstance(document, dict):
        raise PersistenceError("dump document must be a JSON object")
    if document.get("format") != FORMAT_NAME:
        raise PersistenceError(
            f"not a {FORMAT_NAME} document: {document.get('format')!r}"
        )
    version = document.get("version")
    if version != FORMAT_VERSION:
        if isinstance(version, int) and version > FORMAT_VERSION:
            raise PersistenceError(
                f"dump version {version} was written by a newer repro; "
                f"this build reads version {FORMAT_VERSION}"
            )
        raise PersistenceError(f"unsupported dump version {version!r}")
    seen = set()
    for table in document.get("tables", ()):
        name = table.get("name")
        if name in seen:
            raise PersistenceError(
                f"duplicate table {name!r} in dump document"
            )
        seen.add(name)
        columns = table.get("columns", ())
        for position, row in enumerate(table.get("rows", ())):
            if len(row) != len(columns):
                raise PersistenceError(
                    f"table {name!r}: row {position} has {len(row)} "
                    f"values for {len(columns)} columns"
                )


def dump(db, path, skip_external=False):
    """Write a database to a JSON file."""
    document = to_document(db, skip_external=skip_external)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def load(path, **db_kwargs):
    """Read a database from a JSON file written by :func:`dump`."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as error:  # not JSON, or not UTF-8
            raise PersistenceError(f"malformed dump file: {error}") from None
    return from_document(document, **db_kwargs)
