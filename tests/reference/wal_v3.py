"""Reference section writer: the version-3 commit record and checkpoint
data the repo wrote until version 4 let a document refer back to a
vector it had already written.

Test-only. Version 3 wrote every value vector in full, a FLOAT vector
without NULL packed when that is shorter (the vector codec itself did
not change). :func:`build_commit_record` is the version-3 function
verbatim; :func:`checkpoint_data` is the ``data`` half of the version-2
checkpoint. :func:`expand_references` is the reading rule of version 4
written independently of :mod:`repro.durability.wal`: it turns a
version-4 document back into the version-3 one it stands for, so a
test can hold the two writers to each other byte for byte.
"""

from __future__ import annotations

import copy

from repro.durability.wal import table_section
from repro.relational.handles import encode_runs


def build_commit_record(txn_id, effect, database):
    """The version-3 commit record body of a transaction's net effect."""
    commit = {}
    for name in sorted(effect.tables):
        part = effect.tables[name]
        table = database.table(name)
        entry = {}
        if part.deleted:
            entry["d"] = encode_runs(sorted(part.deleted))
        if part.inserted:
            entry["i"] = table_section(table, part.inserted_handles())
        if part.updated:
            groups = {}
            for handle in part.updated_handles():
                groups.setdefault(part.updated[handle], []).append(handle)
            entry["u"] = [
                [names, *table_section(table, run, names)]
                for names, run in sorted(
                    (tuple(sorted(columns)), run)
                    for columns, run in groups.items()
                )
            ]
        if entry:
            entry["n"] = len(table)
            commit[name] = entry
    return {
        "txn": txn_id,
        "hwm": database.handles.issued_count,
        "commit": commit,
    }


def checkpoint_data(database):
    """The version-2 checkpoint's ``data``: one full insert section per
    non-empty table."""
    return {
        name: {"i": table_section(table, table.handles()), "n": len(table)}
        for name in database.table_names()
        if len(table := database.table(name))
    }


def vector_positions(sections):
    """``(section, index)`` of every value vector of a document's
    sections ``{table: entry}``, in slot order: tables in document
    order, the insert vectors, then each update group's."""
    for entry in sections.values():
        if "i" in entry:
            for index in range(1, len(entry["i"])):
                yield entry["i"], index
        for group in entry.get("u", ()):
            for index in range(2, len(group)):
                yield group, index


def expand_references(sections):
    """A copy of ``sections`` with every vector reference replaced by
    the vector its slot holds. Raises ``AssertionError`` on a reference
    that does not point backward."""
    sections = copy.deepcopy(sections)
    written = []
    for section, index in vector_positions(sections):
        vector = section[index]
        if type(vector) is int:
            assert 0 <= vector < len(written), (vector, len(written))
            section[index] = vector = copy.deepcopy(written[vector])
        written.append(vector)
    return sections
