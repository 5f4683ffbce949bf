"""Reference section writer: the version-4 commit record and checkpoint
data the repo wrote until version 5 let a document gather a column of an
earlier table instead of writing it.

Test-only. Version 4 wrote a vector whose text an earlier vector of the
document had as that vector's slot, and every other vector in full (the
vector codec itself did not change). :class:`SectionWriter` and
:func:`build_commit_record` are the version-4 code verbatim;
:func:`checkpoint_data` is the ``data`` half of the version-3
checkpoint. :func:`expand_gathers` is the reading rule of version 5
written independently of :mod:`repro.durability.wal`: given the
database at the document's commit point, it turns a version-5 document
back into the version-4 one it stands for, so a test can hold the two
writers to each other byte for byte.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Sequence

from repro.durability.wal import encode_json, encode_vector, table_section
from repro.relational.handles import encode_runs

if TYPE_CHECKING:
    from repro.core.effects import TransitionEffect
    from repro.relational.database import Database
    from repro.relational.table import Table


class SectionWriter:
    """Writes one document's sections, a vector that repeats an earlier
    one's text as that one's slot; ``shared`` counts the references."""

    def __init__(self) -> None:
        self.first: dict[str, int] = {}  # a vector's text -> its slot
        self.slots = self.shared = 0

    def section(self, table: Table, handles: Sequence[int],
                names: Sequence[str] | None = None) -> list[Any]:
        """:func:`table_section`, repeated vectors as references."""
        section = table_section(table, handles, names)
        for at in range(1, len(section)):
            vector = section[at]
            # the text as written: ``repr`` tells 1 from 1.0 from True
            # and 0.0 from -0.0, where Python equality does not
            slot = self.first.setdefault(
                vector if type(vector) is str else repr(vector), self.slots)
            # "[0]" outgrows every slot below 100; nine values or a packed
            # string outgrow every slot a document can hold
            if slot != self.slots and (slot < 100 or len(vector) > 8 or len(
                    str(slot)) < len(encode_json(vector))):
                section[at] = slot
                self.shared += 1
            self.slots += 1
        return section


def build_commit_record(txn_id: int, effect: TransitionEffect,
                        database: Database,
                        writer: SectionWriter | None = None
                        ) -> dict[str, Any]:
    """Render a transaction's composed net effect as a commit record.

    ``effect`` is the whole-transaction
    :class:`~repro.core.effects.TransitionEffect` (external block and all
    rule-generated transitions composed per Definition 2.1 — the
    transition log's cursor-0 composite), kept per table; redo values
    are read from the database at the commit point, which by definition
    holds every net-inserted row live and every net-updated column at
    its final value. The §5.1 ``S`` component is read-only and is not
    logged.

    The effect is a set, and the record keeps it one: per touched table
    (in name order) the deleted handles ``d`` as runs, the insert
    section ``i``, one update section per updated-column set led by its
    column names ``u`` (names and groups in name order), and the row
    count ``n`` that recovery verifies after replay. The record also
    carries the handle high-water mark ``hwm`` (handles are
    non-reusable across crashes too). ``writer`` (a fresh one by
    default) writes the sections.
    """
    writer = writer or SectionWriter()
    commit = {}
    for name in sorted(effect.tables):
        part = effect.tables[name]
        table = database.table(name)
        entry: dict[str, Any] = {}
        if part.deleted:
            entry["d"] = encode_runs(sorted(part.deleted))
        if part.inserted:
            entry["i"] = writer.section(table, part.inserted_handles())
        if part.updated:
            groups: dict[frozenset[str], list[int]] = {}
            for handle in part.updated_handles():
                groups.setdefault(part.updated[handle], []).append(handle)
            entry["u"] = [
                [names, *writer.section(table, run, names)]
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
    """The version-3 checkpoint's ``data``: one insert section per
    non-empty table, written by one version-4 writer."""
    writer = SectionWriter()
    return {
        name: {"i": writer.section(table, table.handles()), "n": len(table)}
        for name in database.table_names()
        if len(table := database.table(name))
    }


def numbered_sections(sections):
    """``(table, section, first)`` of every section of a document's
    ``{table: entry}``, in section-number order — per table the insert
    section, then each update group — ``first`` the index of its first
    value vector."""
    for name, entry in sections.items():
        if "i" in entry:
            yield name, entry["i"], 1
        for group in entry.get("u", ()):
            yield name, group, 2


def handles_of(runs):
    """The ascending handles ``[start, count, ...]`` names."""
    return [handle for start, count in zip(runs[::2], runs[1::2])
            for handle in range(start, start + count)]


def gathers(sections):
    """``(table, number, gather)`` of every gather of a document: the
    target table, the number of the section holding it, and the object."""
    for number, (name, section, first) in enumerate(
            numbered_sections(sections)):
        for vector in section[first:]:
            if type(vector) is dict:
                yield name, number, vector


def expand_gathers(sections, database):
    """A copy of ``sections`` with every gather replaced by the vector it
    names, read from ``database`` — which must hold the document's
    commit point — and written as version 4 wrote a vector in full.
    Raises ``AssertionError`` on a gather that does not name a column of
    an earlier table's section."""
    sections = copy.deepcopy(sections)
    numbered = list(numbered_sections(sections))
    for number, (name, section, first) in enumerate(numbered):
        for at in range(first, len(section)):
            if type(section[at]) is not dict:
                continue
            source, column = section[at]["g"]
            owner, found, start = numbered[source]
            assert source < number and owner != name, (source, number)
            rows = dict(database.table(owner).items())
            position = database.schema(owner).column_position(column)
            values = [rows[handle][position]
                      for handle in handles_of(found[start - 1])]
            section[at] = encode_vector(values) \
                if type(values[0]) is float else values
    return sections
