"""Reference commit-record codec: the columnar version-2 WAL record the
repo shipped until the typed version-3 section codec of
:mod:`repro.durability.wal` replaced it.

Test-only. Version 2 wrote every value vector as a JSON list — FLOATs
as shortest round-trip decimal text — and replayed a section without
checking its shape: a malformed entry surfaced as whatever the set
mutators (or Python) raised. ``tests/property/test_wal_codec_differential.py``
holds the production build → encode → decode → replay to this module's
build → replay: same rows, same storage order, same handles, indexes
and rebuilt statistics, and — wherever version 2 already refused a
record — the same refusal. :func:`build_commit_record`,
:func:`replay_commit_record` and :func:`decode_runs` are the version-2
functions verbatim.
"""

from __future__ import annotations

from repro.durability.wal import WalError
from repro.relational.handles import encode_runs


def decode_runs(runs):
    """The ascending handle list a ``[start, count, ...]`` vector names.

    Raises:
        WalError: unless the vector is pairs of integers with positive
            counts and strictly ascending, non-overlapping runs — so the
            result is always a list of distinct handles.
    """
    handles = []
    floor = 1
    if not isinstance(runs, list) or len(runs) % 2:
        raise WalError(f"malformed handle runs {runs!r}")
    for start, count in zip(runs[::2], runs[1::2]):
        if type(start) is not int or type(count) is not int \
                or start < floor or count < 1:
            raise WalError(f"malformed handle runs {runs!r}")
        floor = start + count
        handles.extend(range(start, floor))
    return handles


def build_commit_record(txn_id, effect, database):
    """Render a transaction's composed net effect as a version-2 commit
    record body: per touched table (in name order) the deleted handles
    ``d``, the inserted handles with one value vector per schema column
    ``i``, the updates ``u`` grouped by updated-column set, and the row
    count ``n``; handle sets as ascending runs, every vector a list."""
    commit = {}
    for name in sorted(effect.tables):
        part = effect.tables[name]
        table = database.table(name)
        entry = {}
        if part.deleted:
            entry["d"] = encode_runs(sorted(part.deleted))
        if part.inserted:
            run = part.inserted_handles()
            entry["i"] = [encode_runs(run), *table.column_vectors(run)]
        if part.updated:
            groups = {}
            for handle in part.updated_handles():
                groups.setdefault(part.updated[handle], []).append(handle)
            entry["u"] = [
                [names, encode_runs(run), *table.column_vectors(run, names)]
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


def replay_commit_record(record, database):
    """Apply one version-2 commit record's net effect: per table,
    deletes, then inserts, then updates, each as whole vectors through
    the database's set mutators; then verify the row count.

    Raises:
        WalError: when a handle-run vector is malformed, or the
            post-replay row count disagrees with the count recorded at
            commit time.
    """
    for name, entry in record["commit"].items():
        if "d" in entry:
            database.delete_rows(name, decode_runs(entry["d"]))
        if "i" in entry:
            runs, *columns = entry["i"]
            database.insert_rows(name, columns, decode_runs(runs))
        for names, runs, *vectors in entry.get("u", ()):
            database.assign_columns(name, decode_runs(runs), names, vectors)
        actual = database.row_count(name)
        if actual != entry["n"]:
            raise WalError(
                f"recovery verification failed: table {name!r} has "
                f"{actual} rows after replaying txn {record['txn']} "
                f"(lsn {record['lsn']}), commit recorded {entry['n']}"
            )
    database.handles.advance_past(record["hwm"])
