"""Logs written by hand, in the envelope of version 9.

A record comes back from ``scan_wal`` with ``"v"`` and ``"lsn"`` filled
in, but only the first frame of a log states them: every later frame's
LSN is its predecessor's plus one. A test that rewrites a log — a
record tampered with behind a valid CRC, a record of an unknown kind
appended — writes it through :func:`write_log`, which frames the
records as the writer does. A commit record's ``"hwm"`` is written as
the record holds it; :func:`stated` puts back one its inserts imply.
"""

from repro.durability.wal import WAL_VERSION, encode_record, scan_wal


def write_log(path, records, *more):
    """Write ``records`` (as a scan hands them back), then the bodies
    ``more`` numbered on from the last of them, as the log at ``path``;
    returns the last LSN."""
    lsn = records[-1]["lsn"] if records else 0
    first, *rest = [*records, *({"v": WAL_VERSION, "lsn": lsn + at, **body}
                                for at, body in enumerate(more, 1))]
    for at, record in enumerate(rest, 1):
        assert record["lsn"] == first["lsn"] + at, "LSNs count on by one"
    bodies = [first] + [
        {key: value for key, value in record.items()
         if key not in ("v", "lsn")} for record in rest]
    with open(path, "wb") as handle:
        handle.write(b"".join(map(encode_record, bodies)))
    return first["lsn"] + len(rest)


def append_to_log(path, *more):
    """Append the bodies ``more`` to the log at ``path``, numbered on
    from its last record; returns the last LSN."""
    return write_log(path, scan_wal(path).records, *more)


def implied_hwm(commit):
    """The highest handle the commit sections insert: the end of the
    last insert run of any table (0 when none inserts)."""
    return max((runs[-2] + runs[-1] - 1
                for runs in (entry["i"][0] for entry in commit.values()
                             if "i" in entry) if runs), default=0)


def stated(record):
    """A commit record with its ``"hwm"`` stated, after ``"txn"``, as
    version 8 wrote every one; any other record as it is."""
    if "commit" not in record or "hwm" in record:
        return record
    head = {key: value for key, value in record.items() if key != "commit"}
    return {**head, "hwm": implied_hwm(record["commit"]),
            "commit": record["commit"]}
