"""Checkpointing: a durable full snapshot plus a WAL high-water mark.

A checkpoint document (version 6) is the catalog
(:func:`repro.persistence.catalog_document`) and the data as one commit
body — per non-empty table, one insert section of every live row under
its original handle, and the row count — with the handle high-water
mark, the LSN up to which the WAL is folded into it and the last
committed transaction id::

    {"format":"repro-durability-checkpoint","version":6,"wal_lsn":L,
     "last_txn":T,"hwm":H,"catalog":{...},"data":{TABLE:{"i":[...],"n":N}}}

The file is that document as one WAL frame of a stream of its own
(:func:`~repro.durability.wal.encode_record`), and nothing after it.
Recovery replays ``data`` through the WAL's section reader, between
creating the tables and defining indexes, rules and priorities:
checkpoint restore *is* WAL replay, packed FLOAT vectors as byte
planes included (version 5 wrote them as contiguous doubles, in the
same frame). A checkpoint of an earlier version — a JSON document,
which opens with ``{``, or a version-4 frame, which opens with the
version-6 WAL marker — or of another version number (5 among them) is
refused, naming its version.

Writes are atomic: the frame goes to a temp file (fsync'd), then an
``os.replace`` swaps it in, then the directory entry is fsync'd. A crash
before the rename leaves the previous checkpoint intact; a crash after
it leaves the new one — there is no in-between state, which the
``mid_checkpoint_rename`` fault point exercises.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

from ..errors import ReproError
from ..persistence import catalog_document
from .wal import V6_FRAME_MARKER, encode_record, read_frame, table_section

if TYPE_CHECKING:
    from ..system import ActiveDatabase
    from .faults import FaultInjector

#: the name the JSON checkpoint had; kept, like the WAL's
CHECKPOINT_FILENAME = "checkpoint.json"
CHECKPOINT_FORMAT = "repro-durability-checkpoint"
CHECKPOINT_VERSION = 6
#: the type of every field a checkpoint document must carry
_FIELDS = {"wal_lsn": int, "last_txn": int, "hwm": int, "catalog": dict,
           "data": dict}


class CheckpointError(ReproError):
    """Raised for malformed or unwritable checkpoint documents."""


def build_checkpoint_document(db: ActiveDatabase, wal_lsn: int,
                              last_txn: int) -> dict[str, Any]:
    """The checkpoint document for an :class:`~repro.ActiveDatabase`."""
    catalog = catalog_document(db)
    data = {}
    for name in db.database.table_names():
        table = db.database.table(name)
        if len(table):
            data[name] = {"i": table_section(table, table.handles()),
                          "n": len(table)}
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "wal_lsn": wal_lsn,
        "last_txn": last_txn,
        "hwm": db.database.handles.issued_count,
        "catalog": catalog,
        "data": data,
    }


def write_checkpoint(directory: str, document: dict[str, Any],
                     injector: FaultInjector | None = None,
                     fsync: bool = True) -> int:
    """Atomically write ``document`` as the directory's checkpoint.

    Returns the number of bytes written.
    """
    path = os.path.join(directory, CHECKPOINT_FILENAME)
    tmp_path = path + ".tmp"
    data = encode_record(document)
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if injector is not None:
        injector.fire("mid_checkpoint_rename")
    os.replace(tmp_path, path)
    if fsync:
        _fsync_directory(directory)
    return len(data)


def read_checkpoint(directory: str) -> dict[str, Any] | None:
    """Load and validate the directory's checkpoint document, or None.

    Raises:
        CheckpointError: when a checkpoint file exists but is not a
            supported checkpoint document. (A checkpoint is only ever
            installed by an atomic rename of a fully-written temp file,
            so unlike the WAL there is no torn state to tolerate.)
    """
    path = os.path.join(directory, CHECKPOINT_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:1] == b"{":
        raise CheckpointError(
            f"{path!r} is a JSON checkpoint of an earlier version (versions "
            f"1 to 3); this build reads framed version {CHECKPOINT_VERSION} "
            f"only and leaves the file as it is"
        )
    if data and data[0] == V6_FRAME_MARKER:
        raise CheckpointError(
            f"{path!r} is a checkpoint of version 4 (one deflate stream "
            f"in a version-6 frame); this build reads version "
            f"{CHECKPOINT_VERSION} only and leaves the file as it is"
        )
    frame = read_frame(data)
    if frame is None or frame[1] != len(data):
        raise CheckpointError(
            "corrupt checkpoint file: not one whole frame holding a JSON "
            "object")
    document = frame[0]
    if document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a {CHECKPOINT_FORMAT} document: {document.get('format')!r}"
        )
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint has format version {document.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION} only"
        )
    if any(type(document.get(key)) is not kind for key, kind in _FIELDS.items()):
        raise CheckpointError("checkpoint document needs integers wal_lsn, "
                              "last_txn, hwm and objects catalog, data")
    return document


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
