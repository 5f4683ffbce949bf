"""Checkpointing: a durable full snapshot plus a WAL high-water mark.

A checkpoint document wraps :func:`repro.persistence.to_document` (the
same schema/data/rules/priorities format applications already use) with
the durability bookkeeping that plain persistence deliberately omits:
per-row tuple handles (handles are non-reusable, so recovery must
restore the originals), the handle allocator's high-water mark, the LSN
up to which the WAL is folded into the snapshot, and the last committed
transaction id.

Writes are atomic: the document goes to a temp file (fsync'd), then an
``os.replace`` swaps it in, then the directory entry is fsync'd. A crash
before the rename leaves the previous checkpoint intact; a crash after
it leaves the new one — there is no in-between state, which the
``mid_checkpoint_rename`` fault point exercises.
"""

from __future__ import annotations

import json
import os

from ..errors import ReproError
from ..persistence import to_document

CHECKPOINT_FILENAME = "checkpoint.json"
CHECKPOINT_FORMAT = "repro-durability-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ReproError):
    """Raised for malformed or unwritable checkpoint documents."""


def build_checkpoint_document(db, wal_lsn, last_txn):
    """The checkpoint document for an :class:`~repro.ActiveDatabase`.

    ``handles`` lists each table's live handles in storage (ascending)
    order, aligned with the wrapped document's row lists.
    """
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


def write_checkpoint(directory, document, injector=None, fsync=True):
    """Atomically write ``document`` as the directory's checkpoint.

    Returns the number of bytes written.
    """
    path = os.path.join(directory, CHECKPOINT_FILENAME)
    tmp_path = path + ".tmp"
    data = json.dumps(document, separators=(",", ":")).encode("utf-8")
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


def read_checkpoint(directory):
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
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise CheckpointError(f"corrupt checkpoint file: {error}") from None
    if not isinstance(document, dict):
        raise CheckpointError("checkpoint document must be a JSON object")
    if document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a {CHECKPOINT_FORMAT} document: {document.get('format')!r}"
        )
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {document.get('version')!r}"
        )
    return document


def _fsync_directory(directory):
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
