"""The write-ahead log: one checksummed, deflated frame per committed
transaction, all frames of a file one deflate stream.

A frame is a marker byte, the CRC-32 of the record's body and the
length of the frame's chunk (little-endian, four bytes each), then the
chunk: the body — the record's JSON — compressed into the file's raw
deflate stream (level 1) and sync-flushed, less the ``00 00 FF FF`` a
sync flush always ends with (the context takeover of RFC 7692's
permessage-deflate). A record's back-references may reach into the
bodies before it, so a log reads in order, with one inflater for the
whole file. The writer starts a new stream each time it opens the file,
and for every body of half the window or more: the stream's history is
then always bodies the file holds, and a frame of a fresh stream — no
reference before its own start — reads at any point of a log, which is
how a checkpoint (one frame, one stream) and a record written by hand
read too.

The first frame that does not check out (header, chunk length, inflate,
CRC, one JSON object) starts a torn or corrupt tail: :func:`scan_wal`
reports how many bytes of the file are valid so recovery can truncate
the rest. Versions 1 to 5 wrote text lines that open with a hex
checksum, version 6 one deflate stream per frame behind the marker
``0xA5``; :func:`scan_wal` refuses either before anything is cut.

A body states only what its frame's place in the file cannot. The
frame at offset 0 opens with the format version and its LSN,
``{"v":9,"lsn":L,...``; every later frame's LSN is its predecessor's
plus one, and its body starts with the record's own fields. The scan
numbers the records as it reads them and hands each back with ``"v"``
and ``"lsn"`` filled in. It refuses a first frame of any other version
— versions 7 and 8 wrote the same frames, but restated the version and
the LSN in every body, and version 7 wrote a packed FLOAT vector as
contiguous doubles where version 8 writes byte planes (see
:func:`pack_floats`) — and a later frame that states either field (a
log spliced from two). Two records exist:

* the commit record ``{"txn":T,"hwm":H,"commit":{...}}`` —
  the *net effect* of one committed transaction, in the paper's
  ``[I, D, U]`` shape (Section 2.2) but carrying redo values, kept
  set-oriented: grouped per table, handle sets as ascending runs, values
  as one vector per column (see :func:`build_commit_record`). Because
  the record is the composed net effect of the whole transaction
  (external block plus every rule-generated transition, Definition
  2.1), replaying it reproduces the committed state without re-running
  any rules. ``"hwm"``, the allocator's high-water mark, is left out
  when the record inserts a handle and the highest it inserts is the
  mark (see :func:`build_commit_record`).
* ``"kind":"ddl"`` — a schema/rule-catalog change (tables, indexes,
  rules, priorities), which executes outside transactions and is logged
  so the catalog survives between checkpoints.

Key order is the order of construction (a function of the logged effect
alone), so equal histories write equal bodies.

The commit sections are also the checkpoint's data: a checkpoint is the
commit body that inserts every live row, in a frame of its own
(:mod:`~repro.durability.checkpoint`), and :func:`replay_sections` is
the one reader of both.

The append of a commit record (plus fsync) *is* the commit point: a
transaction whose record is fully durable is committed; one whose
record is missing or torn never happened.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import sys
import zlib
from array import array
from math import inf
from typing import IO, TYPE_CHECKING, Any, Sequence

from ..errors import HandleClaimError, ReproError
from ..records import Record
from ..relational.handles import encode_runs
from ..relational.types import SqlType

if TYPE_CHECKING:
    from ..core.effects import TransitionEffect
    from ..relational.database import Database
    from ..relational.table import Table
    from .faults import FaultInjector

#: the name the text log had; kept, so a directory an earlier build
#: wrote is found and refused, not taken for an empty one
WAL_FILENAME = "wal.jsonl"
WAL_VERSION = 9


class WalError(ReproError):
    """Raised for WAL misuse or an unrecoverably corrupt WAL."""


#: one encoder for every record and checkpoint: ``json.dumps`` with
#: non-default separators builds a fresh ``JSONEncoder`` per call
encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: ``json.loads`` less its whitespace stripping: a body is one document
_decode_json = json.JSONDecoder().raw_decode

#: a frame's header: marker, CRC-32 of the body, length of the chunk
FRAME_HEADER = struct.Struct("<BII")
#: the first byte of every frame: not a hex digit (the first byte of
#: every earlier log line), not ``{`` (of every earlier checkpoint), not
#: the zero a crash may leave past the end of a file and not the marker
#: of a version-6 frame
FRAME_MARKER = 0xA6
#: the marker of a version-6 frame, one deflate stream of its own
V6_FRAME_MARKER = 0xA5
#: the first bytes of a text log of an earlier version
_HEX_DIGITS = b"0123456789abcdef"
#: the end of every sync-flushed chunk, which a frame leaves out
_SYNC_TAIL = b"\x00\x00\xff\xff"
#: how far back a deflate stream refers
_WINDOW = 32768
#: a body at least this long starts a new stream: level 1's far matches
#: into the body before it cost more than they save, and what it gains
#: rests on how much of that body the data repeat (``set_bulk``'s ~19 KB
#: bodies moved by up to 3 % from seed to seed; EXPERIMENTS.md §X).
_OWN_STREAM = _WINDOW // 2


def new_deflate() -> Any:
    """The compressor of a new stream: raw deflate, level 1."""
    return zlib.compressobj(1, zlib.DEFLATED, -15)


def encode_frame(data: bytes, deflate: Any = None) -> bytes:
    """``data`` as the next frame of ``deflate``'s stream — by default,
    of a stream of its own: header, then the sync-flushed chunk less its
    tail."""
    if deflate is None:
        deflate = new_deflate()
    chunk = deflate.compress(data) + deflate.flush(zlib.Z_SYNC_FLUSH)
    return FRAME_HEADER.pack(FRAME_MARKER, zlib.crc32(data), len(chunk) - 4) \
        + chunk[:-4]


def encode_record(body: dict[str, Any]) -> bytes:
    """Render a record body as one WAL frame (bytes) of a stream of its
    own (see :func:`encode_frame`)."""
    return encode_frame(encode_json(body).encode("utf-8"))


def _read(data: bytes | memoryview, at: int, inflate: Any = None,
          zdict: bytes = b"") -> tuple[dict[str, Any], int, bytes] | None:
    """The document, the offset past the frame and the body of the frame
    at ``at``, or None when it is torn or corrupt: no whole chunk, no
    sync flush at its end, another CRC, not one JSON object. ``inflate``
    is the decompressor of the stream the frame continues (lost after
    None); without one the frame is read as a stream of its own whose
    history is ``zdict``."""
    if len(data) - at < FRAME_HEADER.size:
        return None
    marker, crc, length = FRAME_HEADER.unpack_from(data, at)
    end = at + FRAME_HEADER.size + length
    if marker != FRAME_MARKER or end > len(data):
        return None
    if inflate is None:
        inflate = zlib.decompressobj(-15, zdict=zdict)
    try:
        body = inflate.decompress(data[end - length:end]) \
            + inflate.decompress(_SYNC_TAIL)
        if inflate.eof or zlib.crc32(body) != crc:
            return None
        text = body.decode("utf-8")
        document, stop = _decode_json(text)
    except (zlib.error, ValueError):  # no deflate, not UTF-8, not JSON
        return None
    if stop != len(text) or not isinstance(document, dict):
        return None
    return document, end, body


def read_frame(data: bytes | memoryview, at: int = 0
               ) -> tuple[dict[str, Any], int] | None:
    """The body of the frame at offset ``at`` of ``data``, read as a
    stream of its own, and the offset past the frame, or None when it is
    torn or corrupt."""
    frame = _read(data, at)
    return None if frame is None else frame[:2]


class WalScan(Record, frozen=False):
    """The result of :func:`scan_wal`.

    Attributes:
        records: the valid record bodies, in log order.
        valid_bytes: length of the valid prefix of the file; bytes past
            this offset belong to a torn or corrupt tail.
        torn_bytes: how many trailing bytes were invalid (0 for a clean
            log).
        discarded_records: how many frames behind the first bad one,
            inside the tail recovery cuts off, read back whole — a lower
            bound (see :func:`scan_wal`).
    """

    records: list[dict[str, Any]]
    valid_bytes: int
    torn_bytes: int
    discarded_records: int = 0

    @property
    def last_lsn(self) -> int:
        return self.records[-1]["lsn"] if self.records else 0


def scan_wal(path: str) -> WalScan:
    """Read a WAL file, stopping at the first torn/corrupt frame.

    The frames are read in order, by one inflater for the whole file.
    Recovery is point-in-time: everything from the first invalid frame
    onward is cut, intact frames behind it included. With group commit
    several un-fsync'd records can be in flight and a filesystem may
    persist their pages out of order, so an ordinary crash can leave a
    valid frame after a bad one; none of them was acknowledged, and
    refusing to start would turn a recoverable crash into an outage.

    The scan reads on past the tear, from marker to marker, only to
    count what is being discarded: a frame there counts when it reads
    back whole — inflates, matches its CRC, holds one JSON object — with
    the last 32 KiB of the valid bodies as its history. A frame that
    refers into the torn one, or into another frame behind the tear,
    cannot be read back, so the count is a lower bound: exact for frames
    that open a stream, and for frames whose references all reach no
    further back than the valid prefix.

    The first valid frame states the format version and its LSN; each
    record comes back with both filled in, the LSNs counting on by one.

    Raises:
        WalError: the file opens with a hex digit or with the version-6
            marker, or its first record names another format version —
            a log of an earlier version, refused whole rather than cut
            as torn; the first record states no integer LSN, or a later
            one states a version or an LSN — a log spliced from two.
    """
    if not os.path.exists(path):
        return WalScan([], 0, 0)
    with open(path, "rb") as handle:
        data = handle.read()
    if data and data[0] in _HEX_DIGITS:
        raise WalError(
            f"{path!r} is a text WAL of an earlier version (versions 1 to "
            f"5); this build reads version {WAL_VERSION} frames only and "
            f"leaves the file as it is"
        )
    if data and data[0] == V6_FRAME_MARKER:
        raise WalError(
            f"{path!r} is a WAL of version 6 (one deflate stream per "
            f"frame); this build reads version {WAL_VERSION} frames only "
            f"and leaves the file as it is"
        )
    records: list[dict[str, Any]] = []
    view, valid, discarded = memoryview(data), 0, 0
    inflate, history = zlib.decompressobj(-15), bytearray()
    while frame := _read(view, valid, inflate):
        record = frame[0]
        if records:
            lsn = records[-1]["lsn"]
            if "v" in record or "lsn" in record:
                raise WalError(
                    f"{path!r}: the record after lsn {lsn} states its "
                    f"format version or LSN, which only the first frame of "
                    f"a log does; the log is spliced and left as it is")
            record = {"v": WAL_VERSION, "lsn": lsn + 1, **record}
        elif record.get("v") != WAL_VERSION:
            raise WalError(
                f"WAL record lsn {record.get('lsn')} has format version "
                f"{record.get('v')!r}; this build reads version "
                f"{WAL_VERSION} only and leaves {path!r} as it is")
        elif type(record.get("lsn")) is not int:
            raise WalError(f"{path!r}: the first record states no integer "
                           f"LSN")
        records.append(record)
        valid = frame[1]
        history += frame[2]
        if len(history) > 2 * _WINDOW:
            del history[:-_WINDOW]
    zdict = bytes(history[-_WINDOW:])
    probe = valid + 1
    while (probe := data.find(FRAME_MARKER, probe)) >= 0:
        frame = _read(view, probe, zdict=zdict)
        discarded += frame is not None
        probe = frame[1] if frame else probe + 1
    return WalScan(records, valid, len(data) - valid, discarded)


class WalWriter:
    """Appends checksummed records to the WAL, fsync'ing each one.

    Each time it opens the file it starts a new deflate stream, which
    the frames it appends until the file is closed continue; a body of
    half the window or more starts one too. A frame at offset 0 of the
    file states the format version and its LSN, any other frame
    neither: an LSN is consumed only by an append that succeeds, and a
    failed one is cut back, so the LSNs of a file are consecutive and
    each frame's is its predecessor's plus one.

    Args:
        path: the WAL file path (created on first append).
        fsync: issue ``os.fsync`` after every append (the durability
            guarantee; disable only for benchmarking the syscall cost).
        injector: optional :class:`~repro.durability.faults.FaultInjector`
            whose ``pre_wal_append`` / ``torn_wal_append`` /
            ``enospc_wal_append`` / ``post_wal_append`` points instrument
            the append path.
    """

    def __init__(self, path: str, fsync: bool = True,
                 injector: FaultInjector | None = None,
                 next_lsn: int = 1) -> None:
        self.path = path
        self.fsync = fsync
        self.injector = injector
        self.next_lsn = next_lsn
        self._file: IO[bytes] | None = None
        #: the compressor of the stream the open file continues
        self._deflate: Any = None
        #: running counters for stats()["durability"]
        self.records_written = 0
        self.bytes_written = 0
        self.syncs = 0
        #: bytes flushed to the OS but not yet fsync'd (group commit)
        self._pending_sync = False
        #: why the writer refuses further appends — the text of the
        #: WalError each one raises (None while healthy): set when bytes
        #: of unknown state may sit in the log
        self.failure: str | None = None

    def _open(self) -> IO[bytes]:
        if self._file is None or self._file.closed:
            self._file = open(self.path, "ab")
            self._deflate = new_deflate()
        return self._file

    def append(self, body: dict[str, Any], sync: bool | None = None) -> int:
        """Assign the next LSN, append the record durably, return the LSN.

        The record only counts as written once the bytes are flushed
        (and fsync'd when enabled) — a crash before that leaves the log
        exactly as it was, or with a detectable torn tail. An ``OSError``
        from the write (disk full, IO error) leaves it exactly as it was
        too: whatever part of the frame reached the file is cut off again,
        so a later append never lands behind a torn record.

        Args:
            sync: override the per-append fsync. ``None`` follows the
                writer's ``fsync`` setting; ``False`` flushes to the OS
                but defers the fsync to a later :meth:`sync` — group
                commit: the record is *not* durable (and the commit it
                carries must not be acknowledged) until that sync
                returns.

        Raises:
            OSError: the write failed; the log is unchanged and the LSN
                was not consumed.
            WalError: an earlier failure left bytes of unknown state in
                the log (the cut itself failed, or an fsync raised).
        """
        if self.failure is not None:
            raise WalError(self.failure)
        if self.injector is not None:
            self.injector.fire("pre_wal_append")
        handle = self._open()
        offset = handle.tell()
        if not offset:
            body = {"v": WAL_VERSION, "lsn": self.next_lsn, **body}
        data = encode_json(body).encode("utf-8")
        if len(data) >= _OWN_STREAM:
            self._deflate = new_deflate()
        frame = encode_frame(data, self._deflate)
        try:
            if self.injector is not None:
                keep = self.injector.torn_write(len(frame))
                if keep is not None:
                    handle.write(frame[:keep])
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                    self.injector.torn_failure()
            handle.write(frame)
            handle.flush()
        except OSError:
            self._discard_partial_append(offset)
            raise
        do_sync = self.fsync if sync is None else (sync and self.fsync)
        if do_sync:
            self._fsync(handle)
            self._pending_sync = False
        else:
            self._pending_sync = True
        lsn = self.next_lsn
        self.next_lsn += 1
        self.records_written += 1
        self.bytes_written += len(frame)
        if self.injector is not None:
            self.injector.fire("post_wal_append")
        return lsn

    def _discard_partial_append(self, offset: int) -> None:
        """Cut the log back to ``offset`` after a failed write.

        The buffered writer is closed first and opened afresh by the
        next append: it still holds the unwritten remainder of the frame
        and would re-emit it on its next flush. Opening it again starts
        a new stream too: the compressor has taken in the body the file
        no longer holds.
        """
        try:
            try:
                if self._file is not None:
                    self._file.close()
            except OSError:
                pass  # the same failure again, flushing the remainder
            self._cut_to(offset)
        except OSError as error:
            self.failure = (
                f"WAL {self.path!r} may hold a partial record at offset "
                f"{offset}: the append failed and the log could not be "
                f"cut back ({error}); run recovery"
            )

    def _fsync(self, handle: IO[bytes]) -> None:
        try:
            os.fsync(handle.fileno())
        except OSError as error:
            # after a failed fsync the kernel may have dropped the dirty
            # pages: what the file holds past the last good sync is
            # unknowable from here
            self.failure = (
                f"WAL {self.path!r}: fsync failed at offset "
                f"{handle.tell()} ({error}); which bytes since the last "
                f"successful fsync reached the disk is unknown; run "
                f"recovery"
            )
            raise
        self.syncs += 1

    def sync(self) -> bool:
        """fsync any appends deferred with ``append(..., sync=False)``.

        One fsync covers every pending record (the group-commit batch);
        returns True when an fsync was actually issued.
        """
        if not self._pending_sync:
            return False
        self._pending_sync = False
        if self.fsync and self._file is not None and not self._file.closed:
            self._fsync(self._file)
            return True
        return False

    def close(self) -> None:
        self.sync()  # a clean shutdown must not drop a pending batch
        if self._file is not None and not self._file.closed:
            self._file.close()
        self._file = self._deflate = None

    def truncate_to(self, valid_bytes: int) -> None:
        """Cut a torn tail off the file (used by recovery)."""
        self.close()
        if os.path.exists(self.path):
            self._cut_to(valid_bytes)

    def _cut_to(self, size: int) -> None:
        with open(self.path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())


# ---------------------------------------------------------------------------
# the section codec: commit records, checkpoint data, replay
#
# A section is ``[runs, vector, ...]``: a handle set as ascending
# ``[start, count, ...]`` runs, then one value vector per column aligned
# with it. A vector is a JSON list — or, for a FLOAT vector without
# NULL, the base64 of its little-endian IEEE-754 doubles whenever that
# string, quotes included, is strictly shorter: bit-exact, and shorter
# than decimal text for any double that needs more than a few digits.
# The doubles are written as eight byte planes, byte k of every value
# together (the byte-shuffle filter of HDF5 and Blosc): the sign and
# exponent bytes of a column's values barely vary, and side by side
# they deflate to little, where spread among mantissa bytes they would
# not (``set_bulk``'s commit records: 10 % smaller; EXPERIMENTS.md §Z).
# A vector written twice in one document (a journal's copy of a column)
# is written twice; the frame's deflate stream finds the repeat.

#: doubles are logged little-endian: a big-endian host swaps them
_BYTESWAP = sys.byteorder != "little"


def pack_floats(values: Sequence[float]) -> str:
    """``values`` as the base64 of the byte planes of their
    little-endian doubles: byte ``k`` of value ``j`` at ``k * n + j``."""
    doubles = array("d", values)
    if _BYTESWAP:
        doubles.byteswap()
    raw = doubles.tobytes()
    return base64.b64encode(b"".join(raw[k::8] for k in range(8))).decode()


def unpack_floats(text: str) -> list[float]:
    """The floats :func:`pack_floats` wrote as ``text``, bit for bit."""
    try:
        planes = base64.b64decode(text, validate=True)
    except ValueError:  # not base64, or not ASCII
        planes = None
    if planes is None or len(planes) % 8:
        raise WalError("packed vector is not the base64 of whole doubles")
    n = len(planes) // 8
    raw = bytearray(len(planes))
    for k in range(8):
        raw[k::8] = planes[k * n:k * n + n]
    doubles = array("d", raw)
    if _BYTESWAP:
        doubles.byteswap()
    return doubles.tolist()


def encode_vector(values: list[Any]) -> list[Any] | str:
    """One FLOAT vector as the log holds it: packed when it has no NULL
    and the packed string is strictly shorter than the list's text. That
    text is measured from the values' shortest reprs — what the JSON
    encoder writes, but ``Infinity`` for ``inf`` — 64 values at a time,
    and no further than it takes to prove it longer than the string
    (each value left is at least three bytes, ``0.0``)."""
    if None in values:
        return values
    packed = 4 * -(-8 * len(values) // 3) + 2  # base64 length, quoted
    length = 1 + len(values) + 5 * (values.count(inf) + values.count(-inf))
    for start in range(0, len(values), 64):
        length += sum(map(len, map(repr, values[start:start + 64])))
        if length + 3 * max(len(values) - start - 64, 0) > packed:
            return pack_floats(values)
    return values


def _as_written(values: list[Any]) -> list[Any] | str:
    """A vector as a section holds it: only a FLOAT column stores floats,
    so one that opens with one goes through :func:`encode_vector`."""
    return encode_vector(values) if type(values[0]) is float else values


def table_section(table: Table, handles: Sequence[int],
                  names: Sequence[str] | None = None) -> list[Any]:
    """The section of live, ascending ``handles``: their runs, then the
    vectors of every schema column — or of the columns in ``names`` —
    gathered from columnar storage through one slot selection
    (:meth:`Table.column_vectors`), each :func:`_as_written`."""
    return [encode_runs(handles),
            *map(_as_written, table.column_vectors(handles, names))]


def build_commit_record(txn_id: int, effect: TransitionEffect,
                        database: Database) -> dict[str, Any]:
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
    non-reusable across crashes too) — unless the record inserts a
    handle and the highest it inserts, the end of the last insert run
    of any table, is the mark: replay reads it there.
    """
    commit = {}
    inserted = 0
    for name in sorted(effect.tables):
        part = effect.tables[name]
        table = database.table(name)
        entry: dict[str, Any] = {}
        if part.deleted:
            entry["d"] = encode_runs(sorted(part.deleted))
        if part.inserted:
            handles = part.inserted_handles()
            inserted = max(inserted, handles[-1])
            entry["i"] = table_section(table, handles)
        if part.updated:
            groups: dict[frozenset[str], list[int]] = {}
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
    hwm = database.handles.issued_count
    if inserted and inserted == hwm:
        return {"txn": txn_id, "commit": commit}
    return {"txn": txn_id, "hwm": hwm, "commit": commit}


def decode_runs(runs: Any) -> list[int]:
    """The ascending handle list a ``[start, count, ...]`` vector names.

    Raises:
        WalError: unless the vector is pairs of integers with positive
            counts and strictly ascending, non-overlapping runs — so the
            result is always a list of distinct handles.
    """
    if type(runs) is list and len(runs) == 2:  # one run: the common set
        start, count = runs
        if type(start) is int and type(count) is int and start >= 1 \
                and count >= 1:
            return list(range(start, start + count))
    handles: list[int] = []
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


def _decode_section(section: Any, names: Sequence[str], table: Table
                    ) -> tuple[list[int], list[list[Any]]]:
    """The handles and value vectors of a section over the columns
    ``names`` of ``table``."""
    schema = table.schema
    if type(section) is not list or len(section) != len(names) + 1:
        raise WalError(f"a section is a list of handle runs and "
                       f"{len(names)} value vector(s)")
    runs, *vectors = section
    handles = decode_runs(runs)
    for at, vector in enumerate(vectors):
        if type(vector) is not list:
            column = schema.column(names[at])
            if type(vector) is not str or column.sql_type is not SqlType.FLOAT:
                raise WalError(f"column {column.name!r}: a "
                               f"{column.sql_type.value} vector must be a list")
            vectors[at] = vector = unpack_floats(vector)
        if len(vector) != len(handles):
            raise WalError(f"column {names[at]!r}: {len(vector)} values "
                           f"for {len(handles)} handles")
    return handles, vectors


#: the keys a table's entry may hold
_ENTRY_KEYS = frozenset("diun")


def replay_sections(sections: Any, database: Database,
                    record: dict[str, Any] | None = None) -> None:
    """Apply commit sections ``{table: entry}`` — the net effect of the
    commit ``record``, or a checkpoint's data — to a recovering
    database, and verify each table's row count. Per table: deletes,
    then inserts (ascending handle order, allocation order), then
    updates, each as whole vectors through the set mutators.

    A table's storage order is ascending handle order whatever order
    its rows arrived in, so this reproduces the live database's order
    exactly: a commit's inserts are usually fresher than anything live
    and append, and those of a transaction that committed after a
    younger one (concurrent sessions) are merged into place.

    Raises:
        WalError: naming the record's LSN (or the checkpoint) and the
            table, when an entry, a section, a vector or a handle run is
            malformed (the shape, vector counts and lengths, packed
            doubles only in FLOAT columns), an insert claims a handle
            that another table (or this one) already holds or held, or
            the post-replay row count is not the recorded one.
    """
    if type(sections) is not dict:
        raise WalError(f"cannot replay {_where(record)}: sections must be "
                       f"an object")
    for name, entry in sections.items():
        try:
            if type(entry) is not dict or type(entry.get("n")) is not int \
                    or not entry.keys() <= _ENTRY_KEYS:
                raise WalError("an entry is an object of d/i/u sections and "
                               "an integer n")
            table = database.table(name)
            if "d" in entry:
                database.delete_rows(name, decode_runs(entry["d"]))
            if "i" in entry:
                handles, vectors = _decode_section(
                    entry["i"], table.schema.column_names, table)
                database.insert_rows(name, vectors, handles)
            updates = entry.get("u", [])
            if type(updates) is not list:
                raise WalError("the update section must be a list")
            for group in updates:
                names = group[0] if type(group) is list and group else None
                if type(names) is not list \
                        or any(type(c) is not str for c in names):
                    raise WalError("an update section is led by its column "
                                   "names")
                handles, vectors = _decode_section(group[1:], names, table)
                database.assign_columns(name, handles, names, vectors)
        except (WalError, HandleClaimError) as problem:
            raise WalError(f"cannot replay {_where(record)}: table "
                           f"{name!r}: {problem}") from None
        actual = database.row_count(name)
        if actual != entry["n"]:
            raise WalError(
                f"recovery verification failed: table {name!r} has "
                f"{actual} rows after replaying {_where(record)}, commit "
                f"recorded {entry['n']}"
            )


def _where(record: dict[str, Any] | None) -> str:
    if record is None:
        return "the checkpoint"
    return f"txn {record.get('txn')!r} (lsn {record['lsn']})"


def replay_commit_record(record: dict[str, Any], database: Database) -> None:
    """Apply one commit record's net effect (:func:`replay_sections`)
    and resume the allocator past its ``hwm`` — stated, or the highest
    handle the record inserts, which restoring the inserts resumed past
    already."""
    if type(record.get("txn")) is not int \
            or type(record.get("hwm", 0)) is not int:
        raise WalError(f"cannot replay {_where(record)}: txn and hwm must be "
                       f"integers")
    sections = record["commit"]
    replay_sections(sections, database, record)
    if "hwm" in record:
        database.handles.advance_past(record["hwm"])
    elif not any("i" in entry for entry in sections.values()):
        raise WalError(f"cannot replay {_where(record)}: it states no hwm "
                       f"and inserts no handle")
