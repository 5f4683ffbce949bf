"""The write-ahead log: append-only JSONL of committed transactions.

Each line is ``<crc32-hex> <json-body>\\n`` — the checksum covers the
body bytes, so a torn tail (partial write of the final record) is
detected by either a JSON parse failure or a checksum mismatch, and
:func:`scan_wal` reports how many bytes of the file are valid so
recovery can truncate the rest.

Every body opens with the format version and the LSN, ``{"v":2,"lsn":L,
...``; recovery refuses any other version. Two records exist:

* the commit record ``{"v":2,"lsn":L,"txn":T,"hwm":H,"commit":{...}}`` —
  the *net effect* of one committed transaction, in the paper's
  ``[I, D, U]`` shape (Section 2.2) but carrying redo values, kept
  set-oriented: grouped per table, handle sets as ascending runs, values
  as one vector per column (see :func:`build_commit_record`). Because
  the record is the composed net effect of the whole transaction
  (external block plus every rule-generated transition, Definition
  2.1), replaying it reproduces the committed state without re-running
  any rules.
* ``"kind":"ddl"`` — a schema/rule-catalog change (tables, indexes,
  rules, priorities), which executes outside transactions and is logged
  so the catalog survives between checkpoints.

Key order is the order of construction (a function of the logged effect
alone), so equal histories write equal bytes.

The append of a commit record (plus fsync) *is* the commit point: a
transaction whose record is fully durable is committed; one whose
record is missing or torn never happened.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

from ..errors import ReproError
from ..relational.handles import encode_runs

WAL_FILENAME = "wal.jsonl"
WAL_VERSION = 2


class WalError(ReproError):
    """Raised for WAL misuse or an unrecoverably corrupt WAL."""


#: one encoder for every record: ``json.dumps`` with non-default
#: separators builds a fresh ``JSONEncoder`` per call
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_record(body):
    """Render a record body as one checksummed WAL line (bytes)."""
    data = _encode_json(body).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(data), data)


def decode_line(line):
    """Parse one WAL line back into its body dict.

    Returns None when the line is torn or corrupt (bad shape, checksum
    mismatch, or invalid JSON).
    """
    if not line.endswith(b"\n"):
        return None
    head, sep, data = line[:-1].partition(b" ")
    if not sep or len(head) != 8:
        return None
    try:
        expected = int(head, 16)
    except ValueError:
        return None
    if zlib.crc32(data) != expected:
        return None
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return body if isinstance(body, dict) else None


@dataclass
class WalScan:
    """The result of :func:`scan_wal`.

    Attributes:
        records: the valid record bodies, in log order.
        valid_bytes: length of the valid prefix of the file; bytes past
            this offset belong to a torn or corrupt tail.
        torn_bytes: how many trailing bytes were invalid (0 for a clean
            log).
        discarded_records: how many checksummed records sit *behind* the
            first bad one, inside the tail recovery cuts off.
    """

    records: list
    valid_bytes: int
    torn_bytes: int
    discarded_records: int = 0

    @property
    def last_lsn(self):
        return self.records[-1]["lsn"] if self.records else 0


def scan_wal(path):
    """Read a WAL file, stopping at the first torn/corrupt record.

    Recovery is point-in-time: everything from the first invalid record
    onward is cut, intact records behind it included. With group commit
    several un-fsync'd records can be in flight and a filesystem may
    persist their pages out of order, so an ordinary crash can leave a
    valid record after a bad one; none of them was acknowledged, and
    refusing to start would turn a recoverable crash into an outage. The
    scan reads on past the tear only to count what is being discarded.
    """
    if not os.path.exists(path):
        return WalScan([], 0, 0)
    records = []
    valid = 0
    discarded = 0
    torn = False
    total = os.path.getsize(path)
    with open(path, "rb") as handle:
        for line in handle:
            body = decode_line(line)
            if torn:
                discarded += body is not None
            elif body is None:
                torn = True
            else:
                records.append(body)
                valid += len(line)
    return WalScan(records, valid, total - valid, discarded)


class WalWriter:
    """Appends checksummed records to the WAL, fsync'ing each one.

    Args:
        path: the WAL file path (created on first append).
        fsync: issue ``os.fsync`` after every append (the durability
            guarantee; disable only for benchmarking the syscall cost).
        injector: optional :class:`~repro.durability.faults.FaultInjector`
            whose ``pre_wal_append`` / ``torn_wal_append`` /
            ``enospc_wal_append`` / ``post_wal_append`` points instrument
            the append path.
    """

    def __init__(self, path, fsync=True, injector=None, next_lsn=1):
        self.path = path
        self.fsync = fsync
        self.injector = injector
        self.next_lsn = next_lsn
        self._file = None
        #: running counters for stats()["durability"]
        self.records_written = 0
        self.bytes_written = 0
        self.syncs = 0
        #: bytes flushed to the OS but not yet fsync'd (group commit)
        self._pending_sync = False
        #: why the writer refuses further appends (None while healthy):
        #: set when bytes of unknown state may sit in the log
        self._failure = None

    def _open(self):
        if self._file is None or self._file.closed:
            self._file = open(self.path, "ab")
        return self._file

    def append(self, body, sync=None):
        """Assign the next LSN, append the record durably, return it.

        The record only counts as written once the bytes are flushed
        (and fsync'd when enabled) — a crash before that leaves the log
        exactly as it was, or with a detectable torn tail. An ``OSError``
        from the write (disk full, IO error) leaves it exactly as it was
        too: whatever part of the line reached the file is cut off again,
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
        if self._failure is not None:
            raise WalError(self._failure)
        if self.injector is not None:
            self.injector.fire("pre_wal_append")
        body = {"v": WAL_VERSION, "lsn": self.next_lsn, **body}
        line = encode_record(body)
        handle = self._open()
        offset = handle.tell()
        try:
            if self.injector is not None:
                keep = self.injector.torn_write(len(line))
                if keep is not None:
                    handle.write(line[:keep])
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                    self.injector.torn_failure()
            handle.write(line)
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
        self.next_lsn += 1
        self.records_written += 1
        self.bytes_written += len(line)
        if self.injector is not None:
            self.injector.fire("post_wal_append")
        return body

    def _discard_partial_append(self, offset):
        """Cut the log back to ``offset`` after a failed write.

        The buffered writer is closed first and opened afresh by the
        next append: it still holds the unwritten remainder of the line
        and would re-emit it on its next flush.
        """
        try:
            try:
                self._file.close()
            except OSError:
                pass  # the same failure again, flushing the remainder
            self._cut_to(offset)
        except OSError as error:
            self._failure = (
                f"WAL {self.path!r} may hold a partial record at offset "
                f"{offset}: the append failed and the log could not be "
                f"cut back ({error}); run recovery"
            )

    def _fsync(self, handle):
        try:
            os.fsync(handle.fileno())
        except OSError as error:
            # after a failed fsync the kernel may have dropped the dirty
            # pages: what the file holds past the last good sync is
            # unknowable from here
            self._failure = (
                f"WAL {self.path!r}: fsync failed at offset "
                f"{handle.tell()} ({error}); which bytes since the last "
                f"successful fsync reached the disk is unknown; run "
                f"recovery"
            )
            raise
        self.syncs += 1

    def sync(self):
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

    def close(self):
        self.sync()  # a clean shutdown must not drop a pending batch
        if self._file is not None and not self._file.closed:
            self._file.close()
        self._file = None

    def truncate_to(self, valid_bytes):
        """Cut a torn tail off the file (used by recovery)."""
        self.close()
        if os.path.exists(self.path):
            self._cut_to(valid_bytes)

    def _cut_to(self, size):
        with open(self.path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())


# ---------------------------------------------------------------------------
# commit-record construction and replay


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
    (in name order) the deleted handles ``d``, the inserted handles with
    one value vector per schema column ``i``, the updates ``u`` grouped
    by updated-column set (column names and groups in name order) with
    one value vector per updated column, and the row count ``n`` that
    recovery verifies after replay. Handle sets are ascending ``[start, count, ...]`` runs and
    each section's vectors are gathered from columnar storage through
    one slot selection (:meth:`Table.column_vectors`). The record also carries the handle high-water
    mark ``hwm`` (handles are non-reusable across crashes too).
    """
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
    """Apply one commit record's net effect to a recovering database.

    Per table: deletes, then inserts (ascending handle order —
    allocation order), then updates, each as whole vectors through the
    database's set mutators. A table's storage order is ascending
    handle order whatever order its rows arrived in, so this reproduces
    the live database's order exactly: a commit's inserts are usually
    fresher than anything live and append, and those of a transaction
    that committed after a younger one (concurrent sessions) are merged
    into place.

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
