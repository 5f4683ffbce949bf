"""``python -m repro.durability.dump DIR``: a durability directory for a
reader — the checkpoint's body, then each WAL record, one JSON line
each, then :func:`~repro.durability.wal.scan_wal`'s account of the log:
its records and valid bytes, those split into frame headers and deflate
chunks, and the torn tail. It only reads.

A record prints as the scan hands it back: only the first frame of a
log states ``"v"`` and ``"lsn"``, and the scan filled them in for every
other record, numbering on from the first. A commit record without
``"hwm"`` held none: its mark is the highest handle it inserts. A
packed FLOAT vector prints as it is logged, the base64 of its doubles'
byte planes, which :func:`~repro.durability.wal.unpack_floats` reads
back."""

from __future__ import annotations

import argparse
import os

from ..errors import ReproError
from .checkpoint import read_checkpoint
from .wal import FRAME_HEADER, WAL_FILENAME, encode_json, scan_wal


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro.durability.dump")
    parser.add_argument("directory", help="a durability directory")
    directory = parser.parse_args(argv).directory
    try:
        document = read_checkpoint(directory)
        scan = scan_wal(os.path.join(directory, WAL_FILENAME))
    except ReproError as error:  # a refused or corrupt file
        parser.exit(1, f"{error}\n")
    for body in ([document] if document else []) + scan.records:
        print(encode_json(body))
    headers = FRAME_HEADER.size * len(scan.records)
    print(f"# {len(scan.records)} records in {scan.valid_bytes} bytes "
          f"({headers} of frame headers, {scan.valid_bytes - headers} of "
          f"chunks); {scan.torn_bytes} torn bytes, at least "
          f"{scan.discarded_records} whole records behind the tear")


if __name__ == "__main__":
    main()
