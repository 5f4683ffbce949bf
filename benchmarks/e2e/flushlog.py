"""Remember how long the WAL was when it was last flushed.

Killing a process leaves the operating system's cache intact, so a
crash test that recovers from the whole file proves nothing about
fsync. :class:`FlushLog` replaces ``os.fsync`` in the process hosting
the engine and records the WAL's length after each real fsync; the
durability check recovers from a copy truncated to that length, which
discards exactly the bytes a power failure could have lost.
"""

from __future__ import annotations

import mmap
import os
import struct


class FlushLog:
    """``os.fsync`` replacement that tracks one file's flushed length.

    Args:
        wal_path: the file to watch (it need not exist yet).
        mirror_path: optional file that receives the flushed length as
            8 bytes through a shared mapping, so a parent process can
            read it after this process was killed.
    """

    def __init__(self, wal_path, mirror_path=None):
        self.wal_path = wal_path
        self.flushed = 0
        self._inode = None
        self._fsync = os.fsync
        self._mirror = None
        if mirror_path is not None:
            with open(mirror_path, "wb") as handle:
                handle.write(bytes(8))
            with open(mirror_path, "r+b") as handle:
                self._mirror = mmap.mmap(handle.fileno(), 8)

    def install(self):
        os.fsync = self
        return self

    def __call__(self, fd):
        self._fsync(fd)
        status = os.fstat(fd)
        if self._inode is None:
            try:
                self._inode = os.stat(self.wal_path).st_ino
            except FileNotFoundError:
                return
        if status.st_ino == self._inode:
            self.flushed = status.st_size
            if self._mirror is not None:
                struct.pack_into("<q", self._mirror, 0, status.st_size)


def read_mirror(mirror_path):
    """The flushed length a (possibly killed) process last mirrored."""
    with open(mirror_path, "rb") as handle:
        return struct.unpack("<q", handle.read(8))[0]
