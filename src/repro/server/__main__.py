"""``python -m repro.server`` — stand up a server from the shell.

::

    python -m repro.server                      # in-memory, port 7432
    python -m repro.server --port 0 ./data      # durable, random port

A directory that already holds state is recovered; one written by a
build with an earlier log or checkpoint format is refused, and left as
it is. ``python -m repro.durability.dump ./data`` prints its records.
"""

from __future__ import annotations

import argparse
import os

from ..system import ActiveDatabase
from .server import serve


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve an active rule database over TCP.",
    )
    parser.add_argument("directory", nargs="?", default=None,
                        help="durability directory (omit for in-memory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7432,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--max-retries", type=int, default=5,
                        help="wholesale retries for conflicting "
                             "auto-commit statements")
    parser.add_argument("--no-group-commit", action="store_true",
                        help="fsync every commit individually")
    args = parser.parse_args(argv)

    serve(
        build_system(args.directory),
        host=args.host,
        port=args.port,
        max_retries=args.max_retries,
        group_commit=not args.no_group_commit,
    )


def build_system(directory):
    """Recover an existing durable database, or start a fresh one
    (in-memory when ``directory`` is None)."""
    if directory is not None and _has_state(directory):
        from ..durability import recover

        return recover(directory)
    return ActiveDatabase(durability=directory)


def _has_state(directory):
    from ..durability.checkpoint import CHECKPOINT_FILENAME
    from ..durability.wal import WAL_FILENAME

    if os.path.exists(os.path.join(directory, CHECKPOINT_FILENAME)):
        return True
    wal = os.path.join(directory, WAL_FILENAME)
    return os.path.exists(wal) and os.path.getsize(wal) > 0


if __name__ == "__main__":
    main()
