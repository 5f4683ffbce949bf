"""The stock ``python -m repro.server`` CLI with the flush log installed.

``python -m benchmarks.e2e.server_child MIRROR [server args...]`` runs
``repro.server.__main__.main`` unchanged; the only difference from the
shipped command is that ``os.fsync`` also mirrors the WAL's flushed
length to ``MIRROR`` (see :mod:`flushlog`), which the durability check
needs because this process is stopped with SIGKILL.
"""

from __future__ import annotations

import os
import sys

from .flushlog import FlushLog


def main(argv):
    mirror_path, server_args = argv[0], argv[1:]
    from repro.durability.wal import WAL_FILENAME
    from repro.server.__main__ import main as serve_main

    directory = next(arg for arg in server_args if not arg.startswith("-"))
    FlushLog(os.path.join(directory, WAL_FILENAME), mirror_path).install()
    serve_main(server_args)


if __name__ == "__main__":
    main(sys.argv[1:])
