"""Entry point of the benchmark: ``python3 benchmarks/e2e/run.py``.

``BENCHMARK.json`` names this file; ``python -m benchmarks.e2e.run``
works too. Everything lives in :mod:`harness`; this file only makes the
checkout importable when started as a script.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
))))

from benchmarks.e2e.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
