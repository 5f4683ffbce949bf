"""One slice: a complete mini-run of one workload in a fresh process.

timed set-up -> untimed warm-up -> measured op list -> abrupt stop ->
recovery check. ``python -m benchmarks.e2e.slice`` is started by
:mod:`harness`, never by hand; it writes one JSON document to ``--out``.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()  # before anything of repro is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from . import metrics  # noqa: E402
from .flushlog import FlushLog  # noqa: E402
from .tracing import Tracer, summarize  # noqa: E402
from .workloads import WORKLOADS, Recorder  # noqa: E402

#: recoveries timed for ``durability.recover_s`` in a traced slice
RECOVERY_REPEATS = 5


def _mismatches(rows_of, expected, where):
    problems = []
    for sql, rows in expected:
        found, rows = sorted(tuple(row) for row in rows_of(sql)), sorted(rows)
        if found != rows:
            differing = sum(a != b for a, b in zip(found, rows))
            problems.append(
                f"{where}: {sql!r} has {len(found)} rows, model "
                f"{len(rows)}; {differing} differ"
            )
    return problems


def crash_and_recover(directory, flushed, workdir, expected, repeats):
    """Recover from copies of ``directory`` cut to the flushed length.

    Returns ``(problems, best recovery seconds, records scanned)``; a
    problem is an acknowledged commit the recovered state lacks.
    """
    from repro.durability import recover
    from repro.durability.wal import WAL_FILENAME

    problems, best, records = [], None, 0
    for attempt in range(repeats):
        crashed = os.path.join(workdir, f"crashed{attempt}")
        shutil.copytree(directory, crashed)
        os.truncate(os.path.join(crashed, WAL_FILENAME), flushed)
        start = perf_counter()
        db = recover(crashed)
        seconds = perf_counter() - start
        best = seconds if best is None else min(best, seconds)
        records = db.durability.recovery["records_scanned"]
        if attempt == 0:
            problems = _mismatches(db.rows, expected, "after recovery")
        db.durability.close()
        shutil.rmtree(crashed)
    return problems, best, records


def run_slice(args):
    from repro.durability.wal import WAL_FILENAME

    directory = os.path.join(args.workdir, "data")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, tracer)
    flush_log = FlushLog(os.path.join(directory, WAL_FILENAME)).install()

    try:
        return _measure(args, workload, tracer, flush_log, directory)
    finally:
        workload.stop()  # never leave a server child behind


def _measure(args, workload, tracer, flush_log, directory):
    with tracer.root("setup", "setup") if tracer else nullcontext():
        workload.setup(directory, args.workdir)
    setup_s = perf_counter() - _PROCESS_START

    warm_rounds, rounds = workload.rounds(args.seconds)
    warm = Recorder(tracer)
    workload.run(warm_rounds, warm)
    before = workload.stats()
    measured_from = len(tracer.spans) if tracer else 0
    recorder = Recorder(tracer, first_op=warm.next_op)
    started = perf_counter()
    workload.run(rounds, recorder)
    op_list_s = perf_counter() - started
    workload.sample_rss()
    after = workload.stats()

    expected = workload.expected_state()
    problems = _mismatches(workload.rows, expected, "live")
    workload.stop()
    flushed = workload.flushed_length()
    if flushed is None:
        flushed = flush_log.flushed
    lost, recover_s, records = crash_and_recover(
        directory, flushed, args.workdir, expected,
        RECOVERY_REPEATS if args.trace else 1,
    )
    problems += lost
    checkpoint_s = workload.checkpoint() if tracer else 0.0

    delta = metrics.StatsDelta(before, after)
    problems += workload.check_stats(delta)
    writes, reads = recorder.latencies["write"], recorder.latencies["read"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "wal_dir_fs": filesystem_of(directory),
        # wall seconds of the op list, housekeeping and model included
        "op_list_s": op_list_s,
        "attempted": warm.attempted + recorder.attempted,
        "failed": warm.failed + recorder.failed + len(problems),
        "failures": (warm.failures + recorder.failures + problems)[:8],
        "signature": [len(recorder.signature), recorder.signature[-1]]
        if workload.single_threaded else None,
        "end_to_end": metrics.end_to_end(
            setup_s, delta, workload.peak_rss_mb),
        "client": metrics.client(writes, reads, recorder.op_seconds()),
    }
    if tracer is not None:
        spans = tracer.export()
        result["per_layer"] = metrics.per_layer(
            summarize(spans, first=measured_from),
            summarize(spans, last=measured_from),
            len(writes) + len(reads), delta, recover_s, records,
            checkpoint_s,
        )
        with open(args.trace_out, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "measured_from": measured_from, "spans": spans},
                      handle)
    return result


def filesystem_of(path):
    """Type of the filesystem that holds ``path`` (``wal_dir_fs``)."""
    path, best, kind = os.path.realpath(path), "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            _, mount, fs_type = line.split()[:3]
            if len(mount) > len(best) and (
                    path == mount
                    or path.startswith(mount.rstrip("/") + "/")):
                best, kind = mount, fs_type
    return kind


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.slice")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    result = run_slice(args)
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
