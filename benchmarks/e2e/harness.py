"""Schedule slices, reduce them to metrics, print and check.

A *run* of one workload is ``SLICES`` slices with the same seed, each a
fresh subprocess (see :mod:`slice`) that executes the same fixed op
list. The gated values are ``setup_s``, the median of the slices'
set-ups, and the smallest ``wal_bytes_per_commit`` and ``peak_rss_mb``.
The client-observed timings (``client.*``, ungated) are those of the
best slice: on a shared machine a noisy neighbour can only slow a slice
down, while a stall the program causes (GC, checkpoint) recurs in every
slice and stays visible. Span-derived per-layer values come from one
traced slice and are never mixed into the others.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

from . import metrics
from .workloads import REPO_ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")


def work_root():
    """Where a slice keeps its WAL directory and writes its result.

    tmpfs, so the numbers show how many bytes and flushes the program
    issues, not the latency of a shared disk (measured here: the median
    ``fsync`` of the checkout's disk moves between 0.2 and 2.4 ms from
    one second to the next). Without a writable ``/dev/shm`` the scratch
    directory is inside the checkout; either way a slice's directory is
    removed when the slice ends, and its result records the filesystem
    as ``wal_dir_fs``.
    """
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK | os.X_OK):
        return "/dev/shm"
    root = os.path.join(HERE, ".work")
    os.makedirs(root, exist_ok=True)
    return root


SLICES = 5
#: a slice that takes longer than this is killed and fails the run
SLICE_TIMEOUT = 60
#: the layer gates the ROADMAP's "collapse the evaluator stack" item
#: wants priced end to end (``--ablate``)
ABLATIONS = (
    "REPRO_COMPILED_EVAL", "REPRO_VECTORIZED_EVAL", "REPRO_TYPED_KERNELS",
    "REPRO_COST_PLANNER", "REPRO_INCREMENTAL_EVAL",
)


def run_slice(workload, seed, seconds, trace=False, env_overrides=None):
    """One slice in a fresh process; returns its result document."""
    workdir = tempfile.mkdtemp(prefix=f"repro-e2e-{workload}-",
                               dir=work_root())
    out = os.path.join(workdir, "result.json")
    # the system as shipped: no REPRO_* switch reaches the slice
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.update(env_overrides or {})
    command = [
        sys.executable, "-m", "benchmarks.e2e.slice",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--workdir", workdir, "--out", out,
    ]
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(RESULTS, f"trace_{workload}.json")]
    # its own process group, so a slice that hangs is killed together
    # with the server child it may have started
    process = subprocess.Popen(command, cwd=REPO_ROOT, env=env,
                               start_new_session=True)
    try:
        if process.wait(timeout=SLICE_TIMEOUT) != 0:
            raise subprocess.CalledProcessError(process.returncode, command)
        with open(out) as handle:
            return json.load(handle)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def reduce_run(slices, traced=None):
    """Fold one workload's slices into its reported metrics and checks.

    Returns ``{"end_to_end", "per_layer", "attempted", "failed",
    "problems", "slices", "wal_dir_fs"}``. ``per_layer`` always holds
    the ``client.*`` values of the best slice; the span-derived values
    need a traced slice.
    """
    end_to_end = {
        name: (statistics.median if name == "setup_s" else min)(
            [piece["end_to_end"][name] for piece in slices])
        for name in metrics.END_TO_END
    }
    everything = slices + ([traced] if traced else [])
    problems = [
        message for piece in everything for message in piece["failures"]
    ]
    failed = sum(piece["failed"] for piece in everything)
    signatures = [piece["signature"] for piece in everything
                  if piece["signature"]]
    if len({tuple(signature) for signature in signatures}) > 1:
        # same seed, same op list: single-threaded slices must agree on
        # every count
        failed += 1
        problems.append("slices of one seed disagree on their counts")
    rates = [piece["client"]["client.ops_per_s"] for piece in slices]
    per_layer = dict(slices[rates.index(max(rates))]["client"])
    per_layer["client.slice_spread"] = max(rates) / min(rates)
    if traced:
        per_layer.update(traced["per_layer"])
        per_layer["trace.overhead_ratio"] = (
            traced["client"]["client.ops_per_s"] / max(rates)
        )
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": sum(piece["attempted"] for piece in everything),
        "failed": failed,
        "problems": problems,
        "slices": [{**piece["end_to_end"], **piece["client"],
                    "op_list_s": piece["op_list_s"]} for piece in slices],
        "wal_dir_fs": slices[0]["wal_dir_fs"],
    }


def run_workloads(names, seed, seconds, trace, untraced=SLICES):
    """Run ``names`` with their slices interleaved round-robin
    (``W1s1 W2s1 ... W1s2 ...``), so each workload is sampled at
    separated times. ``seconds`` is what ``SLICES`` slices measure."""
    per_slice = seconds / SLICES
    slices = {name: [] for name in names}
    for _ in range(untraced):
        for name in names:
            slices[name].append(run_slice(name, seed, per_slice))
    traced = {name: None for name in names}
    if trace:
        for name in names:
            traced[name] = run_slice(name, seed, per_slice, trace=True)
    return {name: reduce_run(slices[name], traced[name])
            for name in names}


def print_metrics(workload, run):
    for group, units in (("end_to_end", metrics.END_TO_END),
                         ("per_layer", metrics.PER_LAYER)):
        for name, value in run[group].items():
            print(f"{workload:18} {name:42} {value:>16.6g} {units[name][0]}")
    print(f"{workload:18} {'attempted_ops':42} {run['attempted']:>16d} count")
    print(f"{workload:18} {'failed_ops':42} {run['failed']:>16d} count")
    for problem in run["problems"]:
        print(f"{workload:18} FAILED: {problem}")


def contract_line(run, trace):
    """The driver's result object: end-to-end metrics without tracing,
    per-layer metrics with it."""
    group, units = (("per_layer", metrics.PER_LAYER) if trace
                    else ("end_to_end", metrics.END_TO_END))
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run[group][name], "unit": units[name][0]}
            for name in units
        },
    })


def _write_json(name, document):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def repeat(names, seed, seconds, count):
    """``--repeat``: the whole benchmark ``count`` times; per (metric,
    workload) median, min, max and largest deviation from the median,
    for the gated metrics and the ungated ``client.*`` ones alike."""
    samples, failed = {}, 0
    for _ in range(count):
        for name, run in run_workloads(names, seed, seconds, False).items():
            failed += run["failed"]
            for metric, value in {**run["end_to_end"],
                                  **run["per_layer"]}.items():
                samples.setdefault(name, {}).setdefault(metric, []).append(
                    value)
    noise = {}
    for name, by_metric in samples.items():
        for metric, values in by_metric.items():
            median = statistics.median(values)
            noise.setdefault(name, {})[metric] = {
                "median": median, "min": min(values), "max": max(values),
                "max_deviation": max(
                    abs(value - median) for value in values) / median,
                "values": values,
            }
    return {"seed": seed, "seconds": seconds, "repeats": count,
            "failed_ops": failed, "noise": noise}


def ablate(names, seed, seconds):
    """``--ablate``: one extra slice per workload with each layer gate
    forced off; change of the gated and the ``client.*`` values against
    an as-shipped slice (one slice each, so read the timings with the
    noise table in mind)."""
    per_slice = seconds / SLICES
    table = {}
    for name in names:
        base = run_slice(name, seed, per_slice)
        base = {**base["end_to_end"], **base["client"]}
        table[name] = {"as_shipped": base}
        for gate in ABLATIONS:
            off = run_slice(name, seed, per_slice,
                            env_overrides={gate: "0"})
            table[name][gate + "=0"] = {
                metric: {"value": value,
                         "change": value / base[metric] - 1.0}
                for metric, value in {**off["end_to_end"],
                                      **off["client"]}.items()
            }
            table[name][gate + "=0"]["failed_ops"] = off["failed"]
    return {"seed": seed, "seconds_per_slice": per_slice, "ablation": table}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.run",
        description="The repo's end-to-end benchmark.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all five, slices "
                             "interleaved, results written to results/)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="seconds one workload measures, over all "
                             "its slices")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 1 reports the per-layer "
                             "metrics of a traced run, 0 the end-to-end "
                             "metrics (default: both)")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run everything N times, write "
                             "results/noise.json")
    parser.add_argument("--ablate", action="store_true",
                        help="price each layer gate end to end, write "
                             "results/ablation.json")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    # a terminated benchmark still stops and removes its running slice
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.repeat:
        print(_write_json("noise.json", repeat(
            names, args.seed, args.seconds, args.repeat)))
        return 0
    if args.ablate:
        print(_write_json("ablation.json", ablate(
            names, args.seed, args.seconds)))
        return 0

    # the driver's traced run fits the same time as its untraced one:
    # the traced slice takes the place of one of the untraced ones
    runs = run_workloads(
        names, args.seed, args.seconds, trace=args.trace != 0,
        untraced=SLICES - 1 if args.trace == 1 else SLICES,
    )
    for name, run in runs.items():
        print_metrics(name, run)
    if not args.workload:
        print(_write_json(f"e2e_seed{args.seed}.json", {
            "seed": args.seed, "seconds": args.seconds,
            "workloads": runs,
        }))
    elif args.trace is not None:
        print(contract_line(runs[args.workload], args.trace))
    return 1 if any(run["failed"] for run in runs.values()) else 0
