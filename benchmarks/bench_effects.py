"""DEF-2.1: transition-effect composition and trans-info throughput.

Micro-benchmarks for the algebraic core: folding long operation
sequences into net effects (Definition 2.1) and logging them into a
transaction's transition log, whose per-rule cursors are Figure 1's
trans-info. These are the innermost loops of rule processing, so their
cost model matters: both should be linear in the number of affected
tuples, independent of database size (they never touch stored tables),
and logging should not grow with rules that share a baseline.
"""

import pytest

from repro.core.effects import TransitionEffect, TransitionLog, compose_all
from repro.relational.dml import DeleteEffect, InsertEffect, UpdateEffect

from .conftest import print_series

SIZES = (100, 1000, 10000)


def lifecycle_ops(count, seed_offset=0):
    """insert N, update all N, delete half — a realistic churn pattern."""
    base = seed_offset * count * 10
    handles = list(range(base + 1, base + count + 1))
    row = ("row", 0)
    return [
        InsertEffect("t", tuple(handles)),
        UpdateEffect("t", ("salary",), tuple((h, row) for h in handles)),
        DeleteEffect("t", tuple((h, row) for h in handles[: count // 2])),
    ]


@pytest.mark.parametrize("size", SIZES)
def test_effect_fold(benchmark, size):
    ops = lifecycle_ops(size)
    result = benchmark(TransitionEffect.from_op_effects, ops)
    assert len(result.inserted) == size - size // 2


@pytest.mark.parametrize("rules", (1, 128))
def test_log_append(benchmark, rules):
    """One 1,000-tuple transition into a log whose rules share cursor 0
    (the start of every transaction): one composition takes it in."""
    effect = TransitionEffect.from_op_effects(lifecycle_ops(1000))

    def append():
        log = TransitionLog(f"r{i}" for i in range(rules))
        log.append(effect, None)
        return log

    log = benchmark(append)
    assert log.info("r0").size() == effect.size()


@pytest.mark.parametrize("size", SIZES)
def test_pairwise_composition(benchmark, size):
    """Composing many small effects (one per rule transition)."""
    effects = [
        TransitionEffect.from_op_effects(lifecycle_ops(10, seed_offset=i))
        for i in range(size // 10)
    ]
    benchmark(compose_all, effects)


def test_shape_linear_in_change_size(benchmark):
    benchmark.pedantic(_shape_test_shape_linear_in_change_size, rounds=1, iterations=1)


def _shape_test_shape_linear_in_change_size():
    """Folding cost should scale ~linearly with the number of tuples."""
    import time

    rows = []
    times = {}
    for size in SIZES:
        ops = lifecycle_ops(size)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            TransitionEffect.from_op_effects(ops)
            best = min(best, time.perf_counter() - start)
        times[size] = best
        rows.append(
            (size, f"{best*1e6:.0f}us", f"{best/size*1e9:.0f}ns")
        )
    print_series(
        "DEF-2.1: trans-info fold (insert N, update N, delete N/2)",
        ("tuples", "fold time", "per tuple"),
        rows,
        values={"seconds_per_fold": times},
    )
    per_small = times[SIZES[0]] / SIZES[0]
    per_large = times[SIZES[-1]] / SIZES[-1]
    assert per_large < per_small * 10, "fold should stay ~linear"
