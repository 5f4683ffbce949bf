"""Metric names and how each is computed from one slice's observations.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` must
agree with (test_smoke.py checks it). ``END_TO_END`` holds what is
gated: the values that repeat on a shared machine. The client-observed
timings (``client.*``) are raw wall-clock values of untraced slices and
are reported but not gated, because identical code moves them by more
than any bound worth having (README, "Measured noise"). The other
per-layer values come from a traced slice's spans (see :mod:`tracing`)
and the public ``stats()`` sections. A per-layer metric whose layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wal_bytes_per_commit": ("bytes", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "sql.parse_us_per_op": ("us", "lower"),
    "analysis.define_rule_s": ("s", "lower"),
    "relational.plan_us_per_op": ("us", "lower"),
    "relational.plan_cache_hit_ratio": ("ratio", "higher"),
    "relational.compile_cache_hit_ratio": ("ratio", "higher"),
    "relational.select_us_per_op": ("us", "lower"),
    "relational.dml_us_per_op": ("us", "lower"),
    "relational.batch_rows_per_op": ("count", "lower"),
    "relational.batch_fallback_row_ratio": ("ratio", "lower"),
    "relational.zones_pruned_ratio": ("ratio", "higher"),
    "relational.rows_visited_per_row_returned": ("ratio", "lower"),
    "core.block_us_per_op": ("us", "lower"),
    "core.commit_us_per_op": ("us", "lower"),
    "core.condition_us_per_op": ("us", "lower"),
    "core.action_us_per_op": ("us", "lower"),
    "core.selection_us_per_op": ("us", "lower"),
    "core.considerations_per_txn": ("count", "lower"),
    "core.firings_per_txn": ("count", "lower"),
    "core.incremental_us_per_op": ("us", "lower"),
    "core.incremental_hit_ratio": ("ratio", "higher"),
    "concurrency.op_us_per_op": ("us", "lower"),
    "concurrency.switches_per_commit": ("count", "lower"),
    "concurrency.conflict_retries_per_commit": ("count", "lower"),
    "durability.log_commit_us_per_commit": ("us", "lower"),
    "durability.flush_us_per_commit": ("us", "lower"),
    "durability.fsyncs_per_commit": ("count", "lower"),
    "durability.checkpoints": ("count", "lower"),
    "durability.checkpoint_s": ("s", "lower"),
    "durability.recover_s": ("s", "lower"),
    "durability.recover_us_per_record": ("us", "lower"),
    "server.wire_us_per_op": ("us", "lower"),
    "server.encode_us_per_op": ("us", "lower"),
    "client.ops_per_s": ("1/s", "higher"),
    "client.write_p50_ms": ("ms", "lower"),
    "client.read_p50_ms": ("ms", "lower"),
    "client.write_p95_ms": ("ms", "lower"),
    "client.read_p95_ms": ("ms", "lower"),
    "client.write_p99_ms": ("ms", "lower"),
    "client.write_max_ms": ("ms", "lower"),
    "client.write_samples": ("count", "higher"),
    "client.read_samples": ("count", "higher"),
    "client.slice_spread": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.unattributed_share": ("ratio", "lower"),
}

_COORDINATOR = tuple(
    f"TransactionCoordinator.{method}"
    for method in ("execute", "query", "begin", "commit")
)
_PROTOCOL = (
    "protocol.parse_request", "protocol.encode_response",
    "protocol.render_result",
)


def percentile(ordered, fraction):
    """Nearest-rank percentile of an already sorted list (0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(int(len(ordered) * fraction + 0.5) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class StatsDelta:
    """Difference of two ``stats()`` snapshots, section by section."""

    def __init__(self, before, after):
        self.before, self.after = before, after

    def __call__(self, section, key):
        after = self.after.get(section) or {}
        before = self.before.get(section) or {}
        return after.get(key, 0) - before.get(key, 0)

    def rules(self, key):
        """A per-rule counter summed over all rules."""
        def total(snapshot):
            return sum(
                rule.get(key, 0)
                for rule in (snapshot.get("rules") or {}).values()
            )
        return total(self.after) - total(self.before)


def end_to_end(setup_s, delta, peak_rss_mb):
    """The gated metrics of one slice."""
    return {
        "setup_s": setup_s,
        "wal_bytes_per_commit": _ratio(
            delta("durability", "wal_bytes"),
            delta("durability", "commits_logged"),
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def client(writes, reads, op_seconds):
    """What the client observed in one slice: throughput, medians and
    tails with their sample counts. ``writes`` and ``reads`` are
    latencies in seconds, ``op_seconds`` the time they were issued in."""
    writes, reads = sorted(writes), sorted(reads)
    return {
        "client.ops_per_s": _ratio(len(writes) + len(reads), op_seconds),
        "client.write_p50_ms": 1e3 * percentile(writes, 0.5),
        "client.read_p50_ms": 1e3 * percentile(reads, 0.5),
        "client.write_p95_ms": 1e3 * percentile(writes, 0.95),
        "client.read_p95_ms": 1e3 * percentile(reads, 0.95),
        "client.write_p99_ms": 1e3 * percentile(writes, 0.99),
        "client.write_max_ms": 1e3 * (writes[-1] if writes else 0.0),
        "client.write_samples": len(writes),
        "client.read_samples": len(reads),
    }


def per_layer(spans, setup_spans, ops, delta, recover_s, recover_records,
              checkpoint_s):
    """Layer metrics of one traced slice.

    ``spans`` / ``setup_spans`` are :func:`tracing.summarize` outputs for
    the measured op list and for set-up; ``delta`` is the
    :class:`StatsDelta` over the op list.
    """
    def total(*names):
        return sum(spans.get(name, {}).get("total", 0.0) for name in names)

    def own(*names):
        return sum(spans.get(name, {}).get("self", 0.0) for name in names)

    def us_per_op(seconds):
        return 1e6 * _ratio(seconds, ops)

    commits = delta("durability", "commits_logged")
    transactions = delta("engine", "transactions")
    roots = ("op.write", "op.read")
    requests = total("ReproClient.request")
    wire = requests - total(*_COORDINATOR, *_PROTOCOL,
                            "DurabilityManager.flush")
    return {
        "sql.parse_us_per_op": us_per_op(
            total("parse_statement", "parse_select")),
        "analysis.define_rule_s": setup_spans.get(
            "RuleEngine.define_rule", {}).get("total", 0.0),
        "relational.plan_us_per_op": us_per_op(total("PlanCache.plan_for")),
        "relational.plan_cache_hit_ratio": _ratio(
            delta("planner", "plan_cache_hits"),
            delta("planner", "plan_cache_hits")
            + delta("planner", "plan_cache_misses")),
        "relational.compile_cache_hit_ratio": _ratio(
            delta("compiler", "cache_hits"),
            delta("compiler", "cache_hits")
            + delta("compiler", "cache_misses")),
        "relational.select_us_per_op": us_per_op(own(
            "evaluate_select", "execute_source", "execute_source_batched")),
        "relational.dml_us_per_op": us_per_op(
            own("DmlExecutor.execute_operation")),
        "relational.batch_rows_per_op": _ratio(
            delta("vectorized", "rows_scanned"), ops),
        "relational.batch_fallback_row_ratio": _ratio(
            delta("vectorized", "fallback_rows")
            + delta("vectorized", "row_fallbacks"),
            delta("vectorized", "rows_scanned")),
        "relational.zones_pruned_ratio": _ratio(
            delta("optimizer", "zones_pruned"),
            delta("optimizer", "zones_considered")),
        "relational.rows_visited_per_row_returned": _ratio(
            delta("planner", "rows_visited"),
            delta("planner", "rows_returned")),
        "core.block_us_per_op": us_per_op(own("RuleEngine.execute_block")),
        "core.commit_us_per_op": us_per_op(own("RuleEngine.commit")),
        "core.condition_us_per_op": us_per_op(
            delta.rules("condition_time")),
        "core.action_us_per_op": us_per_op(
            delta.rules("action_time")),
        "core.selection_us_per_op": us_per_op(
            delta("engine", "selection_time")),
        "core.considerations_per_txn": _ratio(
            delta("engine", "considerations"), transactions),
        "core.firings_per_txn": _ratio(
            delta("engine", "rule_transitions"), transactions),
        "core.incremental_us_per_op": us_per_op(total(
            "IncrementalManager.evaluate",
            "IncrementalManager.apply_transition")),
        "core.incremental_hit_ratio": _ratio(
            delta("incremental", "hits"),
            delta("incremental", "hits")
            + delta("incremental", "refreshes")
            + delta("incremental", "fallbacks")),
        "concurrency.op_us_per_op": us_per_op(own(*_COORDINATOR)),
        "concurrency.switches_per_commit": _ratio(
            delta("server", "switches"), delta("server", "commits")),
        "concurrency.conflict_retries_per_commit": _ratio(
            delta("server", "conflicts"), delta("server", "commits")),
        "durability.log_commit_us_per_commit": 1e6 * _ratio(
            total("DurabilityManager.log_commit"), commits),
        "durability.flush_us_per_commit": 1e6 * _ratio(
            total("DurabilityManager.flush"), commits),
        "durability.fsyncs_per_commit": _ratio(
            delta("durability", "wal_syncs"), commits),
        "durability.checkpoints": delta("durability", "checkpoints"),
        "durability.checkpoint_s": checkpoint_s,
        "durability.recover_s": recover_s,
        "durability.recover_us_per_record": 1e6 * _ratio(
            recover_s, recover_records),
        "server.wire_us_per_op": us_per_op(wire if requests else 0.0),
        "server.encode_us_per_op": us_per_op(total(
            "protocol.encode_response", "protocol.render_result")),
        "trace.unattributed_share": _ratio(own(*roots), total(*roots)),
    }
