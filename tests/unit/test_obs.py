"""Unit tests for the observability layer (repro.obs).

Covers the event vocabulary, the sinks, the bus dispatch rules, the
metrics collector, and the engine-facing ``stats()`` surface.
"""

import io
import json

import pytest

from repro import ActiveDatabase
from repro.core.effects import TableEffect, TransitionEffect
from repro.obs import (
    Event,
    EventBus,
    EventKind,
    EventSink,
    JsonLinesSink,
    MetricsCollector,
    NullSink,
    RingBufferSink,
)


def make_event(seq=1, kind=EventKind.TXN_BEGIN, txn=1, **data):
    return Event(seq=seq, kind=kind, txn=txn, data=data)


class CommitsOnly(RingBufferSink):
    kinds = frozenset({EventKind.TXN_COMMIT})


class TestEvent:
    def test_to_json_dict_primitives_pass_through(self):
        event = make_event(kind=EventKind.QUIESCENT, rounds=3, time=0.5)
        rendered = event.to_json_dict()
        assert rendered == {
            "seq": 1,
            "kind": "quiescent",
            "txn": 1,
            "data": {"rounds": 3, "time": 0.5},
        }
        json.dumps(rendered)  # must be serializable

    def test_to_json_dict_flattens_live_objects(self):
        effect = TransitionEffect({"emp": TableEffect(
            inserted={1, 2}, deleted={3},
            updated={4: frozenset({"salary"})},
        )})
        seen = {"deleted emp": [("Jane",), ("Mary",)]}
        event = make_event(
            kind=EventKind.RULE_FIRED, effect=effect, seen=seen
        )
        rendered = event.to_json_dict()
        assert rendered["data"]["effect"] == effect.summary()
        assert rendered["data"]["seen"] == {"deleted emp": 2}
        json.dumps(rendered)

    def test_describe_is_one_line(self):
        event = make_event(kind=EventKind.RULE_CONSIDERED, rule="r1")
        line = event.describe()
        assert "\n" not in line
        assert "rule_considered" in line
        assert "rule=r1" in line

    def test_kind_vocabulary_is_complete(self):
        assert set(EventKind.ALL) == {
            "txn_begin", "txn_commit", "txn_abort", "block_executed",
            "rule_considered", "rule_fired", "trans_info_reset",
            "rollback_by_rule", "loop_budget_trip", "quiescent",
            "wal_append", "checkpoint", "recovery", "lint_diagnostic",
            "session_open", "session_close", "txn_conflict", "txn_retry",
        }


class TestEventBus:
    def test_emit_dispatches_in_attach_order_with_monotone_seq(self):
        bus = EventBus()
        first, second = RingBufferSink(), RingBufferSink()
        bus.attach(first)
        bus.attach(second)
        bus.emit(EventKind.TXN_BEGIN, 1, {})
        bus.emit(EventKind.TXN_COMMIT, 1, {})
        assert [e.seq for e in first.events] == [1, 2]
        assert [e.kind for e in second.events] == ["txn_begin", "txn_commit"]

    def test_disabled_sink_is_never_attached(self):
        bus = EventBus()
        null = bus.attach(NullSink())
        assert isinstance(null, NullSink)
        assert bus.sinks == ()  # never enters the dispatch list

    def test_detach_is_idempotent(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        bus.detach(sink)
        bus.detach(sink)  # no error
        bus.emit(EventKind.TXN_BEGIN, 1, {})
        assert len(sink) == 0

    def test_a_sink_takes_its_kinds_and_seq_stays_bus_global(self):
        bus = EventBus()
        everything = bus.attach(RingBufferSink())
        commits = bus.attach(CommitsOnly())
        for kind in (EventKind.TXN_BEGIN, EventKind.TXN_COMMIT,
                     EventKind.LINT_DIAGNOSTIC, EventKind.TXN_COMMIT):
            bus.emit(kind, 1, {})
        assert [e.seq for e in commits.events] == [2, 4]
        assert [e.seq for e in everything.events] == [1, 2, 3, 4]
        assert bus.events_emitted == 4

    def test_wants_follows_attach_and_detach(self):
        bus = EventBus()
        assert not any(bus.wants(kind) for kind in EventKind.ALL)
        commits = bus.attach(CommitsOnly())
        assert [k for k in EventKind.ALL if bus.wants(k)] == ["txn_commit"]
        everything = bus.attach(RingBufferSink())
        assert all(bus.wants(kind) for kind in EventKind.ALL)
        bus.detach(everything)
        assert [k for k in EventKind.ALL if bus.wants(k)] == ["txn_commit"]
        bus.detach(commits)
        assert not bus.wants(EventKind.TXN_COMMIT)
        bus.emit(EventKind.TXN_COMMIT, 1, {})  # nobody takes it
        assert bus.events_emitted == 1

    def test_a_disabled_sink_wants_nothing(self):
        bus = EventBus()
        bus.attach(NullSink())
        assert not bus.wants(EventKind.LINT_DIAGNOSTIC)

    def test_the_engines_own_consumers_do_not_take_lint(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")  # the recorder came and went
        assert not db.engine._bus.wants(EventKind.LINT_DIAGNOSTIC)
        assert db.engine._bus.wants(EventKind.TXN_COMMIT)  # metrics


class TestRingBufferSink:
    def test_evicts_oldest_beyond_capacity(self):
        sink = RingBufferSink(capacity=3)
        for seq in range(1, 6):
            sink.emit(make_event(seq=seq))
        assert [e.seq for e in sink.events] == [3, 4, 5]
        assert len(sink) == 3

    def test_of_kind_and_kind_counts(self):
        sink = RingBufferSink()
        sink.emit(make_event(seq=1, kind=EventKind.TXN_BEGIN))
        sink.emit(make_event(seq=2, kind=EventKind.RULE_FIRED, rule="r"))
        sink.emit(make_event(seq=3, kind=EventKind.TXN_COMMIT))
        assert [e.seq for e in sink.of_kind(EventKind.RULE_FIRED)] == [2]
        assert sink.kind_counts() == {
            "txn_begin": 1, "rule_fired": 1, "txn_commit": 1,
        }

    def test_clear(self):
        sink = RingBufferSink()
        sink.emit(make_event())
        sink.clear()
        assert len(sink) == 0 and sink.events == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonLinesSink:
    def test_writes_one_json_object_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesSink(path) as sink:
            sink.emit(make_event(seq=1))
            sink.emit(make_event(seq=2, kind=EventKind.TXN_COMMIT))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == [1, 2]
        assert records[1]["kind"] == "txn_commit"
        assert sink.emitted == 2

    def test_accepts_write_object(self):
        buffer = io.StringIO()
        sink = JsonLinesSink(buffer)
        sink.emit(make_event())
        sink.close()  # must not close a caller-owned stream
        assert json.loads(buffer.getvalue())["kind"] == "txn_begin"

    def test_a_closed_sink_appends_what_it_is_fed_next(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonLinesSink(path)
        db = ActiveDatabase(sink=sink)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        sink.close()
        db.execute("insert into t values (2)")
        sink.close()
        lines = path.read_text().splitlines()
        assert sink.emitted > 0 and len(lines) == sink.emitted
        assert [json.loads(line)["seq"] for line in lines] \
            == list(range(1, sink.emitted + 1))

    def test_lazy_open_writes_nothing_without_events(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonLinesSink(path).close()
        assert not path.exists()


class TestMetricsCollector:
    def test_counts_follow_the_event_stream(self):
        collector = MetricsCollector()
        collector.emit(make_event(seq=1, kind=EventKind.TXN_BEGIN))
        collector.emit(make_event(
            seq=2, kind=EventKind.RULE_CONSIDERED, rule="r1",
            condition=True, duration=0.25, trans_info_size=4,
        ))
        collector.emit(make_event(
            seq=3, kind=EventKind.RULE_FIRED, rule="r1", duration=0.5,
            effect=TransitionEffect({"t": TableEffect(deleted={1, 2})}),
            trans_info_size=2,
        ))
        collector.emit(make_event(
            seq=4, kind=EventKind.TRANS_INFO_RESET, rule="r1",
            cause="execution",
        ))
        collector.emit(make_event(
            seq=5, kind=EventKind.QUIESCENT, rounds=2, selection_time=0.1,
        ))
        collector.emit(make_event(seq=6, kind=EventKind.TXN_COMMIT))
        stats = collector.snapshot(strategy="priority")
        engine = stats["engine"]
        assert engine["transactions"] == 1
        assert engine["commits"] == 1
        assert engine["considerations"] == 1
        assert engine["rule_transitions"] == 1
        assert engine["quiescence_rounds"] == 2
        assert engine["peak_trans_info_size"] == 4
        assert engine["strategy"] == "priority"
        rule = stats["rules"]["r1"]
        assert rule["considerations"] == 1
        assert rule["fires"] == 1
        assert rule["condition_true"] == 1
        assert rule["condition_time"] == 0.25
        assert rule["action_time"] == 0.5
        assert rule["rows_deleted"] == 2
        assert rule["resets"] == {"execution": 1}

    def test_reset_zeroes_everything(self):
        collector = MetricsCollector()
        collector.emit(make_event(kind=EventKind.TXN_BEGIN))
        collector.reset()
        stats = collector.snapshot()
        assert stats["engine"]["transactions"] == 0
        assert stats["rules"] == {}


class TestEngineStats:
    def test_simple_transaction_counters(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute(
            "create rule mirror when inserted into t "
            "then delete from t where false"
        )
        db.execute("insert into t values (1), (2)")
        stats = db.stats()
        assert stats["engine"]["transactions"] == 1
        assert stats["engine"]["commits"] == 1
        assert stats["engine"]["external_blocks"] == 1
        assert stats["engine"]["rule_transitions"] == 1
        assert stats["rules"]["mirror"]["fires"] == 1
        assert stats["rules"]["mirror"]["considerations"] >= 1
        assert stats["rules"]["mirror"]["condition_time"] >= 0.0

    def test_reset_stats_opens_a_fresh_window(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        assert db.stats()["engine"]["transactions"] == 1
        db.reset_stats()
        assert db.stats()["engine"]["transactions"] == 0
        db.execute("insert into t values (2)")
        assert db.stats()["engine"]["transactions"] == 1

    def test_abort_and_rollback_by_rule_counted(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        db.execute(
            "create rule veto when inserted into t "
            "if exists (select * from t where x < 0) then rollback"
        )
        result = db.execute("insert into t values (-1)")
        assert result.rolled_back
        stats = db.stats()
        assert stats["engine"]["aborts"] == 1
        assert stats["engine"]["rollbacks_by_rule"] == 1
        assert stats["rules"]["veto"]["rollbacks"] == 1

    def test_loop_budget_trip_counted(self):
        from repro.errors import RuleLoopError

        db = ActiveDatabase(max_rule_transitions=3)
        db.execute("create table t (x integer)")
        db.execute(
            "create rule feedback when inserted into t "
            "then insert into t (select x + 1 from inserted t)"
        )
        with pytest.raises(RuleLoopError):
            db.execute("insert into t values (1)")
        assert db.stats()["engine"]["loop_budget_trips"] == 1


class TestSinkWiring:
    def test_constructor_sink_sees_the_whole_stream(self):
        sink = RingBufferSink()
        db = ActiveDatabase(sink=sink)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        kinds = [event.kind for event in sink.events]
        assert kinds[0] == EventKind.TXN_BEGIN
        assert EventKind.BLOCK_EXECUTED in kinds
        assert kinds[-1] == EventKind.TXN_COMMIT

    def test_attach_detach_mid_session(self):
        db = ActiveDatabase()
        db.execute("create table t (x integer)")
        sink = db.attach_sink(RingBufferSink())
        db.execute("insert into t values (1)")
        seen = len(sink)
        assert seen > 0
        db.detach_sink(sink)
        db.execute("insert into t values (2)")
        assert len(sink) == seen

    def test_null_sink_costs_nothing(self):
        db = ActiveDatabase(sink=NullSink())
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        # disabled sinks are dropped at attach; only metrics/trace consume
        assert db.stats()["engine"]["transactions"] == 1

    def test_custom_sink_subclass(self):
        class CountingSink(EventSink):
            def __init__(self):
                self.count = 0

            def emit(self, event):
                self.count += 1

        db = ActiveDatabase()
        sink = db.attach_sink(CountingSink())
        db.execute("create table t (x integer)")
        db.execute("create rule r when deleted from t then insert into u "
                   "values (1)")  # one RPL001 finding for the sink
        db.execute("insert into t values (1)")
        assert sink.count == db.stats()["engine"]["events"]

    def test_a_narrow_sink_sees_its_kinds_and_the_count_sees_all(self):
        db = ActiveDatabase()
        commits = db.attach_sink(CommitsOnly())
        everything = db.attach_sink(RingBufferSink())
        db.execute("create table t (x integer)")
        db.execute("create rule r when deleted from t then insert into u "
                   "values (1)")
        db.execute("insert into t values (1)")
        assert [e.kind for e in commits] == [EventKind.TXN_COMMIT]
        assert [e.seq for e in commits] == [
            e.seq for e in everything.of_kind(EventKind.TXN_COMMIT)]
        assert everything.kind_counts()[EventKind.LINT_DIAGNOSTIC] == 1
        assert db.stats()["engine"]["events"] == len(everything)
        db.reset_stats()
        before = len(everything)
        db.execute("insert into t values (2)")
        assert db.stats()["engine"]["events"] == len(everything) - before

    def test_json_lines_sink_end_to_end(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        sink = JsonLinesSink(path)
        db = ActiveDatabase(sink=sink)
        db.execute("create table t (x integer)")
        db.execute(
            "create rule mirror when inserted into t "
            "then delete from t where false"
        )
        db.execute("insert into t values (1)")
        sink.close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [r["kind"] for r in records][:2] == [
            "txn_begin", "block_executed",
        ]
        fired = [r for r in records if r["kind"] == "rule_fired"]
        assert fired and fired[0]["data"]["rule"] == "mirror"
