"""Unit tests for the dynamic order-sensitivity probe."""

from repro import ActiveDatabase
from repro.analysis import (
    analyze,
    canonical_state,
    probe_conflicts,
    probe_order_sensitivity,
)


def sensitive_factory():
    """Two rules whose order visibly changes the outcome: both want to
    stamp the 'first mover' marker."""
    db = ActiveDatabase()
    db.execute("create table t (x integer)")
    db.execute("create table marker (who varchar)")
    db.execute(
        "create rule stamp_a when inserted into t "
        "if not exists (select * from marker) "
        "then insert into marker values ('a')"
    )
    db.execute(
        "create rule stamp_b when inserted into t "
        "if not exists (select * from marker) "
        "then insert into marker values ('b')"
    )
    return db


def commuting_factory():
    """Two rules writing disjoint tables: order cannot matter."""
    db = ActiveDatabase()
    db.execute("create table t (x integer)")
    db.execute("create table log_a (x integer)")
    db.execute("create table log_b (x integer)")
    db.execute(
        "create rule write_a when inserted into t "
        "then insert into log_a (select x from inserted t)"
    )
    db.execute(
        "create rule write_b when inserted into t "
        "then insert into log_b (select x from inserted t)"
    )
    return db


class TestCanonicalState:
    def test_ignores_handles_and_order(self):
        def build(reversed_order):
            db = ActiveDatabase()
            db.execute("create table t (x integer)")
            values = "(2), (1)" if reversed_order else "(1), (2)"
            db.execute(f"insert into t values {values}")
            # burn extra handles in one instance
            if reversed_order:
                db.execute("insert into t values (9)")
                db.execute("delete from t where x = 9")
            return db

        assert canonical_state(build(False)) == canonical_state(build(True))

    def test_distinguishes_different_contents(self):
        db1 = ActiveDatabase()
        db1.execute("create table t (x integer)")
        db1.execute("insert into t values (1)")
        db2 = ActiveDatabase()
        db2.execute("create table t (x integer)")
        db2.execute("insert into t values (2)")
        assert canonical_state(db1) != canonical_state(db2)


class TestProbe:
    def test_detects_order_sensitivity(self):
        result = probe_order_sensitivity(
            sensitive_factory, "insert into t values (1)", "stamp_a", "stamp_b"
        )
        assert result.order_sensitive
        assert result.state_first_first["marker"] == [("a",)]
        assert result.state_second_first["marker"] == [("b",)]
        assert "ORDER SENSITIVE" in result.describe()

    def test_commuting_pair_passes(self):
        result = probe_order_sensitivity(
            commuting_factory, "insert into t values (1)", "write_a", "write_b"
        )
        assert not result.order_sensitive
        assert "commuted" in result.describe()

    def test_rollback_outcome_divergence_detected(self):
        def factory():
            db = ActiveDatabase()
            db.execute("create table t (x integer)")
            db.execute("create table shield (x integer)")
            # veto fires unless defuse ran first
            db.execute(
                "create rule veto when inserted into t "
                "if not exists (select * from shield) then rollback"
            )
            db.execute(
                "create rule defuse when inserted into t "
                "if not exists (select * from shield) "
                "then insert into shield values (1)"
            )
            return db

        result = probe_order_sensitivity(
            factory, "insert into t values (1)", "veto", "defuse"
        )
        assert result.order_sensitive
        assert result.outcome_first_first == "veto"
        assert result.outcome_second_first is None

    def test_probe_conflicts_orders_sensitive_first(self):
        results = probe_conflicts(
            sensitive_factory, "insert into t values (1)"
        )
        assert results  # the static pass flagged the pair
        assert results[0].order_sensitive

    def test_probe_conflicts_with_explicit_warnings(self):
        warnings = analyze(commuting_factory().catalog).conflicts
        results = probe_conflicts(
            commuting_factory, "insert into t values (1)", warnings
        )
        assert all(not result.order_sensitive for result in results)


class TestEdgeCases:
    """Boundary behavior: empty catalogs, self-loops, and the concrete
    divergence witness carried by a ProbeResult."""

    def test_empty_catalog_yields_no_probes(self):
        def empty_factory():
            db = ActiveDatabase()
            db.execute("create table t (x integer)")
            return db

        results = probe_conflicts(empty_factory, "insert into t values (1)")
        assert results == []

    def test_single_self_loop_rule_is_no_conflict_but_is_a_loop(self):
        """A single rule cannot form an ordering conflict (conflicts need
        a pair), even when it triggers itself; the loop analysis is the
        facility that reports it."""

        def self_loop_factory():
            db = ActiveDatabase()
            db.execute("create table t (x integer)")
            db.execute(
                "create rule clamp when updated t.x "
                "if exists (select * from new updated t.x where x < 0) "
                "then update t set x = 0 where x < 0"
            )
            return db

        results = probe_conflicts(
            self_loop_factory, "insert into t values (-1)"
        )
        assert results == []

        loops = analyze(self_loop_factory().catalog).loops
        assert [warning.rules for warning in loops] == [("clamp",)]
        assert not loops[0].assumed  # derived from SQL, not an opaque action

    def test_divergence_witness_states_are_concrete(self):
        """A genuinely diverging pair yields a ProbeResult whose two
        canonical states are the divergence witness."""
        result = probe_order_sensitivity(
            sensitive_factory, "insert into t values (1)",
            "stamp_a", "stamp_b",
        )
        assert result.order_sensitive
        # the first mover stamps the marker; the loser is suppressed
        assert result.state_first_first["marker"] == [("a",)]
        assert result.state_second_first["marker"] == [("b",)]
        # everything else agrees: the divergence is exactly the marker
        assert result.state_first_first["t"] == result.state_second_first["t"]
        assert result.outcome_first_first is None
        assert result.outcome_second_first is None
