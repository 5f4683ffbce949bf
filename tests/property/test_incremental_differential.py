"""Differential property test: maintained views ≡ full re-evaluation.

The invariance guarantee (docs/semantics.md §12): the delta-driven
condition layer may change the *cost* of rule processing, never its
observable behaviour. These tests generate randomized rule programs —
maintainable conditions, transition-table conditions, deliberate
fallbacks — and randomized transaction sequences, run them against an
engine as shipped and one carrying ``tests/reference/full_reeval.py``
(every condition re-run in full at every consideration), and require
the same fired-rule sequences, the same per-consideration condition
values, and the same final database state.
"""

from hypothesis import given, settings

from tests.property.rule_programs import build, programs, workloads


def observable(db, block):
    """Run one block; return everything invariance promises to preserve."""
    try:
        result = db.execute(block)
    except Exception as error:
        return ("error", type(error).__name__, str(error))
    return (
        "ok",
        result.committed,
        result.rolled_back_by,
        [(r.source, r.is_external) for r in result.transitions],
        [(c.rule, c.condition_result, c.fired) for c in result.considered],
    )


def final_state(db):
    return db.database.snapshot()


class TestIncrementalEquivalence:
    @given(programs(), workloads())
    @settings(max_examples=80, deadline=None)
    def test_on_equals_off(self, rules, blocks):
        on = build(True, rules)
        off = build(False, rules)
        for block in blocks:
            assert observable(on, block) == observable(off, block), block
        assert final_state(on) == final_state(off)
        # the reference engine never answered from a view
        for rule in off.stats()["rules"].values():
            assert rule["incremental_hits"] == 0
            assert rule["incremental_refreshes"] == 0

    @given(programs())
    @settings(max_examples=30, deadline=None)
    def test_mid_transaction_rule_changes(self, rules):
        """define_rule / drop_rule inside an open transaction must be
        invariant too: the incremental layer re-plans, re-baselines and
        rebuilds its graph exactly where the full path re-reads the
        catalog."""
        def run(incremental):
            db = build(incremental, rules[:1])
            trace = []
            db.begin()
            db.execute("insert into t values (1), (3)")
            db.assert_rules()
            for rule in rules[1:]:
                db.execute(rule)
            db.execute("update t set x = x + 1 where x < 3")
            db.assert_rules()
            if len(rules) > 1:
                db.execute("drop rule r1")
            db.execute("insert into t values (0)")
            result = db.commit()
            trace.append(
                [(r.source, r.is_external) for r in result.transitions]
            )
            trace.append(
                [(c.rule, c.condition_result, c.fired)
                 for c in result.considered]
            )
            return trace, final_state(db)

        assert run(True) == run(False)

    @given(programs(), workloads())
    @settings(max_examples=20, deadline=None)
    def test_rollback_mid_sequence_is_invariant(self, rules, blocks):
        """An explicit rollback between blocks exercises the abort
        invalidation path; later transactions must still agree."""
        on = build(True, rules)
        off = build(False, rules)
        for db in (on, off):
            db.begin()
            db.execute("insert into t values (2)")
            db.rollback()
        for block in blocks:
            assert observable(on, block) == observable(off, block), block
        assert final_state(on) == final_state(off)
