"""Property test: incrementally-folded zone maps agree with a
from-scratch recompute after arbitrary DML, rule cascades, aborts (undo
replays through the same mutators) and compaction.

The contract (see repro.relational.stats): every zone's bounds cover
every live non-NULL value in it, and a ``None`` zone minimum proves the
zone holds no live non-NULL value (the soundness condition zone pruning
relies on). After a forced rebuild the zones equal a recompute from
storage exactly.
"""

from hypothesis import given, settings, strategies as st

from repro import ActiveDatabase
from repro.relational.stats import ZONE_SHIFT, TableStats

RULES = [
    # a cascade: every insert into t journals into log
    "create rule journal when inserted into t "
    "then insert into log (select a, 'ins' from inserted t)",
    # an abort source: inserting a negative key rolls the whole
    # transaction back, exercising undo through the mutators
    "create rule veto when inserted into t "
    "if exists (select * from t where a < -90) then rollback",
]

BLOCKS = [
    "insert into t values ({k}, 's{k}')",
    "insert into t values ({k}, null), ({j}, 's{j}')",
    "insert into t values (null, null)",
    "update t set a = a + 1 where a < {k}",
    "update t set b = 'u' where a = {k}",
    "delete from t where a = {k}",
    "delete from t where a > {j}",
    "insert into t values (-100, 'veto')",   # forces a rollback
    "insert into t values ({k}, 'x'); delete from t where a = {j}",
]


@st.composite
def workloads(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    blocks = []
    for _ in range(count):
        template = draw(st.sampled_from(BLOCKS))
        k = draw(st.integers(min_value=-5, max_value=30))
        j = draw(st.integers(min_value=-5, max_value=30))
        blocks.append(template.format(k=k, j=j))
    return blocks


def build():
    db = ActiveDatabase(record_seen=False)
    db.execute("create table t (a integer, b varchar)")
    db.execute("create table log (a integer, note varchar)")
    for rule in RULES:
        db.execute(rule)
    return db


def check_invariants(table):
    stats = table.stats
    arity = table.schema.arity
    # zone soundness: every live non-NULL value is covered by its zone's
    # bounds, and a None minimum proves the zone empty of such values
    batch = table.batch()
    for slot, row in zip(batch.sel, batch.rows()):
        zone = slot >> ZONE_SHIFT
        for position in range(arity):
            value = row[position]
            if value is None:
                continue
            mins, maxs = stats.zones[position]
            assert zone < len(mins)
            assert mins[zone] is not None
            assert mins[zone] <= value <= maxs[zone]


def check_rebuild_equals_recompute(table):
    fresh = TableStats(table.schema.arity)
    batch = table.batch()
    fresh.rebuild(batch.cols, batch.sel)
    table.rebuild_stats()
    assert table.stats.zones == fresh.zones


class TestStatsDifferential:
    @given(workloads())
    @settings(max_examples=60, deadline=None)
    def test_folded_stats_agree_with_recompute(self, blocks):
        db = build()
        for block in blocks:
            try:
                db.execute(block)
            except Exception:
                pass  # vetoed transactions roll back; zones must survive
            for name in ("t", "log"):
                check_invariants(db.database.table(name))
        for name in ("t", "log"):
            check_rebuild_equals_recompute(db.database.table(name))

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_compaction_rebuilds_exactly(self, blocks):
        db = build()
        for block in blocks:
            try:
                db.execute(block)
            except Exception:
                pass
        table = db.database.table("t")
        table.compact()
        check_invariants(table)
        check_rebuild_equals_recompute(table)

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_explicit_abort_replays_stats(self, blocks):
        db = build()
        db.execute("insert into t values (1, 'base')")
        db.begin()
        for block in blocks:
            try:
                db.execute(block)
            except Exception:
                pass
        db.rollback()
        # the widen-only zones may keep the aborted work's widening —
        # they only promise to cover
        assert db.database.table("t").rows() == [(1, "base")]
        check_invariants(db.database.table("t"))
        check_rebuild_equals_recompute(db.database.table("t"))
