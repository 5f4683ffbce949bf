"""The static analyzer's verdicts, tested as theorems about runs.

A verdict is a claim about executions, so each is checked against
executions of generated rule programs (``rule_programs.py``, shared
with the incremental differential), reading nothing but the
``TransactionResult`` — ``TransitionRecord.source`` / ``.effect`` and
the ``ConsiderationRecord``\\ s (docs/semantics.md §11.1 lists which
RPL code stands on which theorem):

* **T1, write soundness** — the ``(kind, table, column)`` set of every
  rule-generated transition ⊆ its source rule's static writes;
* **T2, edge soundness** — every consideration of a rule whose
  trans-info holds rule-generated transitions only is explained by a
  syntactic edge, and a rule that *fires* when its trans-info is one
  provider's single transition has that edge in the refined graph; a
  rule RPL301 calls unreachable never fires. It is checked on the
  shipped engine and on the reference condition evaluator: neither
  reads the graph, so each tests the pruned edges rather than obeying
  them;
* **T3, termination** — a program with no refined loop quiesces on
  every workload within 2ⁿ − 1 rule transitions (the path count of the
  complete DAG on its n rules);
* **T4, confluence** — an unordered, co-triggered rule pair that no
  RPL203/501/502 finding and no ``analyze()`` conflict names reaches
  the same ``canonical_state`` and outcome under both forced orders
  (Flesca & Greco's determinism criterion, PAPERS.md).

The explicit programs below are the shapes that falsified a theorem
while this file was written; each names the fix that made it hold.
"""

from itertools import combinations

from hypothesis import event, given, settings
import pytest

from repro.analysis import analyze, probe_order_sensitivity
from repro.errors import RuleLoopError
from tests.property.rule_programs import build, programs, workloads
from tests.reference import full_reeval

#: self-discharging clamp (the org-chart ``discharge_demo`` shape): the
#: refinement prunes clamp → clamp, and no run may contradict it
CLAMP = [
    "create rule clamp when updated t.x "
    "if exists (select * from new updated t.x where x < 0) "
    "then update t set x = 0 where x < 0",
]

#: ``select count(*)`` yields a row over an empty transition table, so
#: the exists holds although ``bump`` cannot populate ``inserted t``:
#: the parent pruned bump → bump and the graph skip stopped the cascade
#: the reference evaluator runs (fix: refine._transition_conjunct_target)
AGGREGATE_EXISTS = [
    "create rule bump when updated t.x or inserted into t "
    "if exists (select count(*) from inserted t) "
    "then update t set x = x + 1 where x < 4",
]

#: ``both`` needs rows in two transition tables; ``feed_i`` cannot
#: populate one of them and ``feed_u`` not the other, so both edges into
#: ``both`` are pruned and the parent's refined graph was acyclic —
#: while together they re-trigger it forever (fix: loops are the cycles
#: among TriggeringGraph.recurrent(), not the cycles of pruned edges)
TWO_VIEWS = [
    "create rule both when inserted into t or updated t.x "
    "if exists (select * from inserted t) "
    "and exists (select * from new updated t.x) "
    "then insert into log values (1)",
    "create rule feed_i when inserted into log "
    "then insert into t values (0)",
    "create rule feed_u when inserted into log "
    "then update t set x = x + 1",
]

#: ``note`` reads nothing ``shrink`` writes, but watches it: shrink's
#: update re-triggers note, so note fires once or twice depending on
#: who goes first (fix: triggering.interference counts watched tables)
WATCHER = [
    "create rule note when inserted into t or updated t.x "
    "then insert into log values (1)",
    "create rule shrink when inserted into t "
    "then update t set x = x - 1 where x > 2",
]


def static(db):
    """``(graph, {rule: static writes})`` of the program."""
    analysis = db.engine.analysis
    return analysis.graph, {
        rule.name: rule.effects.writes for rule in analysis.rules()
    }


def run(db, block):
    """The block's ``TransactionResult``, or None when it raised."""
    try:
        return db.execute(block)
    except Exception:
        return None


def written(db, effect):
    """The ``(kind, table, column)`` set a transition actually wrote."""
    database = db.database

    def columns(handle):
        table = database.table_of_handle(handle)
        return table, database.schema(table).column_names

    out = set()
    for kind, handles in (("inserted", effect.inserted),
                          ("deleted", effect.deleted)):
        for handle in handles:
            table, names = columns(handle)
            out.update((kind, table, name) for name in names)
    out.update(
        ("updated", database.table_of_handle(handle), column)
        for handle, column in effect.updated
    )
    return out


def windows(result, policy):
    """``(consideration, transitions composing the rule's trans-info)``
    for every consideration, reconstructed from the trace alone: under
    the ``execution`` policy a rule's trans-info restarts from its own
    transition when it fires; under ``consideration`` it also empties
    at every non-firing consideration (footnote 8)."""
    baseline = {}
    for record in result.considered:
        first = baseline.get(record.rule, 1)
        yield record, [
            transition for transition in result.transitions
            if first <= transition.index <= record.after_transition
        ]
        if record.fired or policy == "consideration":
            baseline[record.rule] = record.after_transition + 1


def flagged_pairs(db):
    """The rule pairs some conflict verdict names."""
    pairs = {
        frozenset((warning.first, warning.second))
        for warning in analyze(db.catalog).conflicts
    }
    names = db.rule_names()
    for diagnostic in db.lint():
        if diagnostic.code in ("RPL203", "RPL501", "RPL502"):
            pairs.add(frozenset(
                name for name in names if repr(name) in diagnostic.message
            ))
    return pairs


# ---------------------------------------------------------------------------
# T1 — write soundness

def check_write_soundness(rules, blocks):
    db = build(True, rules)
    _, writes = static(db)
    for block in blocks:
        result = run(db, block)
        for transition in result.transitions if result else ():
            if not transition.is_external:
                assert written(db, transition.effect) \
                    <= writes[transition.source], (block, transition)


@given(programs(), workloads())
@settings(max_examples=60, deadline=None)
def test_t1_transitions_write_within_the_static_write_set(rules, blocks):
    check_write_soundness(rules, blocks)


# ---------------------------------------------------------------------------
# T2 — edge soundness

def check_edge_soundness(rules, blocks, policy="execution", shipped=False):
    """Returns how many firings had a single provider's single
    transition for trans-info (the cases the refined graph speaks to).
    ``shipped`` runs the engine as shipped, else the reference
    condition evaluator."""
    single = 0
    db = build(True, rules)
    if not shipped:
        full_reeval.install(db)
    for name in db.rule_names():
        db.set_rule_reset_policy(name, policy)
    graph, _ = static(db)
    unreachable = {d.rule for d in db.lint() if d.code == "RPL301"}
    for block in blocks:
        result = run(db, block)
        for record, window in windows(result, policy) if result else ():
            assert not (record.fired and record.rule in unreachable)
            sources = [transition.source for transition in window]
            if "external" in sources:
                continue
            assert any(
                graph.has_edge(source, record.rule) for source in sources
            ), (block, record, sources)
            if record.fired and len(sources) == 1:
                single += 1
                assert graph.has_edge(
                    sources[0], record.rule, refined=True
                ), (block, record, graph.pruned)
    return single


@pytest.mark.parametrize("policy", ["execution", "consideration"])
@given(programs(), workloads())
@settings(max_examples=40, deadline=None)
def test_t2_observed_triggers_are_edges(policy, rules, blocks):
    check_edge_soundness(rules, blocks, policy)


@pytest.mark.parametrize("policy", ["execution", "consideration"])
@given(programs(), workloads())
@settings(max_examples=40, deadline=None)
def test_t2_holds_on_the_shipped_engine(policy, rules, blocks):
    check_edge_soundness(rules, blocks, policy, shipped=True)


@pytest.mark.parametrize(
    "rules", [CLAMP, AGGREGATE_EXISTS], ids=["clamp", "aggregate-exists"]
)
def test_t2_on_the_programs_that_prune_a_self_edge(rules):
    blocks = ["insert into t values (-5), (1), (9)",
              "update t set x = x - 6",
              "update t set x = 1 where x = 0"]
    check_edge_soundness(rules, blocks)
    check_edge_soundness(rules, blocks, shipped=True)
    # and the shipped evaluator agrees with the reference on what the
    # cascade does
    shipped, reference = build(True, rules), build(False, rules)
    for block in blocks:
        assert [t.source for t in shipped.execute(block).transitions] \
            == [t.source for t in reference.execute(block).transitions]
    assert shipped.database.snapshot() == reference.database.snapshot()


def test_t2_is_not_vacuous():
    assert static(build(True, CLAMP))[0].pruned
    assert not static(build(True, AGGREGATE_EXISTS))[0].pruned
    # a kept self-edge is seen firing on its own transition alone
    assert check_edge_soundness(
        AGGREGATE_EXISTS, ["insert into t values (1)"]
    ) >= 2


# ---------------------------------------------------------------------------
# T3 — termination

def check_termination(rules, blocks):
    db = build(True, rules)
    graph, _ = static(db)
    if graph.loops(refined=True):
        return False
    bound = 2 ** len(rules) - 1
    for block in blocks:
        result = db.execute(block)  # a RuleLoopError fails the theorem
        assert result.rule_firings <= bound, (block, result.describe())
    return True


@given(programs(), workloads())
@settings(max_examples=80, deadline=None)
def test_t3_programs_without_a_refined_loop_quiesce(rules, blocks):
    event("loop-free" if check_termination(rules, blocks)
          else "refined loop reported: nothing claimed")


def test_t3_two_providers_filling_two_views_keep_the_loop():
    db = build(True, TWO_VIEWS)
    db.engine.max_rule_transitions = 50
    graph, _ = static(db)
    # every edge into `both` is pruned, each for the view its provider
    # cannot fill ...
    assert not graph.has_edge("feed_i", "both", refined=True)
    assert not graph.has_edge("feed_u", "both", refined=True)
    # ... yet the loop is reported, and real
    assert graph.loops(refined=True) == [("both", "feed_i", "feed_u")]
    assert [d.code for d in db.lint() if d.code == "RPL201"]
    db.execute("insert into t values (1)")
    with pytest.raises(RuleLoopError):
        db.execute("insert into log values (0)")


# ---------------------------------------------------------------------------
# T4 — confluence

def check_confluence(rules, blocks):
    """Probes every unflagged pair; returns how many there were."""
    db = build(True, rules)
    flagged = flagged_pairs(db)
    clean = [
        pair for pair in combinations(db.rule_names(), 2)
        if frozenset(pair) not in flagged
    ]
    for first, second in clean:
        for done in range(len(blocks)):
            def factory():
                db = build(True, rules)
                for block in blocks[:done]:
                    db.execute(block)
                return db

            probe = probe_order_sensitivity(
                factory, blocks[done], first, second
            )
            assert not probe.order_sensitive, (blocks[done], probe)
    return len(clean)


@given(programs(min_rules=2), workloads())
@settings(max_examples=40, deadline=None)
def test_t4_unflagged_pairs_commute(rules, blocks):
    pairs = check_confluence(rules, blocks)
    event("unflagged pairs probed" if pairs else "every pair flagged")


def test_t4_a_watcher_is_flagged_and_is_order_sensitive():
    db = build(True, WATCHER)
    assert flagged_pairs(db) == {frozenset(("note", "shrink"))}
    probe = probe_order_sensitivity(
        lambda: build(True, WATCHER), "insert into t values (5)",
        "note", "shrink",
    )
    assert probe.order_sensitive
    assert (probe.state_first_first["log"],
            probe.state_second_first["log"]) == ([(1,), (1,)], [(1,)])
