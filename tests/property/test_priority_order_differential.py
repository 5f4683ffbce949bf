"""§4.4 selection order: ``RuleCatalog.maximal_first_order`` (Kahn's
algorithm over the priority closure restricted to the triggered set)
against the quadratic scan it replaced (``tests/reference/
priority_order.py``), over random acyclic pairings and random triggered
subsets.
"""

from hypothesis import given, settings, strategies as st

from repro.core.rules import RuleCatalog
from repro.sql import ast
from tests.reference.priority_order import maximal_first_order

NAMES = [f"r{index}" for index in range(8)]


def catalog_of(count, pairings):
    catalog = RuleCatalog()
    predicate = (ast.BasicTransitionPredicate(
        ast.TransitionPredicateKind.INSERTED, "t"),)
    for name in NAMES[:count]:
        catalog.create_rule(name, predicate, None, ast.RollbackAction())
    for higher, lower in pairings:
        catalog.add_priority(higher, lower)
    return catalog


@st.composite
def programs(draw):
    count = draw(st.integers(min_value=0, max_value=len(NAMES)))
    # pairings run down a hidden random rank: acyclic, but cutting
    # across creation order
    rank = draw(st.permutations(range(count)))
    edges = draw(st.lists(
        st.tuples(st.integers(0, max(count - 1, 0)),
                  st.integers(0, max(count - 1, 0))),
        max_size=12))
    pairings = sorted({
        (NAMES[a], NAMES[b]) for a, b in edges
        if count and rank[a] < rank[b]
    })
    triggered = draw(st.lists(st.sampled_from(NAMES[:count]), unique=True)
                     if count else st.just([]))
    return count, pairings, triggered


@given(programs())
@settings(max_examples=300, deadline=None)
def test_kahn_order_is_the_quadratic_scan(program):
    count, pairings, triggered = program
    catalog = catalog_of(count, pairings)
    rules = [catalog.rule(name) for name in triggered]
    expected = maximal_first_order(rules, catalog.precedes)
    assert catalog.maximal_first_order(rules) == expected


def test_a_global_order_restricted_to_a_subset_is_not_the_order():
    """a (created 1st), b (2nd), c (3rd) with "c before a": the whole
    catalog orders b, c, a, but the triggered set {a, b} has no pairing
    inside it, so creation order decides: a, b."""
    catalog = catalog_of(3, [("r2", "r0")])
    everything = catalog.maximal_first_order(catalog.rules())
    assert [rule.name for rule in everything] == ["r1", "r2", "r0"]
    subset = [catalog.rule("r1"), catalog.rule("r0")]
    assert [rule.name for rule in catalog.maximal_first_order(subset)] == [
        "r0", "r1"]
    assert maximal_first_order(subset, catalog.precedes) == (
        catalog.maximal_first_order(subset))
