"""Property test: NaN has one place in the total order.

A FLOAT column may hold NaN beside numbers, the infinities, signed
zeros and NULL. ``ORDER BY`` and ``min``/``max`` order NaN above every
number, as PostgreSQL does, so permuting the order rows were inserted
in — and so scanned in — changes neither an ordered result nor an
extreme. Output is compared through ``sort_key``, which makes ``0.0``
and ``-0.0`` one key (ties, in whichever order they were scanned).
Predicates keep IEEE comparisons: ``x = x`` is false for NaN.
"""

import math

from hypothesis import given, settings, strategies as st

from repro import ActiveDatabase
from repro.relational.types import sort_key

INF = "(1e308 * 10.0)"
VALUES = {
    "null": None, "0.0": 0.0, "-0.0": -0.0, "1.0": 1.0, "2.5": 2.5,
    INF: math.inf, f"-{INF}": -math.inf, f"({INF} - {INF})": math.nan,
}
QUERIES = [
    "select min(x), max(x) from a",
    "select g, min(x), max(x) from a group by g order by g",
    "select x from a order by x",
    "select x, g from a order by x desc, g",
    "select min(x), max(x) from a where g = 1",
]


def results(rows):
    db = ActiveDatabase()
    db.execute("create table a (x float, g integer)")
    for text, group in rows:
        db.execute(f"insert into a values ({text}, {group})")
    keyed = {
        query: [tuple(map(sort_key, row)) for row in db.rows(query)]
        for query in QUERIES
    }
    keyed["ieee"] = db.rows("select count(*) from a where x = x")
    return keyed


rows = st.lists(
    st.tuples(st.sampled_from(sorted(VALUES)), st.integers(0, 2)),
    min_size=1, max_size=8,
)


@given(rows.flatmap(lambda drawn: st.tuples(
    st.just(drawn), st.permutations(drawn))))
@settings(max_examples=60, deadline=None)
def test_insertion_order_moves_no_ordered_result(pair):
    drawn, permuted = pair
    ours = results(drawn)
    assert ours == results(permuted)
    nan_key = sort_key(math.nan)
    values = [VALUES[text] for text, _ in drawn]
    numbers = [value for value in values if value is not None]
    assert ours["select x from a order by x"] == sorted(
        (sort_key(value),) for value in values)
    if numbers:
        assert ours["select min(x), max(x) from a"] == [(
            min(map(sort_key, numbers)), max(map(sort_key, numbers)))]
    assert (nan_key in [key for (key,) in ours["select x from a order by x"]]) \
        == any(value != value for value in numbers)
    assert ours["ieee"] == [(sum(value == value for value in numbers),)]
