"""Differential property test: the planner ≡ the syntactic reference.

The zone-pruning invariance guarantee (docs/semantics.md §15): the
production planner builds the syntactic plan — FROM order, written
conjunct order, every index key — plus zone-map prune specs, and
pruning may change the *cost* of evaluation, never its observable
behaviour. These tests generate randomized data, indexes, multi-table
queries (with error-raising conjuncts: division by zero, cross-kind
comparisons), and rule programs, run them through the production
planner and through ``tests/reference/syntactic_planner.py`` (no prune
specs — each on a database of its own), and require the same source
tree but for prune specs, and identical values, row order, touched
handles, error types *and messages*, fired-rule sequences, and final
state, also after a compaction rebuilt the zone maps mid-run.
"""


from hypothesis import given, settings, strategies as st

from repro import ActiveDatabase
from repro.records import replace
from repro.relational.database import Database
from repro.relational.plan import Filter, HashJoin, Product, builder
from repro.relational.select import evaluate_select
from repro.sql.parser import parse_select
from tests.reference import syntactic_planner

T1_COLUMNS = ("a", "b", "c")
T2_COLUMNS = ("b", "d")
T3_COLUMNS = ("d", "e")

values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
t1_rows = st.lists(st.tuples(values, values, values), max_size=8)
t2_rows = st.lists(st.tuples(values, values), max_size=6)
t3_rows = st.lists(st.tuples(values, values), max_size=4)
index_choice = st.sets(
    st.sampled_from(["t1.a", "t1.b", "t2.b", "t2.d", "t3.d"]), max_size=3
)

# conjuncts mixing safe shapes with ones that can raise at run time —
# exactly what the totality gate must refuse to prune around
CONJUNCTS_ONE = [
    "x.a = 1",
    "x.b > 0",
    "x.c = x.a",
    "x.a is not null",
    "x.a / x.b > 0",                 # division by zero
    "x.a > 'oops'",                  # cross-kind comparison
    "x.b in (0, 1, 2)",
    "x.a between -1 and 2",
]
CONJUNCTS_TWO = CONJUNCTS_ONE + [
    "x.a = y.b",
    "x.b = y.d",
    "y.d = 2",
    "x.a + y.d > 0",
    "y.d / y.b = 1",
    "exists (select * from t2 where t2.d = x.a)",
]
CONJUNCTS_THREE = CONJUNCTS_TWO + [
    "y.d = z.d",
    "z.e > 0",
    "x.a = z.e",
]


@st.composite
def queries(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    pool = [CONJUNCTS_ONE, CONJUNCTS_TWO, CONJUNCTS_THREE][arity - 1]
    tables = ", ".join(["t1 x", "t2 y", "t3 z"][:arity])
    picked = draw(st.lists(st.sampled_from(pool), max_size=4))
    where = " where " + " and ".join(picked) if picked else ""
    items = draw(st.sampled_from(
        ["*", "x.a, x.b"]
        + (["x.a, y.d"] if arity >= 2 else [])
        + (["z.e, x.a", "count(*)"] if arity >= 3 else [])
    ))
    order = draw(st.sampled_from(["", " order by x.a"]))
    return f"select {items} from {tables}{where}{order}"


def build_database(rows1, rows2, rows3, indexes):
    db = Database()
    db.create_table("t1", [(c, "integer") for c in T1_COLUMNS])
    db.create_table("t2", [(c, "integer") for c in T2_COLUMNS])
    db.create_table("t3", [(c, "integer") for c in T3_COLUMNS])
    for table, rows in (("t1", rows1), ("t2", rows2), ("t3", rows3)):
        for row in rows:
            db.insert_row(table, row)
    for position, spec in enumerate(sorted(indexes)):
        table, column = spec.split(".")
        db.create_index(f"idx{position}", table, column)
    return db


def outcome(db, select):
    try:
        result = evaluate_select(db, select, collect_handles=True)
    except Exception as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.columns, result.rows, result.touched)


def syntactic_outcome(db, select):
    with syntactic_planner.installed():
        return outcome(db, select)


def without_prune_specs(node):
    """``node``'s source tree with every filter's prune specs dropped."""
    if isinstance(node, Filter):
        return replace(
            node, child=without_prune_specs(node.child), prune_specs=())
    if isinstance(node, (HashJoin, Product)):
        return replace(node, left=without_prune_specs(node.left),
                                   right=without_prune_specs(node.right))
    return node


class TestQueryEquivalence:
    @given(t1_rows, t2_rows, t3_rows, index_choice, queries())
    @settings(max_examples=100, deadline=None)
    def test_plans_differ_only_by_prune_specs(self, rows1, rows2, rows3,
                                              indexes, sql):
        select = parse_select(sql)
        db = build_database(rows1, rows2, rows3, indexes)
        plan = builder.build_plan(db, select)
        reference = syntactic_planner.build_plan(db, select)
        assert without_prune_specs(plan.source) == reference.source, sql

    @given(t1_rows, t2_rows, t3_rows, index_choice, queries())
    @settings(max_examples=150, deadline=None)
    def test_costed_equals_syntactic(self, rows1, rows2, rows3, indexes,
                                     sql):
        select = parse_select(sql)
        costed = build_database(rows1, rows2, rows3, indexes)
        syntactic = build_database(rows1, rows2, rows3, indexes)
        assert outcome(costed, select) == \
            syntactic_outcome(syntactic, select), sql

    @given(t1_rows, t2_rows, t3_rows, queries())
    @settings(max_examples=40, deadline=None)
    def test_equivalence_survives_stats_rebuilds(self, rows1, rows2, rows3,
                                                 sql):
        """Zone maps rebuilt by a mid-run compaction — tighter than the
        widen-only bounds they replace — must prune to the same output."""
        select = parse_select(sql)
        costed = build_database(rows1, rows2, rows3, set())
        syntactic = build_database(rows1, rows2, rows3, set())
        assert outcome(costed, select) == \
            syntactic_outcome(syntactic, select), sql
        for db in (costed, syntactic):
            db.delete_rows("t1", db.insert_rows("t1", [[9] * 70] * 3))
            assert db.table("t1").compactions == 1
            db.insert_row("t1", (2, 2, 2))
        assert outcome(costed, select) == \
            syntactic_outcome(syntactic, select), sql


# ---------------------------------------------------------------------------
# rule programs: fired-rule sequences and final state

RULES = [
    "create rule cascade when inserted into t1 "
    "then insert into t2 (select a, c from inserted t1 where a is not null)",
    # condition with a join
    "create rule watch when inserted into t2 "
    "if exists (select * from t1 x, t2 y where x.a = y.b and y.d > {k}) "
    "then insert into t3 values ({k}, 0)",
    # condition whose conjuncts can raise: the order-sensitive case
    "create rule risky when inserted into t1 "
    "if exists (select * from t1 x where x.a / x.b > 0 and x.c = {k}) "
    "then insert into t3 values (0, {k})",
]

BLOCKS = [
    "insert into t1 values ({k}, {j}, 1)",
    "insert into t1 values ({k}, 0, {j})",        # zero divisor for risky
    "insert into t1 values (null, {k}, {j})",
    "update t1 set b = b + 1 where a = {k}",
    "delete from t1 where a = {k}",
    "insert into t2 values ({k}, {j})",
]


@st.composite
def rule_workloads(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    blocks = []
    for _ in range(count):
        template = draw(st.sampled_from(BLOCKS))
        k = draw(st.integers(min_value=-2, max_value=3))
        j = draw(st.integers(min_value=-2, max_value=3))
        blocks.append(template.format(k=k, j=j))
    return blocks


def build_engine(thresholds):
    db = ActiveDatabase(record_seen=False)
    db.execute("create table t1 (a integer, b integer, c integer)")
    db.execute("create table t2 (b integer, d integer)")
    db.execute("create table t3 (d integer, e integer)")
    for rule, k in zip(RULES, thresholds):
        db.execute(rule.format(k=k))
    return db


def observable(db, block):
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


class TestRuleEquivalence:
    @given(
        st.lists(st.integers(min_value=-1, max_value=2),
                 min_size=3, max_size=3),
        rule_workloads(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fired_sequences_and_state_match(self, thresholds, blocks):
        costed = build_engine(thresholds)
        with syntactic_planner.installed():
            syntactic = build_engine(thresholds)
        for block in blocks:
            expected = observable(costed, block)
            with syntactic_planner.installed():
                assert observable(syntactic, block) == expected, block
        assert costed.database.snapshot() == syntactic.database.snapshot()
        # plans come from text and catalog: both engines built as many
        assert costed.stats()["planner"]["plans_built"] == \
            syntactic.stats()["planner"]["plans_built"]
