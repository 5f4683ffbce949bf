"""Generated rule programs over ``t(x)`` / ``log(x)`` / ``own0..3(x)``
and workloads for them — the Hypothesis strategies the whole-program property tests share
(incremental-evaluation invariance, the analysis theorems)."""

from hypothesis import strategies as st

from repro import ActiveDatabase
from tests.reference import full_reeval

# Condition templates over t(x) / the rule's transition tables; the
# {k} threshold varies per rule. The pool deliberately mixes counter
# conjuncts, delta conjuncts, negation, conjunction, and shapes the
# classifier must reject (so fallback interleaves with hits).
CONDITIONS = [
    "exists (select * from t where x > {k})",
    "not exists (select * from t where x > {k})",
    "(select count(*) from t) > {k}",          # unclassifiable: fallback
    "{k} > 3",                                 # constant-false (k <= 3)
    None,                                      # no condition
]

# shapes referencing "inserted t" are only legal on rules that declare
# the matching basic transition predicate
INSERTED_CONDITIONS = CONDITIONS + [
    "exists (select * from inserted t where x > {k})",
    "exists (select * from inserted t) "
    "and exists (select * from t where x < {k})",
]

# Actions that cannot retrigger their own rule's predicate forever:
# log and own{i} writes never touch t, and the discharge update strictly
# shrinks the set it matches. (own{i} is rule i's private side table,
# so that some rule pairs share no data at all — the pairs the
# confluence theorem is about; log is shared.)
MAX_RULES = 4

ACTIONS = [
    "insert into log values ({k})",
    "insert into own{i} values ({k})",
    "insert into own{i} values ({k}), ({k})",
    "update t set x = x - 1 where x > 2",
    "delete from t where x > 3",
]

INSERTED_ACTIONS = ACTIONS + [
    "insert into log (select x from inserted t)",
    "insert into own{i} (select x from inserted t)",
]

PREDICATES = [
    "inserted into t",
    "inserted into t or updated t.x",
    "deleted from t",
]

BLOCKS = [
    "insert into t values ({k})",
    "insert into t values ({k}), ({j})",
    "update t set x = x + 1 where x < {k}",
    "delete from t where x = {k}",
    "insert into t values ({k}); delete from t where x = {j}",
]


@st.composite
def programs(draw, min_rules=1):
    count = draw(st.integers(min_value=min_rules, max_value=MAX_RULES))
    rules = []
    for index in range(count):
        predicate = draw(st.sampled_from(PREDICATES))
        has_inserted = "inserted into t" in predicate
        condition = draw(st.sampled_from(
            INSERTED_CONDITIONS if has_inserted else CONDITIONS
        ))
        action = draw(st.sampled_from(
            INSERTED_ACTIONS if has_inserted else ACTIONS
        ))
        k = draw(st.integers(min_value=-2, max_value=3))
        when = f"create rule r{index} when {predicate} "
        if condition is not None:
            when += f"if {condition.format(k=k)} "
        when += f"then {action.format(k=k, i=index)}"
        rules.append(when)
    return rules


@st.composite
def workloads(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    blocks = []
    for _ in range(count):
        template = draw(st.sampled_from(BLOCKS))
        k = draw(st.integers(min_value=-2, max_value=4))
        j = draw(st.integers(min_value=-2, max_value=4))
        blocks.append(template.format(k=k, j=j))
    return blocks


def build(incremental, rules, sink=None):
    db = ActiveDatabase(record_seen=False, sink=sink)
    if not incremental:
        full_reeval.install(db)
    db.execute("create table t (x integer)")
    db.execute("create table log (x integer)")
    for index in range(MAX_RULES):
        db.execute(f"create table own{index} (x integer)")
    for rule in rules:
        db.execute(rule)
    return db
