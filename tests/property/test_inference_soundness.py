"""Inference-soundness property tests (docs/semantics.md §16).

The witness contract the typed-kernel layer relies on:

* **totality** — a witness marked ``total`` never observes a runtime
  type error: evaluating the witnessed node over any type-correct row
  (NULLs included) produces a value, never a ``ReproError``;
* **type agreement** — when the witnessed node produces a non-NULL
  value, the value's Python type lies in the witness's static type
  group (numeric / text / boolean), and matches the witness ``kind``
  exactly (``"?"`` marks a provably-NULL node, so a non-NULL value
  there is a soundness bug).

Random expressions are drawn from the same grammar the
vectorized-equivalence suite uses — including *mistyped* operands, since
soundness must hold on ill-typed programs too (their witnesses just
must not claim totality). A second group checks the consumer end to
end: typed batch kernels agree with generic kernels and the row
interpreter on values *and* errors, and whole rule transactions fire
the same rule sequences whether kernels are typed or generic (the batch
compilers called without ``kinds``), batches or rows, maintained views
or ``tests/reference/full_reeval.py``.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro import ActiveDatabase
from repro.analysis.types.infer import RuleWalk, Scope as WalkScope
from repro.analysis.types.witness import witness_of
from repro.errors import ReproError
from repro.relational import compiled
from repro.relational.compiled import (
    BatchContext,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.relational.database import Database
from repro.relational.expressions import Evaluator, Scope
from repro.relational.select import BaseTableResolver
from repro.relational.types import SqlType
from repro.sql import ast
from tests.reference import full_reeval

COLUMNS = ("a", "b", "s", "flag")
LAYOUT = (("t", COLUMNS),)

literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.5, 2.0, -1.5]),
    st.sampled_from(["", "ab", "abc", "a%"]),
).map(ast.Literal)

column_refs = st.sampled_from(
    [
        ast.ColumnRef("a", "t"),
        ast.ColumnRef("b", "t"),
        ast.ColumnRef("s", "t"),
        ast.ColumnRef("flag", "t"),
        ast.ColumnRef("a"),
        ast.ColumnRef("s"),
        ast.ColumnRef("flag"),
    ]
)

pattern_exprs = st.one_of(
    st.sampled_from(["a%", "_b", "%", "abc"]).map(ast.Literal),
    st.sampled_from([ast.ColumnRef("s", "t"), ast.Literal(None)]),
)


def _compound(children):
    binary_ops = st.sampled_from(
        ["+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=",
         "and", "or"]
    )
    return st.one_of(
        st.builds(ast.BinaryOp, binary_ops, children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["not", "-", "+"]), children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.Between, children, children, children, st.booleans()),
        st.builds(ast.Like, children, pattern_exprs, st.booleans()),
        st.builds(
            lambda operand, items, negated: ast.InList(
                operand, tuple(items), negated
            ),
            children,
            st.lists(children, min_size=1, max_size=3),
            st.booleans(),
        ),
        st.builds(
            lambda name, arg: ast.FunctionCall(name, (arg,)),
            st.sampled_from(["abs", "lower", "upper", "length"]),
            children,
        ),
        st.builds(
            lambda cond, then, default: ast.CaseExpression(
                ((cond, then),), default
            ),
            children,
            children,
            children,
        ),
    )


expressions = st.recursive(
    st.one_of(literals, column_refs), _compound, max_leaves=12
)

# type-correct rows (the catalog guarantee the kernels lean on): each
# cell is NULL or a value of its column's declared type
rows = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-4, max_value=4)),
    st.one_of(st.none(), st.sampled_from([1.5, -0.5, 2.0])),
    st.one_of(st.none(), st.sampled_from(["", "ab", "abc"])),
    st.one_of(st.none(), st.booleans()),
)


def fresh_database():
    database = Database()
    database.create_table(
        "t",
        [("a", "integer"), ("b", "float"), ("s", "varchar"),
         ("flag", "boolean")],
    )
    return database


def infer_with_witnesses(database, expression):
    """Run the walk so every subnode carries a witness."""
    scope = WalkScope()
    scope.bind("t", "t", database.schema("t"))
    RuleWalk(database, None).expression(expression, [scope])


def witnessed_nodes(expression):
    seen = {}
    for node in [expression, *ast.iter_expressions(expression)]:
        if witness_of(node) is not None:
            seen.setdefault(id(node), node)
    return list(seen.values())


def outcome(fn):
    try:
        return ("value", fn())
    except ReproError as error:
        return ("error", type(error).__name__, str(error))


GROUP_OF_TYPE = {
    SqlType.INTEGER: "numeric",
    SqlType.FLOAT: "numeric",
    SqlType.VARCHAR: "text",
    SqlType.BOOLEAN: "boolean",
}


def value_group(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "numeric"
    return "text"


KIND_OF_GROUP = {"numeric": "n", "text": "s", "boolean": "b"}


class TestInferenceSoundness:
    @given(expressions, rows)
    @settings(max_examples=250, deadline=None)
    def test_witnesses_are_sound(self, expression, row):
        database = fresh_database()
        infer_with_witnesses(database, expression)
        evaluator = Evaluator(database, BaseTableResolver(database))
        scope = Scope()
        scope.bind("t", COLUMNS, row)
        for node in witnessed_nodes(expression):
            witness = witness_of(node)
            result = outcome(lambda: evaluator.evaluate(node, scope))
            if witness.total:
                assert result[0] == "value", (
                    f"total witness observed {result!r} on "
                    f"{node!r} over row {row!r}"
                )
            if result[0] != "value" or result[1] is None:
                continue
            value = result[1]
            if witness.sql_type is not None:
                assert GROUP_OF_TYPE[witness.sql_type] == value_group(value)
            if witness.kind is not None:
                assert witness.kind != "?", (
                    f"provably-NULL witness saw value {value!r}"
                )
                assert witness.kind == KIND_OF_GROUP[value_group(value)]


class TestTypedKernelEquivalence:
    @given(expressions, st.lists(rows, min_size=1, max_size=4))
    @settings(max_examples=250, deadline=None)
    def test_typed_and_generic_kernels_agree(self, expression, table_rows):
        database = fresh_database()
        infer_with_witnesses(database, expression)
        kinds = {"a": "n", "b": "n", "s": "s", "flag": "b"}
        evaluator = Evaluator(database, BaseTableResolver(database))
        cols = [
            [row[j] for row in table_rows] for j in range(len(COLUMNS))
        ]

        def scope_for(slot):
            scope = Scope()
            scope.bind("t", COLUMNS, table_rows[slot])
            return scope

        ctx = BatchContext(cols, scope_for, evaluator)
        sel = list(range(len(table_rows)))
        for compile_fn, evaluate in (
            (compile_batch_expression, evaluator.evaluate),
            (compile_batch_predicate, evaluator.evaluate_predicate),
        ):
            typed = compile_fn(
                expression, LAYOUT, kinds=kinds, database=database
            )
            generic = compile_fn(expression, LAYOUT)
            typed_out = typed.fn(ctx, list(sel))
            generic_out = generic.fn(ctx, list(sel))
            assert typed_out[0] == generic_out[0]
            assert _describe_error(typed_out[1]) == \
                _describe_error(generic_out[1])
            # the row interpreter is the bottom-most oracle: the batch
            # values must be its per-row outcomes, truncated at its
            # first error (prefix error parity)
            for position, value in enumerate(typed_out[0]):
                assert ("value", value) == outcome(
                    lambda: evaluate(expression, scope_for(position))
                )
            if typed_out[1] is not None:
                failing = len(typed_out[0])
                assert failing < len(sel)
                result = outcome(
                    lambda: evaluate(expression, scope_for(failing))
                )
                assert result[0] == "error"
                assert result[2] == str(typed_out[1])


def _describe_error(error):
    return None if error is None else (type(error).__name__, str(error))


# ---------------------------------------------------------------------------
# end-to-end: fired-rule sequences and results across configurations

SCENARIO = [
    "create table emp (name varchar, salary integer, rate float)",
    "create table log (name varchar, salary integer)",
    "create table flagged (name varchar)",
    """create rule audit
       when inserted into emp
       if exists (select * from inserted emp where salary % 3 = 0)
       then insert into log (select name, salary from inserted emp
                             where salary % 3 = 0)""",
    """create rule flag_cheap
       when inserted into log
       if exists (select * from inserted log where salary / 2 < 8)
       then insert into flagged (select name from inserted log
                                 where salary / 2 < 8)""",
]

WORKLOAD = [
    f"insert into emp values ('e{i}', {i}, {i * 0.5})" for i in range(24)
]

QUERIES = [
    "select name, salary from log where salary * 2 >= 12 and name <> 'e9'",
    "select name from flagged where name like 'e%'",
    "select count(*) from emp where rate > 2.5 and salary % 2 = 0",
]

CONFIGS = [
    {"typed": True, "vectorized": True, "incremental": True},
    {"typed": False, "vectorized": True, "incremental": True},
    {"typed": True, "vectorized": False, "incremental": True},
    {"typed": True, "vectorized": True, "incremental": False},
    {"typed": False, "vectorized": False, "incremental": False},
]


def run_scenario(config, monkeypatch):
    adb = ActiveDatabase()
    if not config["typed"]:
        # generic kernels everywhere: the batch compilers called the way
        # the typed-versus-generic property above calls them, without
        # kinds and without a database to read witnesses against
        for compile_fn in (compile_batch_expression,
                           compile_batch_predicate):
            monkeypatch.setattr(
                compiled, compile_fn.__name__,
                lambda node, layout, kinds, database, fn=compile_fn:
                fn(node, layout),
            )
    adb.database.enable_vectorized_eval = config["vectorized"]
    if not config["incremental"]:
        full_reeval.install(adb)
    for statement in SCENARIO:
        adb.execute(statement)
    fired = []
    for statement in WORKLOAD:
        result = adb.execute(statement)
        fired.extend(
            transition.source for transition in result.transitions
        )
    selects = []
    for query in QUERIES:
        result = adb.execute(query)
        selects.append(result.select_results[0].rows)
    return fired, selects


class TestConfigurationDifferential:
    @pytest.mark.parametrize(
        "config", CONFIGS[1:],
        ids=["generic", "row-path", "non-incremental", "interpreter"],
    )
    def test_fired_sequences_and_results_match(self, config, monkeypatch):
        baseline = run_scenario(CONFIGS[0], monkeypatch)
        assert run_scenario(config, monkeypatch) == baseline

    def test_typed_kernels_actually_engaged(self):
        adb = ActiveDatabase()
        # typed kernels are batch kernels; force the layer on so this
        # check holds under the CI oracle run (REPRO_VECTORIZED_EVAL=0)
        adb.database.enable_vectorized_eval = True
        for statement in SCENARIO:
            adb.execute(statement)
        for statement in WORKLOAD:
            adb.execute(statement)
        assert adb.database.vectorized_stats.typed_kernels > 0
