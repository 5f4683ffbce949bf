"""Unit tests for the compiled-expression layer (repro.relational.compiled).

The differential/property suites assert batch kernels ≡ the interpreter
wholesale; these tests pin the layer's mechanics: slot resolution, error
parity and laziness, fallback classification, cache behaviour against
the schema version, the environment gate, and the memoized LIKE pattern
compiler.
"""

import pytest

from repro.errors import ExecutionError
from repro.relational.batch import Batch, JoinedBatch
from repro.relational.compiled import (
    BatchContext,
    CompilerStats,
    batch_context,
    batch_program_for,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.relational.database import Database
from repro.relational.expressions import Evaluator, Scope, _like_to_regex
from repro.relational.select import BaseTableResolver
from repro.sql.parser import parse_expression
from tests.reference import full_reeval

LAYOUT = (("emp", ("name", "salary", "dept_no")),)


def evaluator_for(database=None):
    database = database or Database()
    return Evaluator(database, BaseTableResolver(database))


def run(program, combos, layout=LAYOUT, evaluator=None, outer=None):
    """``program``'s values over one batch entry per combination of
    ``combos`` (one row per binding of ``layout``), raising the first
    error in row order."""
    parts = [
        Batch.from_rows([combo[i] for combo in combos], len(columns))
        for i, (_, columns) in enumerate(layout)
    ]
    entries = list(range(len(combos)))
    if len(parts) == 1:
        (batch,) = parts
    else:
        batch = JoinedBatch(parts, [entries] * len(parts), entries)
    ctx = batch_context(batch, layout, outer, evaluator, None)
    values, error = program.fn(ctx, batch.sel)
    if error is not None:
        raise error
    return values


class TestSlotResolution:
    def test_qualified_ref_reads_tuple_slot(self):
        program = compile_batch_expression(
            parse_expression("emp.salary"), LAYOUT
        )
        assert run(program, [(("carol", 900, 2),), (("dave", 5, 1),)]) \
            == [900, 5]
        assert not program.needs_scope
        assert program.nodes_fallback == 0

    def test_unqualified_ref_reads_tuple_slot(self):
        program = compile_batch_expression(parse_expression("dept_no"), LAYOUT)
        assert run(program, [(("carol", 900, 2),)]) == [2]

    def test_multi_binding_layout(self):
        layout = (("e", ("a", "b")), ("d", ("c",)))
        program = compile_batch_expression(
            parse_expression("e.b + d.c"), layout
        )
        assert run(program, [((1, 2), (30,)), ((1, 5), (7,))], layout) \
            == [32, 12]

    def test_ambiguous_unqualified_ref_matches_interpreter_error(self):
        layout = (("e1", ("salary",)), ("e2", ("salary",)))
        node = parse_expression("salary")
        program = compile_batch_expression(node, layout)
        with pytest.raises(ExecutionError) as compiled_error:
            run(program, [((1,), (2,))], layout)
        scope = Scope()
        scope.bind("e1", ("salary",), (1,))
        scope.bind("e2", ("salary",), (2,))
        with pytest.raises(ExecutionError) as interpreted_error:
            evaluator_for().evaluate(node, scope)
        assert str(compiled_error.value) == str(interpreted_error.value)

    def test_missing_column_matches_interpreter_error(self):
        node = parse_expression("emp.nosuch")
        program = compile_batch_expression(node, LAYOUT)
        with pytest.raises(ExecutionError) as compiled_error:
            run(program, [(("carol", 900, 2),)])
        scope = Scope()
        scope.bind("emp", ("name", "salary", "dept_no"), ("carol", 900, 2))
        with pytest.raises(ExecutionError) as interpreted_error:
            evaluator_for().evaluate(node, scope)
        assert str(compiled_error.value) == str(interpreted_error.value)

    def test_bad_ref_error_is_lazy_under_short_circuit(self):
        """``false and emp.nosuch = 1`` must evaluate to False, exactly as
        the interpreter's short-circuit leaves the bad ref unevaluated."""
        program = compile_batch_predicate(
            parse_expression("false and emp.nosuch = 1"), LAYOUT
        )
        assert run(program, [(("carol", 900, 2),)]) == [False]
        program = compile_batch_predicate(
            parse_expression("true or 1 / 0 = 1"), LAYOUT
        )
        assert run(program, [(("carol", 900, 2),)]) == [True]


class TestFallbacks:
    def test_subquery_falls_back_to_interpreter(self):
        database = Database()
        database.create_table("t", [("x", "integer")])
        database.insert_row("t", (1,))
        node = parse_expression("exists (select * from t)")
        program = compile_batch_predicate(node, LAYOUT)
        assert program.needs_scope
        assert program.nodes_fallback == 1
        assert run(
            program, [(("carol", 900, 2),)], evaluator=evaluator_for(database)
        ) == [True]

    def test_outer_scope_ref_falls_back(self):
        program = compile_batch_expression(parse_expression("outer_col"), LAYOUT)
        assert program.needs_scope
        outer = Scope()
        outer.bind("o", ("outer_col",), (7,))
        assert run(
            program, [(("carol", 900, 2),)], evaluator=evaluator_for(),
            outer=outer,
        ) == [7]

    def test_aggregate_call_falls_back(self):
        # outside a group batch an aggregate is the interpreter's, and
        # it needs the scope chain its group hangs off
        program = compile_batch_expression(
            parse_expression("count(*)"), LAYOUT
        )
        assert program.needs_scope

    def test_pure_program_skips_scope(self):
        program = compile_batch_predicate(
            parse_expression("salary > 500 and name like 'c%'"), LAYOUT
        )
        assert not program.needs_scope
        # no scope builder, no evaluator — the columns suffice
        batch = Batch.from_rows([("carol", 900, 2), ("al", 900, 2)], 3)
        assert program.fn(BatchContext(batch.cols), batch.sel) \
            == ([True, False], None)


class TestPredicateCoercion:
    def test_non_boolean_predicate_matches_interpreter_error(self):
        node = parse_expression("salary + 1")
        program = compile_batch_predicate(node, LAYOUT)
        with pytest.raises(ExecutionError) as compiled_error:
            run(program, [(("carol", 900, 2),)])
        scope = Scope()
        scope.bind("emp", ("name", "salary", "dept_no"), ("carol", 900, 2))
        with pytest.raises(ExecutionError) as interpreted_error:
            evaluator_for().evaluate_predicate(node, scope)
        assert str(compiled_error.value) == str(interpreted_error.value)

    def test_null_predicate_stays_unknown(self):
        program = compile_batch_predicate(parse_expression("null"), LAYOUT)
        assert run(program, [(("carol", 900, 2),)]) == [None]


class TestCompiledCache:
    def test_hit_on_same_node_and_layout(self):
        database = Database()
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT, predicate=True)
        second = batch_program_for(database, node, LAYOUT, predicate=True)
        assert first is second
        stats = database.compiler_stats
        assert stats.compiles == 1
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_distinct_layouts_compile_separately(self):
        database = Database()
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT)
        other_layout = (("e2", ("salary",)),)
        second = batch_program_for(database, node, other_layout)
        assert first is not second
        assert database.compiler_stats.compiles == 2

    def test_schema_change_invalidates(self):
        database = Database()
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT)
        database.create_table("t", [("x", "integer")])  # bumps schema_version
        second = batch_program_for(database, node, LAYOUT)
        assert first is not second
        assert database.compiler_stats.invalidations == 1

    def test_data_change_does_not_invalidate(self):
        database = Database()
        database.create_table("t", [("x", "integer")])
        node = parse_expression("salary > 500")
        first = batch_program_for(database, node, LAYOUT)
        database.insert_row("t", (1,))  # bumps version, not schema_version
        assert batch_program_for(database, node, LAYOUT) is first

    def test_programs_leave_with_their_statement(self):
        """One bound: evicting a statement drops its programs with it."""
        database = Database()
        database.statements.max_entries = 2
        nodes = [parse_expression(f"salary > {i}") for i in range(3)]
        programs = [
            batch_program_for(database, node, LAYOUT) for node in nodes
        ]
        assert len(database.statements) == 2
        assert batch_program_for(database, nodes[2], LAYOUT) is programs[2]
        assert batch_program_for(database, nodes[0], LAYOUT) \
            is not programs[0]
        assert database.compiler_stats.compiles == 4

    def test_snapshot_rates(self):
        stats = CompilerStats()
        stats.cache_hits = 3
        stats.cache_misses = 1
        stats.nodes_compiled = 8
        stats.nodes_fallback = 2
        snapshot = stats.snapshot()
        assert snapshot["cache_hit_rate"] == 0.75
        assert snapshot["fallback_rate"] == 0.2

    def test_delta_since_counts_one_evaluation(self):
        database = Database()
        node = parse_expression("salary > 500")
        before = database.compiler_stats.counters()
        batch_program_for(database, node, LAYOUT)
        delta = database.compiler_stats.delta_since(before)
        assert delta == {"cache_hits": 0, "cache_misses": 1, "compiles": 1}


def compiles_of_filtered_select():
    """The compiler counters after one filtered select on a fresh
    database built under the current environment."""
    from repro import ActiveDatabase

    db = ActiveDatabase(record_seen=False)
    db.execute("create table t (x integer)")
    db.execute("insert into t values (1), (2), (3)")
    assert db.rows("select x from t where x > 1") == [(2,), (3,)]
    return db.database.compiler_stats


class TestEnvironmentGate:
    # REPRO_VECTORIZED_EVAL is the one gate: off, the interpreter
    # evaluates every expression and nothing is compiled

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTORIZED_EVAL", raising=False)
        assert compiles_of_filtered_select().compiles > 0

    @pytest.mark.parametrize("value", ["0", "off", "false", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VECTORIZED_EVAL", value)
        assert compiles_of_filtered_select().compiles == 0

    def test_disabled_database_never_compiles(self, monkeypatch):
        """Rule conditions, actions, DML targeting, joins and products:
        with the gate off no path reaches the compiler."""
        monkeypatch.setenv("REPRO_VECTORIZED_EVAL", "0")
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.execute("create table t (x integer)")
        db.execute("create table u (y integer)")
        db.execute(
            "create rule copy when inserted into t "
            "if exists (select * from inserted t where x > 1) "
            "then insert into u (select x from inserted t where x > 1)"
        )
        db.execute("insert into t values (1), (2), (3)")
        db.execute("update u set y = y + 1 where y > 2")
        assert db.rows(
            "select t.x, u.y from t, u where t.x = u.y"
        ) == [(2, 2)]
        assert db.rows(
            "select t.x, u.y from t, u where t.x + u.y > 6"
        ) == [(3, 4)]
        stats = db.database.compiler_stats
        assert stats.compiles == 0
        assert stats.cache_hits == stats.cache_misses == 0


class TestLikeMemoization:
    def test_one_regex_compile_per_distinct_pattern(self, monkeypatch):
        """Regression for the memoized LIKE pattern compiler: scanning many
        rows under one pattern must translate the pattern exactly once,
        on the interpreter path as well as the batch one."""
        monkeypatch.setenv("REPRO_VECTORIZED_EVAL", "0")
        from repro import ActiveDatabase

        _like_to_regex.cache_clear()
        db = ActiveDatabase(record_seen=False)
        db.execute("create table t (s varchar)")
        rows = ", ".join(f"('name{i}')" for i in range(50))
        db.execute(f"insert into t values {rows}")
        db.execute("select s from t where s like 'name1%'")
        info = _like_to_regex.cache_info()
        assert info.misses == 1  # one translation for the distinct pattern
        assert info.hits >= 49  # every further row reused it
        db.execute("select s from t where s like 'name2%'")
        assert _like_to_regex.cache_info().misses == 2

    def test_constant_pattern_precompiled_at_compile_time(self):
        """A constant pattern is resolved before the row loop: one
        translator lookup per scan, however many rows it covers."""
        _like_to_regex.cache_clear()
        program = compile_batch_predicate(
            parse_expression("name like 'c%'"), LAYOUT
        )
        baseline = _like_to_regex.cache_info()
        rows = [((f"c{i}", 0, 0),) for i in range(25)]
        assert run(program, rows) == [True] * 25
        after = _like_to_regex.cache_info()
        assert (after.hits + after.misses) - (
            baseline.hits + baseline.misses
        ) == 1

    def test_dynamic_pattern_memoized_per_row(self):
        _like_to_regex.cache_clear()
        layout = (("t", ("s", "p")),)
        program = compile_batch_predicate(parse_expression("s like p"), layout)
        assert run(program, [(("ab", "a%"),), (("ab", "b%"),)], layout) \
            == [True, False]
        info = _like_to_regex.cache_info()
        assert info.misses == 2


class TestEngineIntegration:
    # the mode is forced on explicitly so these hold even when the
    # suite runs under REPRO_VECTORIZED_EVAL=0 (the CI oracle run)

    def test_rule_condition_reenters_cached_program(self):
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.database.enable_vectorized_eval = True
        # pin the full condition path: as shipped this condition is
        # answered from a maintained counter and never runs its
        # subquery's filter program per consideration
        full_reeval.install(db)
        db.execute("create table t (x integer)")
        db.execute(
            "create rule watch when inserted into t "
            "if exists (select * from t where x > 100) "
            "then delete from t where x > 100"
        )
        db.reset_stats()
        db.execute("insert into t values (1)")
        db.execute("insert into t values (2)")
        stats = db.stats()
        compiler = stats["compiler"]
        assert compiler["cache_hits"] > 0
        rule = stats["rules"]["watch"]
        assert rule["compile_cache_hits"] > 0
        assert rule["considerations"] == 2

    def test_stats_expose_compiler_section(self):
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.database.enable_vectorized_eval = True
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.execute("select x from t where x = 1")
        compiler = db.stats()["compiler"]
        assert compiler["compiles"] > 0
        assert 0.0 <= compiler["cache_hit_rate"] <= 1.0
        assert 0.0 <= compiler["fallback_rate"] <= 1.0

    def test_reset_stats_clears_compiler_counters(self):
        from repro import ActiveDatabase

        db = ActiveDatabase(record_seen=False)
        db.database.enable_vectorized_eval = True
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.execute("select x from t where x = 1")
        assert db.stats()["compiler"]["compiles"] > 0
        db.reset_stats()
        assert db.stats()["compiler"]["compiles"] == 0
