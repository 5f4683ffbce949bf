"""Differential test: the set mutators against a tuple-at-a-time model
of the storage they replaced (``tests/reference/row_mutators.py``).

One random program — a schema, some indexes, then inserts, updates,
deletes, savepoints and rollbacks to them, in sets of 0 to 1,000 tuples
— runs on two databases: through ``Database.insert_rows`` /
``assign_columns`` / ``delete_rows`` and the production undo log on one,
tuple by tuple on the model on the other. After every step the two must
be indistinguishable through the production tables' public accessors:
scan order, live slots, storage size and tombstones (so compaction
happened at the same tuples), rows and column vectors, every index
bucket, the number of compactions and merge inserts, and the handles
issued — and zone maps, which
must moreover cover every live value in their zone, also after undo
revived or merged slots. A set holding a bad value must raise what the
reference raises at its first bad tuple and leave no trace at all.

FLOAT columns also hold NaN, ±0.0 and ±inf. NaN equals nothing, so
the indexes hold no NaN entry while the reference index keeps a bucket
per NaN object: the comparison drops the reference's NaN buckets. After
every step each index is probed with values of every kind — an
integer, an integral float, a boolean, a string, NULL, NaN, -0.0 and
inf — against those buckets, and ``where c = <probe>`` must return the
same rows, in the same order, as on a copy of the database without
indexes.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.records import replace
from repro.relational.database import Database
from repro.relational.select import evaluate_select
from repro.relational.stats import ZONE_SHIFT, ZONE_SIZE
from repro.sql import ast
from repro.sql.parser import parse_select

from ..reference.row_mutators import ModelDatabase

TYPES = ("integer", "float", "varchar", "boolean")
SET_SIZES = (0, 1, 2, 7, ZONE_SIZE - 1, ZONE_SIZE, ZONE_SIZE + 1, 1000)
#: a value spread wide enough that most values in a set are distinct
WIDE_SPREAD = 4096
#: index probes, one of every kind a value or a literal can have
PROBES = (1, 2.0, True, "s1", None, math.nan, -0.0, math.inf)
#: the probes ``where c = <probe>`` is well-typed for, per column type
SQL_PROBES = {
    "integer": (1, 2.0, -0.0, math.inf, math.nan, None),
    "float": (1, 2.0, -0.0, math.inf, math.nan, None),
    "varchar": ("s1", None),
    "boolean": (True, None),
}


def value_of(rng, type_name, spread):
    """A value the column accepts — NULLs, integers in float columns and
    integral floats in integer columns included."""
    roll = rng.random()
    if roll < 0.1:
        return None
    if type_name == "integer":
        number = rng.randrange(spread)
        return float(number) if roll < 0.2 else number
    if type_name == "float":
        if roll >= 0.9:  # a fresh NaN object each time
            return rng.choice((float("nan"), 0.0, -0.0, math.inf, -math.inf))
        number = rng.randrange(spread)
        return number if roll < 0.3 else number + rng.choice((0.0, 0.5))
    if type_name == "varchar":
        return f"s{rng.randrange(spread)}"
    return rng.random() < 0.5


def bad_value_for(type_name):
    return {"integer": 1.5, "float": "x", "varchar": 7, "boolean": 1}[type_name]


def observed(database):
    """What a write can leave behind in the one table ``t``, read through
    public accessors (the model's ``observed()`` has the same keys)."""
    table = database.table("t")
    batch = table.batch()
    rows = table.rows()
    return {
        "handles": table.handles(),
        "rows": rows,
        "exact": [[repr(value) for value in row] for row in rows],
        "vectors": table.column_vectors(table.handles()),
        "slots": batch.sel,
        "storage": len(batch.handles),
        "tombstones": table.tombstones,
        "compactions": table.compactions,
        "merge_inserts": table.merge_inserts,
        "indexes": {index.name: index.buckets() for index in table.indexes},
    }


def without_nan(buckets):
    """``buckets`` without NaN keys: NaN equals nothing, so the indexes
    under test hold no entry for it."""
    return {key: handles for key, handles in buckets.items() if key == key}


def exact(rows):
    return [[repr(value) for value in row] for row in rows]


def zones(stats):
    return [(list(mins), list(maxs)) for mins, maxs in stats.zones]


def zones_cover_live_values(table):
    """Every live non-NULL value lies within its zone's bounds; a zone
    holding a NaN, which orders against nothing, spans the whole line."""
    batch = table.batch()
    for slot, row in zip(batch.sel, batch.rows()):
        for (mins, maxs), value in zip(table.stats.zones, row):
            if value is not None:
                zone = slot >> ZONE_SHIFT
                assert mins[zone] is not None
                if value == value:
                    assert mins[zone] <= value <= maxs[zone]
                else:
                    assert (mins[zone], maxs[zone]) == (-math.inf, math.inf)


class Pair:
    """The database under test and the model, run in lockstep."""

    def __init__(self, types, indexed):
        self.types = types
        self.indexed = indexed
        self.names = [f"c{position}" for position in range(len(types))]
        self.ours = Database()
        self.model = ModelDatabase()
        #: ours without its indexes, written alongside it
        self.plain = Database()
        for database in (self.ours, self.model, self.plain):
            database.create_table("t", list(zip(self.names, types)))
            for position in indexed if database is not self.plain else ():
                database.create_index(
                    f"i{position}", "t", self.names[position])
        self.ours.transactions.begin()
        self.plain.transactions.begin()
        self.model.begin()
        self.savepoints = []
        template = parse_select("select * from t where c0 = 1")
        #: ``select * from t where c = <probe>`` per indexed column
        self.selects = {
            (position, probe): replace(
                template, where=ast.BinaryOp(
                    "=", ast.ColumnRef(self.names[position]),
                    ast.Literal(probe)))
            for position in indexed for probe in SQL_PROBES[types[position]]
        }

    def live(self):
        return self.ours.table("t").handles()

    def check(self):
        ours = self.ours
        theirs = self.model.table("t").observed()
        theirs["indexes"] = {name: without_nan(buckets)
                             for name, buckets in theirs["indexes"].items()}
        assert observed(ours) == theirs
        assert ours.handles.issued_count == self.model.issued_count
        table = ours.table("t")
        assert zones(table.stats) == zones(self.model.table("t").stats)
        zones_cover_live_values(table)
        for index, reference in zip(table.indexes,
                                    self.model.table("t").indexes):
            buckets = without_nan(reference.buckets)
            assert len(index.buckets()) == index.key_count == len(buckets)
            for probe in PROBES:
                expected = sorted(handle for key, handles in buckets.items()
                                  if key == probe for handle in handles)
                assert index.lookup(probe) == expected
        for select in self.selects.values():
            assert exact(evaluate_select(ours, select).rows) == exact(
                evaluate_select(self.plain, select).rows)

    # -- steps --------------------------------------------------------------

    def insert(self, rows):
        columns = ([list(column) for column in zip(*rows)]
                   if rows else [[] for _ in self.names])
        handles = self.ours.insert_rows("t", columns)
        assert list(handles) == self.model.insert_rows("t", rows)
        self.plain.insert_rows("t", columns)

    def update(self, handles, positions, vectors):
        names = [self.names[position] for position in positions]
        old = self.ours.assign_columns("t", handles, names, vectors)
        assert old == self.model.update_rows("t", handles, names, vectors)
        self.plain.assign_columns("t", handles, names, vectors)

    def delete(self, handles):
        rows = self.ours.delete_rows("t", handles)
        assert rows == self.model.delete_rows("t", handles)
        self.plain.delete_rows("t", handles)

    def savepoint(self):
        self.savepoints.append((
            self.ours.transactions.savepoint(), self.model.savepoint(),
            self.plain.transactions.savepoint()))

    def rollback_to(self, depth):
        ours, theirs, plain = self.savepoints[depth]
        del self.savepoints[depth + 1:]
        self.ours.transactions.rollback_to_savepoint(ours)
        self.model.rollback_to_savepoint(theirs)
        self.plain.transactions.rollback_to_savepoint(plain)

    def failing(self, write, tuples):
        """``write`` must raise what the reference raises coercing the
        first bad tuple of ``tuples`` — one per tuple, each a list of
        ``(column position, value)`` — and change nothing."""
        schema = self.ours.schema("t")
        before = observed(self.ours)
        version = self.ours.table("t").mutations
        log_length = self.ours.transactions.savepoint()
        with pytest.raises(ReproError) as expected:
            for values in tuples:
                for position, value in values:
                    schema.columns[position].coerce(value, "t")
        with pytest.raises(ReproError) as raised:
            write()
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        assert observed(self.ours) == before
        assert self.ours.table("t").mutations == version
        assert self.ours.transactions.savepoint() == log_length


def run_program(seed, types, indexed, spreads, steps):
    rng = random.Random(seed)
    pair = Pair(types, indexed)
    arity = len(types)

    def row():
        return [value_of(rng, types[position], spreads[position])
                for position in range(arity)]

    for kind, size, fraction in steps:
        live = pair.live()
        if kind == "insert":
            pair.insert([row() for _ in range(size)])
        elif kind == "bad_insert":
            rows = [row() for _ in range(max(size, 1))]
            for _ in range(rng.choice((1, 2))):
                victim = rng.randrange(len(rows))
                position = rng.randrange(arity)
                rows[victim][position] = bad_value_for(types[position])
            pair.failing(
                lambda: pair.ours.insert_rows(
                    "t", [list(column) for column in zip(*rows)]),
                [list(enumerate(values)) for values in rows],
            )
        elif kind in ("update", "bad_update") and live:
            chosen = rng.sample(live, min(len(live), max(size, 1)))
            if rng.random() < 0.5:
                chosen.sort()  # the order a scan hands DML its tuples in
            positions = rng.sample(range(arity), rng.randint(1, arity))
            vectors = [
                [value_of(rng, types[position], spreads[position])
                 for _ in chosen]
                for position in positions
            ]
            if kind == "update":
                pair.update(chosen, positions, vectors)
            else:
                column = rng.randrange(len(positions))
                vectors[column][rng.randrange(len(chosen))] = bad_value_for(
                    types[positions[column]])
                names = [pair.names[position] for position in positions]
                pair.failing(
                    lambda: pair.ours.assign_columns(
                        "t", chosen, names, vectors),
                    [list(zip(positions, values))
                     for values in zip(*vectors)],
                )
        elif kind == "delete" and live:
            count = max(1, int(len(live) * fraction)) if size else 0
            chosen = rng.sample(live, count)
            if rng.random() < 0.5:
                chosen.sort()
            pair.delete(chosen)
        elif kind == "savepoint":
            pair.savepoint()
        elif kind == "rollback" and pair.savepoints:
            pair.rollback_to(rng.randrange(len(pair.savepoints)))
        pair.check()
    pair.ours.transactions.rollback()
    pair.plain.transactions.rollback()
    pair.model.rollback()
    pair.check()
    assert pair.ours.table("t").snapshot() == {}


steps = st.lists(
    st.tuples(
        st.sampled_from([
            "insert", "insert", "insert", "update", "update", "delete",
            "delete", "savepoint", "rollback", "bad_insert", "bad_update",
        ]),
        st.sampled_from(SET_SIZES),
        st.sampled_from([0.1, 0.5, 0.7, 1.0]),
    ),
    min_size=1, max_size=9,
)
schemas = st.lists(st.sampled_from(TYPES), min_size=1, max_size=4)


class TestSetMutatorsAgainstRowAtATime:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32), types=schemas, steps=steps,
        data=st.data(),
    )
    def test_random_programs(self, seed, types, steps, data):
        indexed = data.draw(st.sets(st.integers(0, len(types) - 1)))
        spreads = data.draw(st.lists(
            st.sampled_from([3, 40, WIDE_SPREAD]),
            min_size=len(types), max_size=len(types),
        ))
        run_program(seed, types, sorted(indexed), spreads, steps)

    @pytest.mark.parametrize("size", SET_SIZES)
    def test_every_set_size_through_a_full_life(self, size):
        """Insert, overwrite, half-delete, restore and delete one set of
        each size, across the zone boundaries."""
        run_program(
            size, ["integer", "float", "varchar"], [0, 2],
            [WIDE_SPREAD, 40, 3],
            [("insert", 300, 0), ("savepoint", 0, 0), ("insert", size, 0),
             ("update", size, 0), ("delete", 1, 0.5), ("savepoint", 0, 0),
             ("delete", 1, 1.0), ("insert", size, 0), ("rollback", 0, 0),
             ("bad_insert", size, 0), ("bad_update", size, 0),
             ("delete", 1, 0.7), ("insert", size, 0)],
        )


class TestLocate:
    """``Table.locate`` — the merge walk that replaced the handle→slot
    dict — against that dict, on storage with allocation gaps and
    tombstones, for sets in every order and shape; a set naming a dead
    handle, or one handle twice, is refused with the first offender."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_against_a_slot_dict(self, seed):
        rng = random.Random(seed)
        database = Database()
        database.create_table("t", [("a", "integer")])
        database.create_table("u", [("a", "integer")])
        for _ in range(rng.randint(1, 8)):
            database.insert_rows(
                rng.choice("tu"), [[1] * rng.randint(1, 2 * ZONE_SIZE)])
        table = database.table("t")
        if len(table) > 2 and rng.random() < 0.6:
            live = table.handles()
            database.delete_rows(
                "t", rng.sample(live, rng.randint(1, len(live) - 1)))
        batch = table.batch()
        slot_of = {batch.handles[slot]: slot for slot in batch.sel}
        live = table.handles()
        if not live:
            return
        dead = sorted(set(range(1, database.handles.issued_count + 2))
                      - set(live))
        for _ in range(10):
            count = rng.randint(1, len(live))
            shape = rng.random()
            if shape < 0.3:
                chosen = rng.sample(live, count)
            elif shape < 0.6:
                chosen = sorted(rng.sample(live, count))
            else:
                start = rng.randrange(len(live))
                chosen = live[start:start + count]
            assert table.locate(chosen) == [slot_of[h] for h in chosen]
            bad = list(chosen)
            at = rng.randrange(len(bad) + 1)
            bad.insert(at, rng.choice(chosen if rng.random() < 0.5 else dead))
            seen, expected = set(), None
            for handle in bad:
                if handle in seen:
                    expected = f"handle {handle} named twice"
                elif handle not in slot_of:
                    expected = f"handle {handle} is not live"
                if expected:
                    break
                seen.add(handle)
            with pytest.raises(ReproError, match=expected):
                table.locate(bad)
