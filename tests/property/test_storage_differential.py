"""Differential test: the set mutators against the tuple-at-a-time
write path they replaced (``tests/reference/row_mutators.py``).

One random program — a schema, some indexes, then inserts, updates,
deletes, savepoints and rollbacks to them, in sets of 0 to 1,000 tuples
— runs on two databases: through ``Database.insert_rows`` /
``assign_columns`` / ``delete_rows`` and the production undo log on one,
tuple by tuple through the reference on the other. After every step the
two must be indistinguishable down to the storage arrays: handles, slots,
tombstones (so compaction happened at the same tuples), rows, column
vectors, every statistic and zone bound, every index bucket, and the
number of statistics rebuilds. A set holding a bad value must raise what
the reference raises at its first bad tuple and leave no trace at all.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.relational.database import Database
from repro.relational.stats import DISTINCT_CAP, ZONE_SIZE

from ..reference.row_mutators import RowMutators

TYPES = ("integer", "float", "varchar", "boolean")
SET_SIZES = (0, 1, 2, 7, ZONE_SIZE - 1, ZONE_SIZE, ZONE_SIZE + 1, 1000)


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
        number = rng.randrange(spread)
        return number if roll < 0.3 else number + rng.choice((0.0, 0.5))
    if type_name == "varchar":
        return f"s{rng.randrange(spread)}"
    return rng.random() < 0.5


def bad_value_for(type_name):
    return {"integer": 1.5, "float": "x", "varchar": 7, "boolean": 1}[type_name]


def physical_state(database):
    """Everything a write can leave behind in the one table ``t``."""
    table = database.table("t")
    stats = table.stats
    return {
        "live": list(table._live.items()),
        "handles": list(table._handles),
        "valid": list(table._valid),
        "dead": table._dead,
        "tuples": [row for row, valid in zip(table._tuples, table._valid)
                   if valid],
        "cols": [[value for value, valid in zip(column, table._valid) if valid]
                 for column in table._cols],
        "exact": [[repr(value) for value in row]
                  for row in table.snapshot().values()],
        "snapshot": table.snapshot(),
        "row_count": stats.row_count,
        "drift": stats.drift,
        "rows_at_rebuild": stats.rows_at_rebuild,
        "zones": [(list(mins), list(maxs)) for mins, maxs in stats.zones],
        "columns": [
            (column.minimum, column.maximum, column.nulls,
             set(column.distinct), column.saturated,
             column.ndv(stats.row_count - column.nulls))
            for column in stats.columns
        ],
        "indexes": {
            index.name: {key: set(bucket)
                         for key, bucket in index._entries.items()}
            for index in table.indexes
        },
        "rebuilds": database.optimizer_stats.stats_rebuilds,
        "stats_epoch": database.stats_epoch,
        "issued": database.handles.issued_count,
    }


class Pair:
    """The database under test and the reference, run in lockstep."""

    def __init__(self, types, indexed):
        self.types = types
        self.names = [f"c{position}" for position in range(len(types))]
        self.ours = Database()
        self.theirs = Database()
        for database in (self.ours, self.theirs):
            database.create_table("t", list(zip(self.names, types)))
            for position in indexed:
                database.create_index(
                    f"i{position}", "t", self.names[position])
        self.reference = RowMutators(self.theirs)
        self.ours.transactions.begin()
        self.reference.begin()
        self.savepoints = []

    def live(self):
        return self.ours.table("t").handles()

    def check(self):
        assert physical_state(self.ours) == physical_state(self.theirs)

    # -- steps --------------------------------------------------------------

    def insert(self, rows):
        handles = self.ours.insert_rows(
            "t", [list(column) for column in zip(*rows)]
            if rows else [[] for _ in self.names])
        expected = [self.reference.insert_row("t", row) for row in rows]
        assert list(handles) == expected

    def update(self, handles, positions, vectors):
        names = [self.names[position] for position in positions]
        old = self.ours.assign_columns("t", handles, names, vectors)
        assert old == [
            self.reference.update_row(
                "t", handle, dict(zip(names, values)))[0]
            for handle, values in zip(handles, zip(*vectors))
        ]

    def delete(self, handles):
        rows = self.ours.delete_rows("t", handles)
        assert rows == [
            self.reference.delete_row("t", handle) for handle in handles]

    def savepoint(self):
        self.savepoints.append((
            self.ours.transactions.savepoint(), self.reference.savepoint()))

    def rollback_to(self, depth):
        ours, theirs = self.savepoints[depth]
        del self.savepoints[depth + 1:]
        self.ours.transactions.rollback_to_savepoint(ours)
        self.reference.rollback_to_savepoint(theirs)

    def failing(self, write, tuples):
        """``write`` must raise what the reference raises coercing the
        first bad tuple of ``tuples`` — one per tuple, each a list of
        ``(column position, value)`` — and change nothing."""
        schema = self.ours.schema("t")
        before = physical_state(self.ours)
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
        assert physical_state(self.ours) == before
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
    pair.reference.rollback()
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
            st.sampled_from([3, 40, 4 * DISTINCT_CAP]),
            min_size=len(types), max_size=len(types),
        ))
        run_program(seed, types, sorted(indexed), spreads, steps)

    @pytest.mark.parametrize("size", SET_SIZES)
    def test_every_set_size_through_a_full_life(self, size):
        """Insert, overwrite, half-delete, restore and delete one set of
        each size, across the zone and distinct-cap boundaries."""
        run_program(
            size, ["integer", "float", "varchar"], [0, 2],
            [4 * DISTINCT_CAP, 40, 3],
            [("insert", 300, 0), ("savepoint", 0, 0), ("insert", size, 0),
             ("update", size, 0), ("delete", 1, 0.5), ("savepoint", 0, 0),
             ("delete", 1, 1.0), ("insert", size, 0), ("rollback", 0, 0),
             ("bad_insert", size, 0), ("bad_update", size, 0),
             ("delete", 1, 0.7), ("insert", size, 0)],
        )

    def test_saturation_at_the_distinct_cap_is_the_same_tuple(self):
        pair = Pair(["integer"], [])
        pair.insert([[value] for value in range(DISTINCT_CAP - 3)])
        pair.check()
        assert not pair.ours.table("t").stats.columns[0].saturated
        pair.insert([[value] for value in range(DISTINCT_CAP - 5,
                                                DISTINCT_CAP + 5)])
        pair.check()
        column = pair.ours.table("t").stats.columns[0]
        assert column.saturated and len(column.distinct) == DISTINCT_CAP
