#!/usr/bin/env python
"""Generate the golden WAL snapshot ``tests/golden/wal_golden.json``.

The log is a durable contract: a database written by one build is
recovered by the next. The snapshot pins every WAL frame (DDL and commit
records) that the transactions of paper Examples 3.1, 3.2 and 4.1 write
— the rules and data of ``tests/integration/test_paper_examples.py`` —
plus one transaction with several updated-column sets, NULLs and
non-ASCII text, one whose FLOATs have long decimals, so a vector is
logged as packed doubles, and two journal rules — the org chart's
``log_salaries`` and one that copies ``inserted t`` — whose copies of
their source's columns are logged in full, and ``log_salaries`` over a
dozen employees. Beside each log it pins the checkpoint frame of the end
state. A frame is pinned as ``<marker> <crc32> <length> <body>``: its
header's marker and CRC, then the length and text of the body it
inflates to, read here without the WAL's reader — a file's chunks are
one raw deflate stream, each sync-flushed less its ``00 00 FF FF``
tail, so one inflater reads them in order. The deflate bytes are not
pinned: they depend on the zlib build. A change that moves a body byte
of either format must bump ``WAL_VERSION`` / ``CHECKPOINT_VERSION`` and
regenerate on purpose (``tests/integration/test_wal_golden.py`` fails
otherwise)::

    PYTHONPATH=src python tools/gen_wal_golden.py
    PYTHONPATH=src python tools/gen_wal_golden.py --check

``--check`` regenerates and compares, writes nothing, names the
scenario and the frame that moved and exits 1 if any did.
``tests/golden/wal_golden_v3.json`` is the last version-3 snapshot, kept
unedited as the oracle of the bodies that followed it,
``wal_golden_v5.json`` the last text snapshot (version 5),
``wal_golden_v6.json`` the last snapshot of one stream per frame
(version 6, checkpoint version 4), ``wal_golden_v7.json`` the last
of packed vectors as contiguous doubles (version 7, checkpoint version
5) and ``wal_golden_v8.json`` the last that stated the format version
and the LSN in every body and the handle mark in every commit record
(version 8), kept unedited as the logs and checkpoints this build must
refuse. The last is also the oracle of this version's bodies: version 9
states ``"v"`` and ``"lsn"`` in the first frame of a log only, leaves
out a commit record's ``"hwm"`` when it is the highest handle the
record inserts, and writes the same checkpoints.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import tempfile
import zlib
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "wal_golden.json"
GOLDEN_V3 = ROOT / "tests" / "golden" / "wal_golden_v3.json"
GOLDEN_V5 = ROOT / "tests" / "golden" / "wal_golden_v5.json"
GOLDEN_V6 = ROOT / "tests" / "golden" / "wal_golden_v6.json"
GOLDEN_V7 = ROOT / "tests" / "golden" / "wal_golden_v7.json"
GOLDEN_V8 = ROOT / "tests" / "golden" / "wal_golden_v8.json"


def scenarios() -> list[dict[str, Any]]:
    """``{label, statements}``: what each golden log is the log of."""
    sys.path.insert(0, str(ROOT))
    try:
        from tests.integration import test_paper_examples as paper
    finally:
        sys.path.remove(str(ROOT))

    from repro.workloads.orgchart import ORG_RULES

    org = _Statements()
    paper.build_example_43_org(org)
    (log_salaries,) = [rule for rule in ORG_RULES if "log_salaries" in rule]
    return [
        {"label": "example_3.1", "statements": [
            paper.EMP, paper.DEPT, paper.RULE_31,
            "insert into dept values (1, 100), (2, 200), (3, 300)",
            "insert into emp values ('A', 1, 10.0, 1), ('B', 2, 10.0, 2), "
            "('C', 3, 10.0, 3)",
            "delete from dept where dept_no in (1, 2)",
        ]},
        {"label": "example_3.2", "statements": [
            paper.EMP, paper.DEPT, paper.RULE_32,
            "insert into emp values ('W', 1, 100.0, 1), ('X', 2, 100.0, 2), "
            "('Y', 3, 100.0, 3), ('Z', 4, 100.0, 4)",
            "update emp set salary = 200.0 where name = 'W'",
        ]},
        {"label": "example_4.1", "statements": [
            paper.EMP, paper.DEPT, paper.RULE_41, *org,
            "delete from emp where name = 'Jane'",
        ]},
        {"label": "multi_column_null_non_ascii", "statements": [
            "create table people (name varchar, age integer, score float, "
            "active boolean)",
            "create table notes (body varchar)",
            "insert into people values ('Zoë', 30, 1.5, true), "
            "(null, null, null, null), ('O''Brien \"Ob\"', 41, 0.1, false), "
            "('line\nbreak', 30, -2.25, null), ('雪だるま ☃', 7, 1e-07, true)",
            "insert into notes values ('keep'), ('drop')",
            "update people set score = score * 2 where age = 30; "
            "update people set name = 'Łukasz', active = null "
            "where age > 40; update people set age = null, score = null, "
            "name = null where age = 7; delete from notes where body = 'drop'; "
            "insert into notes values ('añadido'), (null)",
        ]},
        {"label": "packed_long_decimals", "statements": [
            "create table readings (sensor integer, value float)",
            "insert into readings values (1, 0.1), (2, 0.2), (3, 0.3)",
            "update readings set value = value / 3.0",
        ]},
        {"label": "journal_copies", "statements": [
            "create table emp (name varchar, salary float)",
            "create table salary_log (name varchar, salary float)",
            log_salaries,
            "create table t (x integer, g float, flag boolean)",
            "create table journal (x integer, g float, flag boolean)",
            "create rule journal_t when inserted into t "
            "then insert into journal select x, g, flag from inserted t",
            "insert into emp values ('ann', 10.0), ('bo', 20.0), ('cy', 30.0)",
            "update emp set salary = salary / 3.0",
            "update emp set salary = 50.0 where name = 'bo'",
            # equal in Python, three texts: [1,0] [1.0,-0.0] [true,false]
            "insert into t values (1, 1.0, true), (0, -0.0, false)",
        ]},
        {"label": "journal_gathers", "statements": [
            "create table emp (name varchar, dno integer, salary float)",
            "create table salary_log (name varchar, salary float)",
            log_salaries,
            "insert into emp values " + ", ".join(
                f"('emp{at:02}', {at % 3}, {10.0 * at})" for at in range(12)),
            "update emp set salary = salary * 1.5",
            # the group is [dno, salary]; the names are copied too
            "update emp set dno = 3, salary = salary + 1.0 where dno = 1",
        ]},
    ]


class _Statements(list):
    """Collects what a population helper would execute."""

    def execute(self, statement: str) -> None:
        self.append(statement)


def frames(data: bytes) -> list[str]:
    """Each frame of ``data`` as ``<marker> <crc32> <length> <body>``:
    the header's marker and CRC in hex, then the length and text of the
    body its chunk inflates to in the file's one deflate stream."""
    pinned, at = [], 0
    inflate = zlib.decompressobj(-15)
    while at < len(data):
        marker, crc, size = struct.unpack_from("<BII", data, at)
        at += 9 + size
        body = inflate.decompress(data[at - size:at] + b"\0\0\xff\xff")
        text = body.decode("ascii")
        pinned.append(f"{marker:02x} {crc:08x} {len(body)} {text}")
    return pinned


def record(statements: list[str]) -> dict[str, Any]:
    """What a fresh durable database writes for ``statements`` (one
    transaction or DDL change each): ``frames``, its WAL frames, and
    ``checkpoint``, the checkpoint frame of the end state."""
    from repro import ActiveDatabase, DurabilityManager
    from repro.durability.checkpoint import CHECKPOINT_FILENAME
    from repro.durability.wal import WAL_FILENAME

    with tempfile.TemporaryDirectory() as directory:
        db = ActiveDatabase(durability=DurabilityManager(directory, fsync=False))
        for statement in statements:
            db.execute(statement)
        db.durability.close()
        log = frames((Path(directory) / WAL_FILENAME).read_bytes())
        db.checkpoint()
        (checkpoint,) = frames(
            (Path(directory) / CHECKPOINT_FILENAME).read_bytes())
    return {"frames": log, "checkpoint": checkpoint}


def build() -> list[dict[str, Any]]:
    return [
        {"label": entry["label"], **record(entry["statements"])}
        for entry in scenarios()
    ]


def moved(golden: list[dict[str, Any]], entries: list[dict[str, Any]]
          ) -> list[str]:
    """What differs between the snapshot and a fresh build: one line per
    scenario added or dropped, per log frame and per checkpoint."""
    found = {entry["label"]: entry for entry in entries}
    pinned = {entry["label"]: entry for entry in golden}
    problems = [f"{label}: not in the snapshot"
                for label in found if label not in pinned]
    problems += [f"{label}: no longer a scenario"
                 for label in pinned if label not in found]
    for label in [label for label in found if label in pinned]:
        ours, theirs = found[label]["frames"], pinned[label]["frames"]
        problems += [f"{label}: frame {at + 1} moved"
                     for at in range(max(len(ours), len(theirs)))
                     if ours[at:at + 1] != theirs[at:at + 1]]
        if found[label]["checkpoint"] != pinned[label]["checkpoint"]:
            problems.append(f"{label}: the checkpoint moved")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate and compare, write nothing")
    args = parser.parse_args()
    entries = build()
    if args.check:
        problems = moved(json.loads(GOLDEN.read_text()), entries)
        for problem in problems:
            print(problem)
        print(f"{GOLDEN.relative_to(ROOT)}: "
              f"{'differs' if problems else 'reproduced'}")
        return 1 if problems else 0
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{GOLDEN.relative_to(ROOT)}: "
          f"{sum(len(entry['frames']) for entry in entries)} WAL frames in "
          f"{len(entries)} logs, {len(entries)} checkpoints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
