#!/usr/bin/env python
"""Generate the golden parse snapshot ``tests/golden/parse_golden.json``.

The snapshot pins what the SQL front door produces for every SQL text
the repo ships: the formatter's rendering of each parsed statement, a
digest of the source span of every node ``walk()`` reaches, and for
texts that do not parse the exact ``LexError``/``ParseError``. A change
to the lexer or parser that is meant to be behaviour-preserving
generates the snapshot **on its parent commit** and must reproduce it
(``tests/integration/test_parse_golden.py``).

Texts come from five places: the lint corpus (``.sql`` scripts), every
string constant that opens like a statement in ``examples/*.py`` and in
``tests/integration/test_paper_examples.py`` (fragments completed at
run time pin error behaviour), the org-chart rule program, and bulk
``insert ... values`` statements — an org-chart load as
``load_orgchart`` writes it plus :data:`BULK_VALUES`, row lists on and
just off the all-literal form the lexer reads as one value matrix. The
texts themselves are not stored, only a hash that tells the test when a
source file moved on without the snapshot. Only public entry points are
used, so the tool runs unchanged on either side of a parser rewrite::

    PYTHONPATH=src python tools/gen_parse_golden.py
"""

from __future__ import annotations

import ast as python_ast
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parse_golden.json"


#: a Python string constant counts as SQL when it opens like a statement
_SQL_OPENING = re.compile(
    r"\s*(create|drop|insert|delete|update|select|assert|explain)\b", re.I
)


#: multi-row VALUES texts: literal forms, near misses, malformed lists
BULK_VALUES = [
    "insert into t values (1, -2.5, 'it''s', null), (+5, - 7, '\n', TRUE)",
    "insert into t (a, b) values (1., .5), (1e5, -1.e-3), (007, -0.0)",
    "insert into t values\n  ('a\nb', 1),\n  ('c', NuLl)\n;\nselect * from t",
    "insert into t values " + ",\n".join(
        f"('r{n}', {n}, {n}.25, -{n}e-2, {('null', 'true', 'FALSE')[n % 3]})"
        for n in range(400)),
    "create rule r when inserted into t then insert into u values "
    "(1, 'x'), (2, 'y'); insert into u values (-1, null)",
    "insert into t values (1, 2), (3, 1 + 1)",
    "insert into t values (1, 2), (3, (select max(a) from t))",
    "insert into t values (1, 2) -- c\n, (3, 4)",
    "insert into t values (1, /* c */ 2), (3, 4)",
    "insert into t values (- -5), (--5\n)",
    "insert into t values (1, 2) (3, 4)",
    "insert into t values (1 2)",
    "insert into t values (1,)",
    "insert into t values ()",
    "insert into t values (1, 2),",
    "insert into t values (1, 2), (3, 4),\n",
    "insert into t values (1, 2), (3, 4",
    "insert into t values (nullx), (-null)",
    "insert into t values (1..2)",
    "insert into t values (12abc)",
    "insert into t values (1, 'oops)",
    "insert into t values (1, \u00b2)",
]


def _sql_constants(path: Path) -> Iterator[str]:
    seen: set[str] = set()
    for node in python_ast.walk(python_ast.parse(path.read_text())):
        if (isinstance(node, python_ast.Constant)
                and isinstance(node.value, str)
                and _SQL_OPENING.match(node.value)
                and node.value not in seen):
            seen.add(node.value)
            yield node.value


def collect_texts() -> list[dict[str, str]]:
    """Every text the snapshot covers, as ``{label, mode, text}``."""
    from repro.workloads import orgchart

    texts: list[dict[str, str]] = []
    for path in sorted((ROOT / "tests" / "lint" / "corpus").glob("*.sql")):
        texts.append({"label": f"corpus/{path.name}", "mode": "script",
                      "text": path.read_text()})
    python_files = sorted((ROOT / "examples").glob("*.py"))
    python_files.append(ROOT / "tests" / "integration" / "test_paper_examples.py")
    for path in python_files:
        for index, text in enumerate(_sql_constants(path)):
            texts.append({"label": f"{path.name}#{index}",
                          "mode": "statement", "text": text})
    for index, text in enumerate(orgchart.ORG_RULES):
        texts.append({"label": f"orgchart.ORG_RULES#{index}",
                      "mode": "statement", "text": text})
    load: list[str] = []
    recorder = type("Recorder", (), {"execute": staticmethod(load.append)})
    orgchart.load_orgchart(
        recorder, orgchart.build_orgchart(depth=6, branching=2, seed=1),
        batch_size=100)
    for index, text in enumerate(load + BULK_VALUES):
        texts.append({"label": f"bulk#{index}", "mode": "statement",
                      "text": text})
    return texts


def _error_record(error: Exception) -> dict[str, Any]:
    record: dict[str, Any] = {"type": type(error).__name__,
                              "message": str(error)}
    token = getattr(error, "token", None)
    if token is not None:
        record["token"] = [token.kind.name, token.value, token.text,
                           token.position, token.line, token.column]
    if hasattr(error, "position"):
        record["at"] = [error.position, error.line, error.column]
    return record


def outcome(mode: str, text: str) -> dict[str, Any]:
    """What the front door does with ``text``: formatted statements and
    the span of every node, or the error it raises."""
    from repro.errors import SqlError
    from repro.sql import Parser, format_node, parse_statement, span_of, walk

    try:
        if mode == "script":
            statements = Parser(text).parse_script()
        else:
            statements = [parse_statement(text)]
    except SqlError as error:
        return {"error": _error_record(error)}
    spans = [
        f"{type(node).__name__} {span_listing(span_of(node))}"
        for statement in statements for node in walk(statement)
    ]
    return {"formatted": [format_node(s) for s in statements],
            "nodes": len(spans), "spans_sha": digest("\n".join(spans))}


def span_listing(span: Any) -> str:
    if span is None:
        return "-"
    return (f"{span.line}:{span.column}-{span.end_line}:{span.end_column} "
            f"[{span.offset}:{span.end_offset}]")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build() -> list[dict[str, Any]]:
    return [
        {"label": entry["label"], "text_sha": digest(entry["text"]),
         **outcome(entry["mode"], entry["text"])}
        for entry in collect_texts()
    ]


def main() -> int:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    entries = build()
    GOLDEN.write_text(json.dumps(entries, indent=0, ensure_ascii=False) + "\n")
    parsed = sum("formatted" in entry for entry in entries)
    print(f"{GOLDEN.relative_to(ROOT)}: {len(entries)} texts "
          f"({parsed} parse, {len(entries) - parsed} raise)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
