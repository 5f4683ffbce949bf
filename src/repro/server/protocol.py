"""The wire protocol: one request line in, one JSON line out.

Requests are UTF-8 text lines. A line starting with ``\\`` is a command
(``\\begin``, ``\\commit``, ``\\rollback``, ``\\stats``, ``\\session``,
``\\ping``, ``\\quit``); the bare words ``begin`` / ``commit`` /
``rollback`` are accepted as aliases since the SQL dialect has no
transaction statements (transactions are API-level, §5.3). Anything
else is parsed as one SQL statement — selects route to the query path,
everything else to :meth:`TransactionCoordinator.execute`. A statement
must arrive on one line, so the client folds it first (the bundled
client's :func:`~repro.server.client.fold`): line breaks outside string
literals and comments become spaces, ``--`` comments are dropped up to
their newline, and a string literal holding a newline is refused before
anything is sent. A request line longer than 65,536 bytes gets a
``parse`` error and the server closes that connection.

Responses are single-line JSON objects::

    {"ok": true, "result": ...}
    {"ok": false, "code": "conflict", "error": "..."}

Error codes: ``conflict`` (serialization conflict — retry the
transaction), ``parse``, ``transaction`` (misuse: commit without begin,
…), ``execution``, ``internal``. Conflicts on auto-commit statements
are retried server-side (the coordinator's retry contract) and only
surface after ``max_retries`` wholesale re-runs.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import (
    ConflictError,
    ExecutionError,
    ReproError,
    SqlError,
    TransactionError,
)

#: the longest request line the server reads, newline not counted
#: (asyncio's default stream limit)
MAX_LINE = 2 ** 16

#: commands a client may send (leading backslash stripped)
COMMANDS = (
    "begin",
    "commit",
    "rollback",
    "stats",
    "session",
    "ping",
    "quit",
)


def parse_request(line: str) -> tuple[str | None, str]:
    """Split one request line into ``(kind, payload)``.

    ``kind`` is ``"command"`` or ``"sql"``; the payload is the command
    word or the SQL text. Returns ``(None, error-message)`` for an
    unknown command.
    """
    text = line.strip()
    if not text:
        return None, "empty request"
    if text.startswith("\\"):
        word = text[1:].strip().lower()
        if word in ("q", "exit"):
            word = "quit"
        if word not in COMMANDS:
            return None, f"unknown command \\{word}"
        return "command", word
    lowered = text.rstrip(";").strip().lower()
    if lowered in ("begin", "commit", "rollback"):
        return "command", lowered
    return "sql", text


def render_result(result: Any) -> Any:
    """Shape an engine-level result into JSON-ready data."""
    if result is None:
        return None
    # SelectResult (query path / last standalone select)
    if hasattr(result, "columns") and hasattr(result, "rows"):
        return {
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
        }
    # TransactionResult (auto-commit operation block)
    if hasattr(result, "committed") and hasattr(result, "transitions"):
        rendered = {
            "committed": result.committed,
            "rolled_back_by": result.rolled_back_by,
            "transitions": len(result.transitions),
            "rule_firings": result.rule_firings,
        }
        if result.select_results:
            rendered["select"] = render_result(result.last_select)
        return rendered
    if isinstance(result, (str, int, float, bool)):
        return result
    if isinstance(result, dict):
        return result
    if isinstance(result, (list, tuple)):
        return [render_result(item) for item in result]
    return repr(result)


def ok_response(result: Any) -> dict[str, Any]:
    return {"ok": True, "result": render_result(result)}


def error_response(exc: BaseException) -> dict[str, Any]:
    """Map an exception to its wire error code."""
    if isinstance(exc, ConflictError):
        code = "conflict"
    elif isinstance(exc, SqlError):
        code = "parse"
    elif isinstance(exc, TransactionError):
        code = "transaction"
    elif isinstance(exc, ExecutionError):
        code = "execution"
    elif isinstance(exc, ReproError):
        code = "execution"
    else:
        code = "internal"
    return {"ok": False, "code": code, "error": str(exc)}


def encode_response(response: dict[str, Any]) -> bytes:
    """One JSON line, ready for the socket."""
    return (
        json.dumps(response, separators=(",", ":"), default=repr) + "\n"
    ).encode("utf-8")


def decode_response(line: bytes | str) -> Any:
    """Client side: parse one response line."""
    return json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
