"""A thin synchronous client for the repro server.

Used by the REPL (``--connect``), the server benchmark and the server
tests; it is deliberately dependency-free (plain sockets) so any Python
process can talk to the server: importing it loads
:mod:`repro.errors` and :mod:`repro.server.protocol` and nothing of the
engine. Wire errors come back as the matching local exception — a
``conflict`` response raises :class:`~repro.errors.ConflictError`, so
client code retries exactly like embedded code does.
"""

from __future__ import annotations

import re
import socket
from typing import Any

from ..errors import (
    ConflictError,
    ExecutionError,
    ParseError,
    ReproError,
    TransactionError,
)
from .protocol import decode_response


class ServerError(ReproError):
    """An error reported by the server with no more specific type."""


_CODE_TO_ERROR = {
    "conflict": ConflictError,
    "parse": ParseError,
    "transaction": TransactionError,
    "execution": ExecutionError,
    "internal": ServerError,
}

#: what folding a statement onto one line must step around, matched
#: where the SQL lexer would match them: string literals (``''``
#: escapes), block comments, line comments, and the line breaks
#: outside all three
_FOLDED = re.compile(
    r"'[^']*(?:''[^']*)*'(?!')|/\*.*?\*/|--[^\n]*|[\r\n]", re.DOTALL
)


def _fold_piece(match: re.Match[str]) -> str:
    text = match.group()
    if text[0] == "'":
        if "\n" in text:
            raise ParseError(
                "a string literal containing a newline cannot be sent "
                "as one request line"
            )
        return text
    if text[0] == "/":
        return text.replace("\r", " ").replace("\n", " ")
    return "" if text[0] == "-" else " "


def fold(statement: str) -> str:
    """``statement`` on one request line that lexes to the same tokens.

    A line break becomes a space, a ``--`` comment is dropped up to its
    newline (which then becomes a space), and string literals and block
    comments pass through — a block comment's line breaks become
    spaces. A literal holding a newline cannot travel on one line:
    :class:`~repro.errors.ParseError`, and nothing is sent.
    """
    return _FOLDED.sub(_fold_piece, statement)


class ReproClient:
    """One connection = one server session."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7432,
        timeout: float | None = None,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    # -- plumbing ------------------------------------------------------

    def request(self, line: str) -> Any:
        """Send one request line, return the decoded response dict.

        The line goes out through :func:`fold`. Raises the exception
        matching the response's error code when ``ok`` is false.
        """
        self._sock.sendall(fold(line).encode("utf-8") + b"\n")
        reply = self._file.readline()
        if not reply:
            raise ServerError("server closed the connection")
        response = decode_response(reply)
        if response.get("ok"):
            return response.get("result")
        error = _CODE_TO_ERROR.get(response.get("code"), ServerError)
        raise error(response.get("error", "unknown server error"))

    # -- the surface ---------------------------------------------------

    def execute(self, sql: str) -> Any:
        """Run one statement (DML blocks auto-commit + retry on
        conflict server-side; conflicts in explicit transactions raise
        :class:`~repro.errors.ConflictError` here)."""
        return self.request(sql)

    def query(self, sql: str) -> Any:
        """Evaluate a select; returns the rows as lists."""
        result = self.request(sql)
        return result["rows"]

    def begin(self) -> Any:
        return self.request("\\begin")

    def commit(self) -> Any:
        return self.request("\\commit")

    def rollback(self) -> Any:
        return self.request("\\rollback")

    def stats(self) -> Any:
        return self.request("\\stats")

    def session_info(self) -> Any:
        return self.request("\\session")

    def ping(self) -> Any:
        return self.request("\\ping")

    def close(self) -> None:
        try:
            self._sock.sendall(b"\\quit\n")
            self._file.readline()
        except OSError:
            pass
        self._file.close()
        self._sock.close()

    def __enter__(self) -> ReproClient:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def connect(
    host: str = "127.0.0.1", port: int = 7432, timeout: float | None = None
) -> ReproClient:
    """Open a :class:`ReproClient` (context-manager friendly)."""
    return ReproClient(host=host, port=port, timeout=timeout)
