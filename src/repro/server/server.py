"""The socket server: one ``selectors`` loop, many sessions.

A *tick* is one ``select()``, then one request run to completion for
every connection with a whole line buffered: transactions interleave
only as the :class:`~repro.concurrency.TransactionCoordinator` allows.
Replies to requests that may have committed (non-``select`` SQL,
``\\commit``) wait for one WAL ``flush()`` at the end of the tick (group
commit: no ack before durability; a failed flush becomes each reply).
A connection with a reply unsent or a whole line buffered is not read.
A fault in one connection's work drops that connection only.
"""

from __future__ import annotations

import contextvars
import selectors
import socket
import sys
import threading
from contextlib import suppress

from ..concurrency import TransactionCoordinator
from . import protocol

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_RESULTS = {"ping": "pong", "quit": "bye", "begin": "begun",
            "rollback": "rolled back"}


class _Connection:
    """A client socket, its session, buffers and request context."""

    __slots__ = ("sock", "session", "context", "inbox", "outbox", "events",
                 "eof", "closing")

    def __init__(self, sock, session):
        self.sock, self.session = sock, session
        self.context = contextvars.Context()
        self.inbox, self.outbox = bytearray(), bytearray()
        self.events, self.eof, self.closing = _READ, False, False

    def runnable(self):
        """A request line (or the end of the stream) waits to be run."""
        return not (self.outbox or self.closing) and (
            self.eof or b"\n" in self.inbox
            or len(self.inbox) > protocol.MAX_LINE)


class RuleServer:
    """Serve one :class:`~repro.system.ActiveDatabase` over TCP.

    Args: ``host``/``port`` the bind address (port 0 picks a free one:
    see :attr:`address`), ``mode`` ``"occ"`` or ``"2pl"``,
    ``max_retries`` server-side wholesale retries of conflicting
    auto-commit statements, ``group_commit`` one fsync for the commits
    of a tick (with durability attached).
    """

    def __init__(self, system, host="127.0.0.1", port=0, mode="occ",
                 max_retries=5, group_commit=True):
        self.system, self.host, self.port = system, host, port
        self.coordinator = TransactionCoordinator(
            system, mode=mode, max_retries=max_retries)
        if system.durability is not None and group_commit:
            system.durability.group_commit = True
        self._selector = self._listener = self._wake = self._thread = None
        self._connections, self._stopping = {}, False
        self._done = threading.Event()
        self.connections = 0

    @property
    def address(self):
        """``(host, port)`` actually bound (after :meth:`start`)."""
        return self._listener.getsockname()[:2]

    async def start(self):
        """Bind, run the loop on a daemon thread, return the address."""
        self._bind()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self.address

    def serve_forever(self):
        """Run the loop in this thread until :meth:`stop` (after
        :meth:`start`: wait for that loop to end instead of racing it)."""
        if self._thread is not None:
            return self._thread.join()
        if self._selector is None:
            self._bind()
        self._loop()

    async def stop(self):
        """End the loop; it closes every socket and flushes the WAL. This
        blocks the calling thread until the loop has ended, which is after
        the request it is running, if any."""
        if self._selector is not None:
            self._stopping = True
            with suppress(OSError):  # unless the loop has closed it
                self._wake[1].send(b"\0")
            self._done.wait()

    def _bind(self):
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server(
            (self.host, self.port), family=family, backlog=100)
        self._listener.setblocking(False)
        self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, _READ)
        self._selector.register(self._wake[0], _READ)

    def _loop(self):
        try:
            while not self._stopping:
                self._tick()
        finally:
            try:
                for connection in list(self._connections.values()):
                    self._guard(self._drop, connection)
                for closable in (self._selector, self._listener, *self._wake):
                    closable.close()
                self._selector = None
                if self.system.durability is not None:
                    self.system.durability.flush()
            finally:
                self._done.set()

    def _tick(self):
        busy = any(c.runnable() for c in self._connections.values())
        for key, events in self._selector.select(0 if busy else None):
            if key.data is not None:
                self._guard(self._send if events & _WRITE else self._receive,
                            key.data)
            elif key.fileobj is self._listener:
                self._accept()
            else:
                key.fileobj.recv(64)  # stop() woke the loop
        held = []
        for connection in list(self._connections.values()):
            if connection.runnable():
                self._guard(self._step, connection, held)
        if held:
            manager, failure = self.system.durability, None
            if manager is not None and manager.group_commit:
                try:  # one fsync covers every commit of the tick
                    held[0][0].context.run(manager.flush)
                except Exception as exc:  # noqa: BLE001 - the acks carry it
                    failure = protocol.error_response(exc)
            for connection, response in held:
                self._guard(self._reply, connection, failure or response)

    def _guard(self, work, connection, *args):
        """Run one connection's work: a fault drops that connection only."""
        try:
            work(connection, *args)
        except Exception as exc:  # noqa: BLE001 - the others are served on
            if not isinstance(exc, OSError):  # not just a peer gone
                print(f"repro server: dropped a client: {exc!r}", file=sys.stderr)
            self._drop(connection)

    def _accept(self):
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the client has gone already
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(sock, self.coordinator.open_session())
        self._connections[sock] = connection
        self._selector.register(sock, _READ, connection)
        self.connections += 1

    def _receive(self, connection):
        if b"\n" in connection.inbox:
            return  # a whole line waits: read no more until it has run
        try:
            data = connection.sock.recv(protocol.MAX_LINE + 1)
        except BlockingIOError:
            return
        connection.inbox += data
        connection.eof = not data

    def _send(self, connection):
        try:
            sent = connection.sock.send(connection.outbox)
        except BlockingIOError:
            sent = 0
        del connection.outbox[:sent]
        if connection.closing and not connection.outbox:
            return self._drop(connection)
        events = _WRITE if connection.outbox else _READ
        if events != connection.events:
            connection.events = events
            self._selector.modify(connection.sock, events, connection)

    def _drop(self, connection):
        if self._connections.pop(connection.sock, None) is None:
            return  # dropped already
        self._selector.unregister(connection.sock)
        with suppress(OSError):  # a FIN ahead of any reset for unread bytes
            connection.sock.shutdown(socket.SHUT_WR)
        connection.sock.close()
        self.coordinator.close_session(connection.session)

    def _reply(self, connection, response):
        try:
            line = connection.context.run(protocol.encode_response, response)
        except Exception as exc:  # noqa: BLE001 - e.g. a 5,000-digit int
            line = protocol.encode_response(protocol.error_response(exc))
        connection.outbox += line
        self._send(connection)

    def _step(self, connection, held):
        """Run the connection's next request line, or close it at EOF."""
        inbox = connection.inbox
        end = inbox.find(b"\n", 0, protocol.MAX_LINE + 1)
        if end < 0 and len(inbox) > protocol.MAX_LINE:
            connection.closing = True  # the stream position is lost
            return self._reply(connection, _parse_error(
                f"request line longer than {protocol.MAX_LINE} bytes"))
        if end < 0:  # the stream has ended
            if not inbox:
                return self._drop(connection)
            end = len(inbox)
        line = inbox[:end]
        del inbox[:end + 1]
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return self._reply(
                connection, _parse_error("request is not valid UTF-8"))
        response, connection.closing, hold = connection.context.run(
            self._request, connection.session, text)
        if hold:
            held.append((connection, response))
        else:
            self._reply(connection, response)

    def _request(self, session, text):
        """``(response, closing, held)``: held if it may have committed."""
        kind, payload = protocol.parse_request(text)
        if kind is None:
            return _parse_error(payload), False, False
        try:
            if kind == "command":
                return self._command(session, payload)
            select = payload.lstrip().lower().startswith("select")
            run = self.coordinator.query if select else self.coordinator.execute
            return protocol.ok_response(run(session, payload)), False, not select
        except Exception as exc:  # noqa: BLE001 - everything maps to a code
            return protocol.error_response(exc), False, False

    def _command(self, session, word):
        if word == "commit":
            result = self.coordinator.commit(session)
            return protocol.ok_response(result), False, True
        if word in ("begin", "rollback"):
            getattr(self.coordinator, word)(session)
        if word == "session":
            result = {"name": session.name, "in_transaction": session.in_txn,
                      "statements": session.statements,
                      "commits": session.commits,
                      "conflicts": session.conflicts}
        elif word == "stats":
            result = self.system.stats()
        else:
            result = _RESULTS[word]
        return {"ok": True, "result": result}, word == "quit", False


def _parse_error(message):
    return {"ok": False, "code": "parse", "error": message}


def serve(system, host="127.0.0.1", port=7432, **kwargs):
    """Blocking convenience entry point (used by ``python -m
    repro.server``): serve until stopped or interrupted."""
    server = RuleServer(system, host=host, port=port, **kwargs)
    server._bind()
    print("repro server listening on {}:{}".format(*server.address))
    with suppress(KeyboardInterrupt):  # the loop has flushed the WAL
        server.serve_forever()
