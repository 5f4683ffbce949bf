"""The asyncio socket server: one event loop, many sessions.

Engine calls are synchronous and run to completion inside the event
loop, so statements from different connections never physically
interleave — concurrency happens at transaction granularity, exactly
where the :class:`~repro.concurrency.TransactionCoordinator` controls
it: an explicit transaction spans many requests, its writes are context-
switched in and out as other connections run, and validation at
mount/commit enforces the first-committer-wins contract.

Group commit: with durability attached, ``log_commit`` defers its fsync
(``DurabilityManager.group_commit``) and every request that may have
committed awaits a shared flush future; the first committer in a tick
schedules one ``call_soon`` callback that fsyncs once for the whole
batch, and only then are the acknowledgements written — a commit is
never acked before its WAL record is durable.
"""

from __future__ import annotations

import asyncio

from ..concurrency import TransactionCoordinator
from ..errors import TransactionError
from . import protocol


class RuleServer:
    """Serve one :class:`~repro.system.ActiveDatabase` over TCP.

    Args:
        system: the database to serve.
        host/port: bind address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        mode: concurrency mode, ``"occ"`` or ``"2pl"``.
        max_retries: server-side wholesale retries for conflicting
            auto-commit statements.
        group_commit: batch WAL fsyncs across same-tick commits (only
            meaningful with durability attached).
    """

    def __init__(self, system, host="127.0.0.1", port=0, mode="occ",
                 max_retries=5, group_commit=True):
        self.system = system
        self.host = host
        self.port = port
        self.coordinator = TransactionCoordinator(
            system, mode=mode, max_retries=max_retries
        )
        manager = system.durability
        if manager is not None and group_commit:
            manager.group_commit = True
        self._server = None
        self._flush_future = None
        self.connections = 0

    @property
    def address(self):
        """``(host, port)`` actually bound (after :meth:`start`)."""
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=protocol.MAX_LINE,
        )
        return self.address

    async def serve_forever(self):
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        manager = self.system.durability
        if manager is not None:
            manager.flush()

    # ------------------------------------------------------------------
    # per-connection protocol loop

    async def _handle_client(self, reader, writer):
        session = self.coordinator.open_session()
        self.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # over the stream limit: the rest of the line is
                    # still unread, so the stream position is lost
                    writer.write(protocol.encode_response(
                        {"ok": False, "code": "parse",
                         "error": "request line longer than "
                                  f"{protocol.MAX_LINE} bytes"}
                    ))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError:
                    writer.write(protocol.encode_response(
                        {"ok": False, "code": "parse",
                         "error": "request is not valid UTF-8"}
                    ))
                    await writer.drain()
                    continue
                response, closing = await self._dispatch(session, text)
                writer.write(protocol.encode_response(response))
                await writer.drain()
                if closing:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.coordinator.close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, session, text):
        """Run one request; returns ``(response, closing)``."""
        kind, payload = protocol.parse_request(text)
        if kind is None:
            return {"ok": False, "code": "parse", "error": payload}, False
        try:
            if kind == "command":
                return await self._command(session, payload)
            return await self._sql(session, payload), False
        except Exception as exc:  # noqa: BLE001 - everything maps to a code
            return protocol.error_response(exc), False

    async def _command(self, session, word):
        if word == "quit":
            return {"ok": True, "result": "bye"}, True
        if word == "ping":
            return {"ok": True, "result": "pong"}, False
        if word == "session":
            return {"ok": True, "result": {
                "name": session.name,
                "in_transaction": session.in_txn,
                "statements": session.statements,
                "commits": session.commits,
                "conflicts": session.conflicts,
            }}, False
        if word == "stats":
            return {"ok": True, "result": self.system.stats()}, False
        if word == "begin":
            self.coordinator.begin(session)
            return {"ok": True, "result": "begun"}, False
        if word == "commit":
            result = self.coordinator.commit(session)
            await self._flush_group()
            return protocol.ok_response(result), False
        if word == "rollback":
            self.coordinator.rollback(session)
            return {"ok": True, "result": "rolled back"}, False
        raise TransactionError(f"unhandled command {word!r}")

    async def _sql(self, session, text):
        lowered = text.lstrip().lower()
        if lowered.startswith("select"):
            result = self.coordinator.query(session, text)
            return protocol.ok_response(result)
        result = self.coordinator.execute(session, text)
        await self._flush_group()
        return protocol.ok_response(result)

    # ------------------------------------------------------------------
    # group commit

    async def _flush_group(self):
        """Await durability for any WAL records this statement appended.

        The first awaiting committer schedules one flush callback; every
        commit that lands before it runs shares the same fsync.
        """
        manager = self.system.durability
        if manager is None or not manager.group_commit:
            return
        if self._flush_future is None:
            loop = asyncio.get_running_loop()
            self._flush_future = loop.create_future()
            loop.call_soon(self._run_flush)
        await self._flush_future

    def _run_flush(self):
        future, self._flush_future = self._flush_future, None
        try:
            self.system.durability.flush()
        except Exception as exc:  # pragma: no cover - disk failure path
            future.set_exception(exc)
        else:
            future.set_result(None)


def serve(system, host="127.0.0.1", port=7432, **kwargs):
    """Blocking convenience entry point (used by ``python -m
    repro.server``)."""
    server = RuleServer(system, host=host, port=port, **kwargs)

    async def main():
        await server.start()
        host_, port_ = server.address
        print(f"repro server listening on {host_}:{port_}")
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
