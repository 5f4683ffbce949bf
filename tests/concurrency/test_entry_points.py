"""The shell entry point (``python -m repro.server``) and the blocking
``serve()`` convenience wrapper."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import ActiveDatabase
from repro.server import connect
from repro.server.__main__ import _has_state, build_system, main
from repro.server.server import serve


class TestBuildSystem:
    def test_in_memory_without_directory(self):
        system = build_system(None)
        assert system.durability is None

    def test_fresh_directory_starts_empty(self, tmp_path):
        directory = str(tmp_path / "data")
        system = build_system(directory)
        assert system.durability is not None
        assert system.database.table_names() == ()
        system.durability.close()

    def test_existing_state_is_recovered(self, tmp_path):
        directory = str(tmp_path / "data")
        db = ActiveDatabase(durability=directory)
        db.execute("create table t (v float)")
        db.execute("insert into t values (1), (2)")
        db.durability.close()
        assert _has_state(directory)

        recovered = build_system(directory)
        assert recovered.database.row_count("t") == 2
        recovered.durability.close()

    def test_has_state_false_on_empty_directory(self, tmp_path):
        directory = str(tmp_path / "data")
        directory_path = tmp_path / "data"
        directory_path.mkdir()
        assert not _has_state(directory)

    def test_checkpoint_alone_counts_as_state(self, tmp_path):
        directory = str(tmp_path / "data")
        db = ActiveDatabase(durability=directory)
        db.execute("create table t (v float)")
        db.checkpoint()
        db.durability.close()
        assert _has_state(directory)


class TestMainEntry:
    def test_main_parses_args_and_serves(self, monkeypatch, tmp_path):
        captured = {}

        def fake_serve(system, **kwargs):
            captured["system"] = system
            captured.update(kwargs)

        monkeypatch.setattr("repro.server.__main__.serve", fake_serve)
        main([
            str(tmp_path / "data"), "--host", "0.0.0.0", "--port", "0",
            "--max-retries", "9", "--no-group-commit",
        ])
        assert captured["host"] == "0.0.0.0"
        assert captured["port"] == 0
        assert "mode" not in captured
        assert captured["max_retries"] == 9
        assert captured["group_commit"] is False
        assert captured["system"].durability is not None
        captured["system"].durability.close()

    def test_main_defaults_to_in_memory_occ(self, monkeypatch):
        captured = {}
        monkeypatch.setattr(
            "repro.server.__main__.serve",
            lambda system, **kwargs: captured.update(kwargs, system=system),
        )
        main([])
        assert captured["system"].durability is None
        assert "mode" not in captured
        assert captured["port"] == 7432
        assert captured["group_commit"] is True

    def test_mode_flag_is_gone(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.server.__main__.serve",
            lambda system, **kwargs: pytest.fail("served"),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "occ"])
        assert excinfo.value.code == 2
        assert "--mode" in capsys.readouterr().err


class TestServeWrapper:
    @staticmethod
    def capture_servers(monkeypatch):
        """Have ``serve()`` build a server that reports itself once
        bound, just before its loop starts."""
        import queue

        import repro.server.server as server_module

        bound = queue.Queue()

        class CapturingServer(server_module.RuleServer):
            def serve_forever(self):
                bound.put(self)
                super().serve_forever()

        monkeypatch.setattr(server_module, "RuleServer", CapturingServer)
        return bound

    def test_serve_on_a_thread_answers_until_stopped(self, monkeypatch):
        system = ActiveDatabase()
        system.execute("create table t (v float)")
        bound = self.capture_servers(monkeypatch)
        thread = threading.Thread(
            target=serve, args=(system,), kwargs={"port": 0})
        thread.start()
        server = bound.get(timeout=10)
        try:
            with connect(port=server.address[1]) as client:
                assert client.ping() == "pong"
                assert client.execute(
                    "insert into t values (7)")["committed"] is True
        finally:
            asyncio.run(server.stop())
            thread.join(10)
        assert not thread.is_alive()
        assert system.database.row_count("t") == 1

    def test_serve_swallows_keyboard_interrupt(self, monkeypatch, tmp_path):
        """Ctrl-C between a commit and the flush of its tick: ``serve()``
        returns, the write is never acknowledged, and the loop's exit
        still fsyncs the pending group commit."""
        from repro.durability import recover
        from repro.server.client import ServerError

        directory = str(tmp_path / "data")
        system = ActiveDatabase(durability=directory)
        system.execute("create table t (v float)")
        manager = system.durability
        flush = manager.flush
        syncs = manager.wal.syncs
        calls = []

        def interrupted_flush():
            calls.append(manager.wal.syncs)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return flush()

        monkeypatch.setattr(manager, "flush", interrupted_flush)
        bound = self.capture_servers(monkeypatch)
        replies = []

        def write():
            with connect(port=bound.get(timeout=10).address[1]) as client:
                try:
                    replies.append(client.execute("insert into t values (7)"))
                except ServerError as error:
                    replies.append(str(error))

        writer = threading.Thread(target=write)
        writer.start()
        serve(system, port=0)  # must not propagate
        writer.join(10)
        assert not writer.is_alive()
        assert replies == ["server closed the connection"]
        assert calls == [syncs, syncs]  # the tick's flush, then the exit's
        assert manager.wal.syncs == syncs + 1
        manager.close()
        recovered = recover(directory)
        assert recovered.database.row_count("t") == 1
        recovered.durability.close()


class TestClientEdges:
    def test_closed_server_raises_server_error(self):
        from repro.server.client import ServerError

        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def accept_and_drop():
            conn, _ = listener.accept()
            conn.recv(64)
            conn.close()

        thread = threading.Thread(target=accept_and_drop, daemon=True)
        thread.start()
        client = connect(port=port)
        with pytest.raises(ServerError):
            client.request("\\ping")
        client.close()  # close after the server vanished must not raise
        thread.join(5)
        listener.close()
