"""Socket-level tests: the selectors-loop server, wire protocol, and
client."""

from __future__ import annotations

import asyncio
import errno
import json
import os
import select
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import ActiveDatabase
from repro.errors import (
    ConflictError,
    ExecutionError,
    LexError,
    ParseError,
    TransactionError,
)
from repro.server import RuleServer, connect
from repro.server.client import ServerError, fold
from repro.server.protocol import parse_request, render_result
from repro.sql.lexer import expand_literal_rows, tokenize
from repro.sql.tokens import TokenKind


class ServerFixture:
    """A live server, started and stopped from an asyncio event loop on a
    thread of its own, as the benchmark's traced slice hosts it."""

    def __init__(self, system=None, **kwargs):
        self.system = system or ActiveDatabase()
        self.server = RuleServer(self.system, port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(10):
            raise TimeoutError("server never started")
        self.port = self.server.address[1]

    def client(self):
        return connect(port=self.port)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture
def served():
    fixture = ServerFixture()
    yield fixture
    fixture.stop()


class TestProtocol:
    def test_parse_request_classifies(self):
        assert parse_request("\\ping") == ("command", "ping")
        assert parse_request("  begin ; ") == ("command", "begin")
        assert parse_request("select * from t") == (
            "sql", "select * from t",
        )
        kind, message = parse_request("\\frobnicate")
        assert kind is None and "frobnicate" in message
        kind, message = parse_request("   ")
        assert kind is None

    def test_render_result_shapes(self):
        assert render_result(None) is None
        assert render_result(3) == 3
        assert render_result("x") == "x"
        assert render_result([1, "a"]) == [1, "a"]
        assert render_result({"k": 1}) == {"k": 1}
        assert render_result(object()).startswith("<object")

    def test_render_transaction_result_includes_last_select(self, served):
        """A rule action's §5.1 retrieval travels back over the wire in
        the transaction result's ``select`` field."""
        with served.client() as client:
            client.execute("create table t (v float)")
            client.execute(
                "create rule deliver when inserted into t "
                "then select v from inserted t"
            )
            result = client.execute("insert into t values (7)")
        assert result["committed"] is True
        assert result["rule_firings"] == 1
        assert result["select"] == {"columns": ["v"], "rows": [[7.0]]}

    def test_error_response_codes_cover_the_hierarchy(self):
        from repro.errors import (
            ConflictError,
            ExecutionError,
            LexError,
            ReproError,
            TransactionError,
        )
        from repro.server.protocol import (
            decode_response,
            encode_response,
            error_response,
        )

        cases = [
            (ConflictError("c"), "conflict"),
            (LexError("l", 0, 1, 1), "parse"),
            (TransactionError("t"), "transaction"),
            (ExecutionError("e"), "execution"),
            (ReproError("r"), "execution"),
            (ValueError("v"), "internal"),
        ]
        for exc, code in cases:
            response = error_response(exc)
            assert response["code"] == code, exc
            assert decode_response(encode_response(response)) == response
        # decode also accepts str lines (not just bytes)
        assert decode_response('{"ok":true}') == {"ok": True}

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_is_a_parse_error_not_an_internal_one(
            self, digit):
        """The seed's scanner let ``int()`` see anything ``str.isdigit``
        accepts, so ``²`` escaped as a raw ValueError (code ``internal``)."""
        from repro.errors import LexError
        from repro.server.protocol import error_response
        from repro.sql import parse_statement

        with pytest.raises(LexError) as excinfo:
            parse_statement(f"select {digit} from t")
        assert error_response(excinfo.value) == {
            "ok": False, "code": "parse",
            "error": f"unexpected character {digit!r} (line 1, column 8)",
        }


class TestServerBasics:
    def test_ddl_dml_query_round_trip(self, served):
        with served.client() as client:
            assert client.ping() == "pong"
            client.execute("create table emp (name varchar, sal float)")
            result = client.execute(
                "insert into emp values ('jane', 50), ('bob', 40)"
            )
            assert result["committed"] is True
            rows = client.query("select name from emp where sal > 45")
            assert rows == [["jane"]]

    def test_parse_and_execution_errors_map_to_exceptions(self, served):
        with served.client() as client:
            with pytest.raises(ParseError):
                client.execute("insert !!! nonsense")
            with pytest.raises(ParseError, match="unexpected character '²'"):
                client.execute("select ² from t")
            with pytest.raises(TransactionError):
                client.commit()  # no transaction open

    def test_sessions_are_per_connection(self, served):
        with served.client() as c1, served.client() as c2:
            assert c1.session_info()["name"] != c2.session_info()["name"]
            c1.execute("create table t (v float)")
            c1.begin()
            c1.execute("insert into t values (1)")
            # c2 must not see c1's uncommitted write
            assert c2.query("select count(*) from t") == [[0]]
            c1.commit()
            assert c2.query("select count(*) from t") == [[1]]

    def test_stats_exposes_server_section(self, served):
        with served.client() as client:
            client.execute("create table t (v float)")
            client.execute("insert into t values (1)")
            stats = client.stats()
            assert stats["server"]["mode"] == "occ"
            assert stats["server"]["commits"] >= 1
            assert stats["server"]["sessions_open"] >= 1

    def test_disconnect_aborts_open_transaction(self, served):
        with served.client() as setup:
            setup.execute("create table t (v float)")
        client = served.client()
        client.begin()
        client.execute("insert into t values (1)")
        client._sock.close()  # vanish without commit
        deadline = time.time() + 10
        with served.client() as other:
            while time.time() < deadline:
                if other.stats()["server"]["sessions_open"] == 1:
                    break
                time.sleep(0.05)
            assert other.query("select count(*) from t") == [[0]]

    def test_multiline_statements_fold_to_one_line(self, served):
        with served.client() as client:
            client.execute("create table t (v float)")
            client.execute(
                """
                insert into t
                values (1),
                       (2)
                """
            )
            assert client.query("select count(*) from t") == [[2]]


    def test_a_line_comment_ends_at_its_newline(self, served):
        statement = "delete from t -- only the threes\nwhere v = 3"
        embedded = ActiveDatabase()
        with served.client() as client:
            for db in (client, embedded):
                db.execute("create table t (v integer)")
                db.execute("insert into t values (1), (2), (3)")
                db.execute(statement)
            assert client.query("select v from t") == [[1], [2]]
        assert embedded.rows("select v from t") == [(1,), (2,)]

    def test_string_literals_travel_verbatim(self, served):
        with served.client() as client:
            client.execute("create table t (s varchar)")
            client.execute("insert into t values ('a  b'), ('x\ty')")
            assert client.query("select s from t") == [["a  b"], ["x\ty"]]

    def test_avg_past_float_range_is_an_execution_error(self, served):
        with served.client() as client:
            client.execute("create table t (a integer)")
            client.execute(f"insert into t values ({3 * 10**400}), (7)")
            with pytest.raises(ExecutionError,
                               match="integer out of float range in '/'"):
                client.query("select avg(a) from t")
            assert client.query("select avg(a) from t where a = 7") == [[7.0]]

    def test_a_literal_holding_a_newline_is_refused_unsent(self, served):
        with served.client() as client:
            client.execute("create table t (s varchar)")
            with pytest.raises(ParseError, match="newline"):
                client.execute("insert into t values ('a\nb')")
            assert client.query("select count(*) from t") == [[0]]


def lexemes(text):
    """``(kind, value)`` of each token, literal row lists expanded."""
    return [
        (token.kind, token.value)
        for lexed in tokenize(text)
        for token in (expand_literal_rows(lexed)[:-1]
                      if lexed.kind is TokenKind.LITERAL_ROWS else [lexed])
    ]


_INSIDE = " ab'-/*\t\r"
_PIECES = st.one_of(
    st.sampled_from([
        "delete", "from", "t", "where", "v", "insert", "into", "values",
        "1", "2.5", "(", ")", ",", "=", "-", "+", "*", "/", "<>",
    ]),
    st.text(_INSIDE, max_size=6).map(
        lambda body: "'" + body.replace("'", "''") + "'"),
    st.text(_INSIDE + "\n", max_size=6).map(lambda body: "/*" + body + "*/"),
    st.text(_INSIDE, max_size=6).map(lambda body: "--" + body),
    st.sampled_from([" ", "\n", "\r\n", "\t", "\r", " \n  "]),
)


class TestClientFolding:
    @given(st.lists(_PIECES, max_size=14).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_folded_line_lexes_like_the_statement(self, statement):
        try:
            expected = lexemes(statement)
        except LexError:
            expected = None
        try:
            folded = fold(statement)
        except ParseError:
            # only a literal holding a newline is refused (or what looks
            # like one inside an unterminated comment the lexer rejects)
            assert expected is None or any(
                kind is TokenKind.STRING and "\n" in value
                for kind, value in expected)
            return
        assert "\n" not in folded
        if expected is None:
            with pytest.raises(LexError):
                lexemes(folded)
        else:
            assert lexemes(folded) == expected

    def test_pieces_fold_as_documented(self):
        assert fold("a -- x\r\nb /* c\nd */ 'e\r  f'") == (
            "a  b /* c d */ 'e\r  f'")
        assert fold("select 1 -- trailing") == "select 1 "
        with pytest.raises(ParseError):
            fold("values ('a''\n')")


class TestServerConflicts:
    def test_wire_conflict_carries_the_code(self, served):
        with served.client() as c1, served.client() as c2:
            c1.execute("create table acct (name varchar, bal float)")
            c1.execute("insert into acct values ('a', 100)")
            c1.begin()
            c1.execute("update acct set bal = bal + 10 where name = 'a'")
            c2.begin()
            c2.execute("update acct set bal = bal + 5 where name = 'a'")
            c1.commit()
            with pytest.raises(ConflictError):
                c2.commit()
            assert c1.query("select bal from acct") == [[110.0]]

    def test_rule_cascade_writes_conflict_with_readers(self, served):
        with served.client() as c1, served.client() as c2:
            c1.execute("create table emp (name varchar)")
            c1.execute("create table audit (name varchar)")
            c1.execute("create table other (v float)")
            c1.execute(
                "create rule log when inserted into emp then "
                "insert into audit (select name from inserted emp)"
            )
            c2.begin()
            c2.query("select count(*) from audit")
            c2.execute("insert into other values (1)")
            c1.execute("insert into emp values ('jane')")  # rule -> audit
            with pytest.raises(ConflictError):
                c2.commit()
            assert c1.query("select name from audit") == [["jane"]]
            assert c1.query("select count(*) from other") == [[0]]

    def test_autocommit_conflicts_retry_server_side(self, served):
        """Concurrent blind inserts from many client threads: zero
        conflicts by design (reads-only footprint), every insert lands
        exactly once."""
        with served.client() as setup:
            setup.execute("create table t (v float)")

        def hammer(base):
            with served.client() as client:
                for i in range(10):
                    client.execute(f"insert into t values ({base + i})")

        threads = [
            threading.Thread(target=hammer, args=(base * 100,))
            for base in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        with served.client() as client:
            assert client.query("select count(*) from t") == [[40]]
            assert client.stats()["server"]["conflicts"] == 0


class TestDurableServer:
    def test_group_commit_batches_fsyncs_and_survives_restart(self, tmp_path):
        directory = tmp_path / "data"
        system = ActiveDatabase(durability=str(directory))
        fixture = ServerFixture(system=system, group_commit=True)
        try:
            with fixture.client() as client:
                client.execute("create table t (v float)")
                for i in range(5):
                    client.execute(f"insert into t values ({i})")
                stats = client.stats()
                assert stats["durability"]["group_commit"] is True
                assert stats["durability"]["wal_records"] >= 6
        finally:
            fixture.stop()
            system.durability.close()
        # everything acked must be durable: recover and check
        from repro.durability import recover

        recovered = recover(str(directory))
        assert recovered.database.row_count("t") == 5

    def test_concurrent_committers_share_a_flush(self, tmp_path):
        system = ActiveDatabase(durability=str(tmp_path / "data"))
        fixture = ServerFixture(system=system, group_commit=True)
        try:
            with fixture.client() as setup:
                setup.execute("create table t (v float)")

            def writer(base):
                with fixture.client() as client:
                    for i in range(5):
                        client.execute(f"insert into t values ({base + i})")

            threads = [
                threading.Thread(target=writer, args=(base * 10,))
                for base in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            with fixture.client() as client:
                stats = client.stats()["durability"]
                assert client.query("select count(*) from t") == [[20]]
                # the whole point of group commit: fewer fsyncs than
                # WAL records (the DDL + 20 inserts)
                assert stats["wal_syncs"] <= stats["wal_records"]
        finally:
            fixture.stop()
            system.durability.close()


class TestRawSocket:
    def test_unknown_command_and_garbage_lines(self, served):
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"\\nonsense\n")
            assert b'"ok":false' in reader.readline()
            sock.sendall(b"\xff\xfe garbage \xff\n")
            assert reader.readline() == (
                b'{"ok":false,"code":"parse","error":'
                b'"request is not valid UTF-8"}\n')
            sock.sendall(b"\\ping\n")
            assert b"pong" in reader.readline()
            sock.sendall(b"\\quit\n")
            assert b"bye" in reader.readline()

    def test_an_oversized_line_gets_a_reply_before_the_close(self, served):
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"x" * 70_000 + b"\n")
            assert reader.readline() == (
                b'{"ok":false,"code":"parse","error":'
                b'"request line longer than 65536 bytes"}\n')
            assert reader.readline() == b""  # that connection is closed
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"\\ping\n")
            assert b"pong" in reader.readline()


PONG = b'{"ok":true,"result":"pong"}\n'


def raw_connection(port, receive_buffer=None):
    """A plain socket to the server (a small receive buffer, if given,
    is set before the connection is made, so the window stays small)."""
    sock = socket.socket()
    if receive_buffer is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, receive_buffer)
    sock.settimeout(10)
    sock.connect(("127.0.0.1", port))
    return sock


class TestPipelining:
    def test_lines_in_one_send_get_their_replies_in_order(self, served):
        """A line already buffered runs on the next tick: it does not
        wait for more bytes from the socket."""
        with raw_connection(served.port) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"\\ping\n\\session\n\\quit\n")
            assert reader.readline() == PONG
            assert b'"in_transaction":false' in reader.readline()
            assert reader.readline() == b'{"ok":true,"result":"bye"}\n'
            assert reader.readline() == b""

    def test_a_client_that_never_reads_delays_no_other(self, served):
        with raw_connection(served.port) as greedy:
            greedy.sendall(b"\\ping\n" * 500)
            with served.client() as other:
                started = time.perf_counter()
                assert other.ping() == "pong"
                other.execute("create table t (v integer)")
                assert other.execute("insert into t values (1)")["committed"]
                assert time.perf_counter() - started < 5
            reader = greedy.makefile("rb")
            assert [reader.readline() for _ in range(500)] == [PONG] * 500

    def test_an_unsent_reply_stops_the_reading(self, served):
        """A connection whose reply is not fully sent is not read from:
        its requests stop running until the client reads, the other
        connections are served meanwhile, and no reply is cut or
        reordered."""
        requests, pad = 100, "x" * 1000  # 100 KB a reply, 10 MB in all
        with served.client() as other:
            other.execute("create table big (s varchar)")
            for _ in range(10):
                other.execute("insert into big values " + ", ".join(
                    [f"('{pad}')"] * 10))
            statements = other.stats()["server"]["statements"]
            with raw_connection(served.port, receive_buffer=4096) as greedy:
                greedy.sendall(b"".join(
                    f"select s || '{i}' from big\n".encode()
                    for i in range(requests)))
                ran, previous = None, -1
                while ran != previous:  # until the server stops reading
                    time.sleep(0.2)
                    previous, ran = ran, (
                        other.stats()["server"]["statements"] - statements)
                assert 0 < ran < requests
                assert other.ping() == "pong"
                reader = greedy.makefile("rb")
                for i in range(requests):
                    rows = json.loads(reader.readline())["result"]["rows"]
                    assert rows == [[pad + str(i)]] * 100


class TestGroupCommit:
    @pytest.fixture
    def durable(self, tmp_path):
        system = ActiveDatabase(durability=str(tmp_path / "data"))
        fixture = ServerFixture(system=system, group_commit=True)
        with fixture.client() as setup:
            setup.execute("create table t (v integer)")
            setup.execute("create table gate (g integer)")
        yield fixture
        fixture.stop()
        system.durability.close()

    def test_a_failed_fsync_is_never_acknowledged(self, durable,
                                                  monkeypatch):
        def failing_fsync(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        with raw_connection(durable.port) as sock, \
                durable.client() as client:
            reader = sock.makefile("rb")
            monkeypatch.setattr(os, "fsync", failing_fsync)
            sock.sendall(b"insert into t values (1)\n")
            line = reader.readline()
            monkeypatch.undo()
            assert json.loads(line) == {
                "ok": False, "code": "internal",
                "error": "[Errno 5] injected fsync failure"}
            failure = client.stats()["durability"]["wal_failure"]
            assert "fsync failed" in failure
            with pytest.raises(ExecutionError, match="fsync failed"):
                client.execute("insert into t values (2)")

    def test_writes_of_one_tick_share_one_fsync_before_either_ack(
            self, durable):
        """Two writes that reach the server while its loop is busy land
        in the same tick: one fsync covers both, and at that fsync
        neither client has a byte of its reply."""
        server, manager = durable.server, durable.system.durability
        entered, release = threading.Event(), threading.Event()
        query, flush = server.coordinator.query, manager.flush
        readable_at_flush = []

        def gated_query(session, text):
            if "gate" in text:
                entered.set()
                release.wait(10)
            return query(session, text)

        def watched_flush():
            readable_at_flush.append(select.select(writers, [], [], 0)[0])
            return flush()

        writers = [raw_connection(durable.port) for _ in range(2)]
        try:
            readers = [sock.makefile("rb") for sock in writers]
            for sock, reader in zip(writers, readers):
                sock.sendall(b"\\ping\n")  # accepted before the gate
                assert reader.readline() == PONG
            server.coordinator.query = gated_query
            manager.flush = watched_flush
            syncs = manager.wal.syncs
            with raw_connection(durable.port) as blocker:
                blocker.sendall(b"select g from gate\n")
                assert entered.wait(10)  # the loop is inside that query
                for i, sock in enumerate(writers):
                    sock.sendall(f"insert into t values ({i})\n".encode())
                release.set()
                assert b'"rows":[]' in blocker.makefile("rb").readline()
            for reader in readers:
                assert json.loads(reader.readline())["result"]["committed"]
            assert manager.wal.syncs == syncs + 1
            assert readable_at_flush == [[]]  # one flush, no reply yet
        finally:
            del server.coordinator.query, manager.flush
            for sock in writers:
                sock.close()


class TestFaultIsolation:
    """A fault in one connection's work ends that connection at most:
    the others are served on and the listener keeps accepting."""

    def test_an_unencodable_result_is_an_error_reply(self, served):
        """json refuses an int of more than 4,300 digits: the client gets
        an error in place of the result, and its connection stays open."""
        big = 3 * 10**400
        with served.client() as other, served.client() as client:
            client.execute("create table t (a integer)")
            client.execute(f"insert into t values ({big})")
            with pytest.raises(ServerError,
                               match="integer string conversion"):
                client.query("select " + " * ".join(["a"] * 12) + " from t")
            assert client.ping() == "pong"
            assert other.ping() == "pong"
        with served.client() as late:
            assert late.query("select a from t") == [[big]]

    def test_a_fault_outside_a_request_drops_only_its_connection(
            self, served, capsys):
        server = served.server
        step = server._step

        def faulty_step(connection, held):
            if connection.inbox.startswith(b"\\session"):
                raise RuntimeError("injected fault")
            return step(connection, held)

        server._step = faulty_step
        try:
            with served.client() as other, served.client() as victim:
                with pytest.raises(ServerError, match="closed"):
                    victim.session_info()
                assert other.ping() == "pong"
            with served.client() as late:
                assert late.ping() == "pong"
        finally:
            del server._step
        assert "injected fault" in capsys.readouterr().err

    def test_serve_forever_after_start_waits_for_that_loop(self):
        """It runs no second loop over the same selector: every tick
        stays on the thread that :meth:`start` began."""
        fixture = ServerFixture()
        server, ticks = fixture.server, set()
        tick = server._tick

        def watched_tick():
            ticks.add(threading.get_ident())
            tick()

        server._tick = watched_tick
        waiter = threading.Thread(target=server.serve_forever, daemon=True)
        waiter.start()
        try:
            waiter.join(0.2)
            with fixture.client() as client:
                assert client.ping() == "pong"
            assert waiter.is_alive() and len(ticks) == 1
        finally:
            fixture.stop()
        waiter.join(10)
        assert not waiter.is_alive()

    def test_stop_waits_out_the_running_request(self):
        """``stop()`` blocks until the loop has ended: the request it is
        running is answered first, then the connection is closed."""
        fixture = ServerFixture()
        server = fixture.server
        with fixture.client() as setup:
            setup.execute("create table t (v integer)")
        entered, release = threading.Event(), threading.Event()
        query = server.coordinator.query

        def gated_query(session, text):
            entered.set()
            release.wait(10)
            return query(session, text)

        server.coordinator.query = gated_query
        stopper = threading.Thread(target=fixture.stop, daemon=True)
        try:
            with raw_connection(fixture.port) as sock:
                sock.sendall(b"select v from t\n")
                assert entered.wait(10)
                stopper.start()
                stopper.join(0.2)
                assert stopper.is_alive()
                release.set()
                reader = sock.makefile("rb")
                assert b'"rows":[]' in reader.readline()
                assert reader.readline() == b""
            stopper.join(10)
            assert not stopper.is_alive()
        finally:
            release.set()
            del server.coordinator.query
            if stopper.ident is None:  # failed before stopping it
                fixture.stop()
