"""The concurrent multi-client server (PR 8).

A small socket server, one ``selectors`` loop, exposing one
:class:`~repro.system.ActiveDatabase` to many clients over a
line-oriented wire protocol (:mod:`repro.server.protocol`): each request
is one line — a SQL statement or a ``\\``-command — and each response is
one JSON line. Every connection gets its own
:class:`~repro.concurrency.Session`; the
:class:`~repro.concurrency.TransactionCoordinator` provides snapshot-
style optimistic isolation (or 2PL in the fallback mode) with the WAL
append as both commit point and serialization point, and group commit
batches fsyncs across commits that land in the same tick of the loop.

Quick start::

    python -m repro.server --port 7432 ./data &
    python - <<'PY'
    from repro.server.client import connect
    with connect(port=7432) as db:
        db.execute("create table emp (name varchar, sal float)")
        db.execute("insert into emp values ('jane', 50)")
        print(db.query("select * from emp"))
    PY
"""

from .. import _export_table

__getattr__, __dir__, __all__ = _export_table(__name__, globals(), {
    ".client": ("ReproClient", "ServerError", "connect"),
    ".server": ("RuleServer",),
})
