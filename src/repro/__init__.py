"""repro — Set-Oriented Production Rules in Relational Database Systems.

A complete, from-scratch reproduction of Widom & Finkelstein (SIGMOD
1990): a relational database engine extended with set-oriented production
rules — rules triggered by *sets* of changes (transition effects) that may
perform *sets* of changes, with the paper's exact execution semantics.

Quickstart::

    from repro import ActiveDatabase

    db = ActiveDatabase()
    db.execute("create table dept (dept_no integer, mgr_no integer)")
    db.execute("create table emp (name varchar, emp_no integer, "
               "salary float, dept_no integer)")
    db.execute('''
        create rule cascade_delete
        when deleted from dept
        then delete from emp
             where dept_no in (select dept_no from deleted dept)
    ''')
    db.execute("insert into dept values (1, 100)")
    db.execute("insert into emp values ('Jane', 100, 50000, 1)")
    db.execute("delete from dept where dept_no = 1")
    assert db.rows("select * from emp") == []   # cascaded
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable

__version__ = "1.0.0"


def _export_table(
    package: str, namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """A package root's lazy exports (PEP 562): ``(__getattr__, __dir__,
    names)``.

    ``table`` maps each submodule, relative to ``package``, to the names
    the root re-exports from it. The root imports nothing itself: the
    first read of a name imports its submodule and binds the value in
    ``namespace`` (the root's globals), so later reads are plain
    lookups, and a process loads only the modules it uses.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(owner[name], package), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__, sorted(owner)


__getattr__, __dir__, __all__ = _export_table(__name__, globals(), {
    ".core.engine": ("RuleEngine",),
    ".core.effects": ("TransitionEffect",),
    ".core.rules": ("Rule", "RuleCatalog"),
    ".core.selection": (
        "CreationOrder",
        "LeastRecentlyConsidered",
        "MostRecentlyConsidered",
        "PriorityOrder",
        "TotalOrder",
    ),
    ".core.trace": ("TransactionResult",),
    ".errors": (
        "CatalogError",
        "ConflictError",
        "ConstraintError",
        "DuplicateRuleError",
        "ExecutionError",
        "InvalidRuleError",
        "LexError",
        "ParseError",
        "PriorityCycleError",
        "ReproError",
        "RuleError",
        "RuleLoopError",
        "SqlError",
        "TransactionError",
        "UnknownRuleError",
    ),
    ".obs": (
        "Event",
        "EventKind",
        "EventSink",
        "JsonLinesSink",
        "NullSink",
        "RingBufferSink",
    ),
    ".persistence": ("PersistenceError", "dump", "load"),
    ".relational.database": ("Database",),
    ".system": ("ActiveDatabase",),
    ".durability": (
        "DurabilityError",
        "DurabilityManager",
        "FaultInjector",
        "SimulatedCrash",
        "WalError",
        "recover",
    ),
})
__all__.append("__version__")
