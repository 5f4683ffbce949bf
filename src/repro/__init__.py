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

from .core.engine import RuleEngine
from .core.effects import TransitionEffect
from .core.rules import Rule, RuleCatalog
from .core.selection import (
    CreationOrder,
    LeastRecentlyConsidered,
    MostRecentlyConsidered,
    PriorityOrder,
    TotalOrder,
)
from .core.trace import TransactionResult
from .errors import (
    CatalogError,
    ConflictError,
    ConstraintError,
    DuplicateRuleError,
    ExecutionError,
    InvalidRuleError,
    LexError,
    ParseError,
    PriorityCycleError,
    ReproError,
    RuleError,
    RuleLoopError,
    SqlError,
    TransactionError,
    UnknownRuleError,
)
from .obs import (
    Event,
    EventKind,
    EventSink,
    JsonLinesSink,
    NullSink,
    RingBufferSink,
)
from .persistence import PersistenceError, dump, load
from .relational.database import Database
from .system import ActiveDatabase
from .durability import (
    DurabilityError,
    DurabilityManager,
    FaultInjector,
    SimulatedCrash,
    WalError,
    recover,
)

__version__ = "1.0.0"

__all__ = [
    "ActiveDatabase",
    "CatalogError",
    "ConflictError",
    "ConstraintError",
    "CreationOrder",
    "Database",
    "DuplicateRuleError",
    "DurabilityError",
    "DurabilityManager",
    "Event",
    "EventKind",
    "EventSink",
    "ExecutionError",
    "FaultInjector",
    "InvalidRuleError",
    "JsonLinesSink",
    "LeastRecentlyConsidered",
    "LexError",
    "MostRecentlyConsidered",
    "NullSink",
    "ParseError",
    "PersistenceError",
    "RingBufferSink",
    "PriorityCycleError",
    "PriorityOrder",
    "ReproError",
    "Rule",
    "RuleCatalog",
    "RuleEngine",
    "RuleError",
    "RuleLoopError",
    "SimulatedCrash",
    "SqlError",
    "TotalOrder",
    "TransactionError",
    "TransactionResult",
    "TransitionEffect",
    "UnknownRuleError",
    "WalError",
    "__version__",
    "dump",
    "load",
    "recover",
]
