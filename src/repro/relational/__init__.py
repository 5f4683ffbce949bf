"""Relational engine substrate: storage, types, queries, DML, transactions.

This package implements the "typical relational database structure" the
paper assumes (Section 2): named tables with fixed typed columns, tuples
carrying distinct non-reusable system handles, multiset semantics, and a
transaction facility able to roll back to the transaction start state.
"""

from .database import Database
from .dml import (
    DeleteEffect,
    DmlExecutor,
    InsertEffect,
    SelectEffect,
    UpdateEffect,
)
from .expressions import Evaluator, Scope
from .handles import HandleAllocator
from .index import IndexRegistry, SortedIndex
from .plan.pushdown import index_candidates
from .schema import Catalog, Column, TableSchema
from .select import BaseTableResolver, SelectResult, evaluate_select
from .table import Table
from .transactions import TransactionManager
from .types import SqlType

__all__ = [
    "BaseTableResolver",
    "Catalog",
    "Column",
    "Database",
    "DeleteEffect",
    "DmlExecutor",
    "Evaluator",
    "HandleAllocator",
    "IndexRegistry",
    "InsertEffect",
    "Scope",
    "SelectEffect",
    "SelectResult",
    "SortedIndex",
    "SqlType",
    "Table",
    "TableSchema",
    "TransactionManager",
    "UpdateEffect",
    "evaluate_select",
    "index_candidates",
]
