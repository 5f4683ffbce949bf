"""Relational engine substrate: storage, types, queries, DML, transactions.

This package implements the "typical relational database structure" the
paper assumes (Section 2): named tables with fixed typed columns, tuples
carrying distinct non-reusable system handles, multiset semantics, and a
transaction facility able to roll back to the transaction start state.
"""

from .. import _export_table

__getattr__, __dir__, __all__ = _export_table(__name__, globals(), {
    ".database": ("Database",),
    ".dml": (
        "DeleteEffect",
        "DmlExecutor",
        "InsertEffect",
        "SelectEffect",
        "UpdateEffect",
    ),
    ".expressions": ("Evaluator", "Scope"),
    ".handles": ("HandleAllocator",),
    ".index": ("IndexRegistry", "SortedIndex"),
    ".plan.pushdown": ("index_candidates",),
    ".schema": ("Catalog", "Column", "TableSchema"),
    ".select": ("BaseTableResolver", "SelectResult", "evaluate_select"),
    ".table": ("Table",),
    ".transactions": ("TransactionManager",),
    ".types": ("SqlType",),
})
