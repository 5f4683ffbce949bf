"""Exception hierarchy for the set-oriented production rules system.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. Subsystems raise the most
specific subclass that applies; messages carry enough context (statement
text, rule name, table name) to diagnose failures without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SqlError(ReproError):
    """Base class for errors in SQL text handling (lexing/parsing)."""


class LexError(SqlError):
    """Raised when the lexer encounters an invalid character sequence.

    Attributes:
        position: zero-based character offset of the offending input.
        line: one-based line number of the offending input.
        column: one-based column number of the offending input.
    """

    def __init__(self, message, position, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when a token stream does not match the grammar.

    Attributes:
        token: the offending token (may be the end-of-input token).
    """

    def __init__(self, message, token=None):
        if token is not None and token.line is not None:
            message = f"{message} (line {token.line}, column {token.column})"
        super().__init__(message)
        self.token = token


class CatalogError(ReproError):
    """Raised for schema-level problems (unknown/duplicate tables, columns)."""


class TypeError_(ReproError):
    """Raised when a value does not conform to its column's declared type.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ExecutionError(ReproError):
    """Raised when a statement fails during evaluation.

    Examples: ambiguous column reference, scalar subquery returning more
    than one row, division by zero, arity mismatch on insert.
    """


class HandleClaimError(ExecutionError):
    """Raised when durable state claims a tuple handle that already
    belongs to a table: handles are distinct across all tables."""


class TransactionError(ReproError):
    """Raised for misuse of the transaction API (e.g. commit with no txn)."""


class ConflictError(TransactionError):
    """Raised when concurrency control detects a serialization conflict.

    The transaction has been (or must be) aborted; the caller may retry
    the whole statement + rule cascade against fresh state. Auto-commit
    statements are retried by the server; explicit transactions surface
    the conflict to the client (docs/semantics.md §14).
    """

    def __init__(self, message, tables=()):
        super().__init__(message)
        self.tables = tuple(sorted(tables))


class RollbackRequested(ReproError):
    """Internal signal: a rule with a ``rollback`` action fired.

    The engine converts this into a transaction rollback; user code sees a
    :class:`TransactionRolledBack` result rather than this exception.
    """

    def __init__(self, rule_name):
        super().__init__(f"rule {rule_name!r} requested rollback")
        self.rule_name = rule_name


class RuleError(ReproError):
    """Base class for production-rule errors."""


class DuplicateRuleError(RuleError):
    """Raised when creating a rule whose name is already defined."""


class UnknownRuleError(RuleError):
    """Raised when referencing a rule name that is not defined."""


class InvalidRuleError(RuleError):
    """Raised when a rule definition is semantically invalid.

    Example: the condition references a transition table that does not
    correspond to one of the rule's basic transition predicates (the paper
    notes this restriction is syntactic and easily checked — we check it
    at ``create rule`` time).
    """


class PriorityCycleError(RuleError):
    """Raised when rule priority pairings would create a cycle.

    The paper requires the set of ``create rule priority A before B``
    pairings to be acyclic so that they induce a partial order.
    """


class RuleLoopError(RuleError):
    """Raised when rule processing exceeds the configured transition budget.

    Footnote 7 of the paper observes that self-triggering rules may diverge
    and suggests run-time detection via a timeout; a deterministic
    transition-count budget is the reproducible equivalent.
    """

    def __init__(self, limit, trace=None):
        super().__init__(
            f"rule processing exceeded {limit} transitions without quiescing; "
            "likely a self-triggering rule loop (see paper footnote 7)"
        )
        self.limit = limit
        self.trace = trace


class ConstraintError(ReproError):
    """Raised by the constraint facility for invalid declarations."""


class AnalysisError(ReproError):
    """Raised by the static rule analysis subsystem."""
