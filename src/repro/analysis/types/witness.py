"""Type witnesses: out-of-band static-type annotations on expression ASTs.

A :class:`TypeWitness` records what the type-inference pass
(:mod:`repro.analysis.types.infer`) proved about one expression node:
its static :class:`~repro.relational.types.SqlType` (when a single type
is known), its totality *kind* in the vocabulary of the PR 9 cost
model (``"n"``/``"s"``/``"b"``/``"?"``; see
:data:`repro.relational.plan.cost.KIND_OF_TYPE`), whether evaluation is
*total* (provably cannot raise on any row), and whether it may yield
NULL.

Witnesses attach to AST nodes the same way source spans do
(:mod:`repro.sql.spans`): through ``object.__setattr__`` under a private
attribute that is no field, so the frozen AST records stay
structurally equal and hashable — two equal expressions with different
witnesses still compare equal, and witnesses never leak into cache keys
or repr output.

The ``total`` flag is *defined* as agreement with the PR 9 totality
analysis: the inference pass computes it by calling
:func:`repro.relational.plan.cost.expression_kind` on the node, so the
two analyses cannot drift apart (the inference-soundness property test
pins this down behaviourally as well).

Consumers must check :attr:`TypeWitness.schema_version` against the
database they are evaluating on: a witness is only trustworthy for the
schema it was inferred against (the compiled-kernel layer does exactly
this before specializing; see ``repro.relational.compiled``).
"""

from __future__ import annotations

from typing import Optional

from ...records import Record
from ...relational.types import SqlType

#: The private attribute carrying the witness (``object.__setattr__``
#: keeps frozen records immutable in every structural sense).
_WITNESS_ATTR = "_type_witness"


class TypeWitness(Record):
    """What static inference proved about one expression.

    Attributes:
        sql_type: the single static :class:`SqlType` of the expression,
            or ``None`` when unknown / polymorphic / provably NULL.
        kind: the totality kind (``"n"`` numeric, ``"s"`` string,
            ``"b"`` boolean, ``"?"`` provably NULL) when the expression
            is total, else ``None`` — exactly
            :func:`repro.relational.plan.cost.expression_kind`'s verdict.
        total: True when evaluation provably cannot raise on any row
            (equivalently: ``kind is not None``).
        nullable: False only when the expression provably never yields
            NULL (a non-NULL literal, ``IS NULL``, ``count(*)``, ...).
        schema_version: the ``database.schema_version`` the inference
            ran against, or ``None`` for schema-free inference (pure
            literals in a scratch lint database). Consumers ignore
            witnesses stamped with a different version.
    """

    sql_type: Optional[SqlType] = None
    kind: Optional[str] = None
    total: bool = False
    nullable: bool = True
    schema_version: Optional[int] = None

    @property
    def stable(self) -> bool:
        """A witness kernels may specialize on: total with a known
        value kind (``"?"`` — provably NULL — also counts: NULL is
        handled by every specialized kernel's None check)."""
        return self.total and self.kind is not None

    def describe(self) -> str:
        parts = [self.sql_type.value if self.sql_type else "unknown"]
        if self.total:
            parts.append("total")
        if not self.nullable:
            parts.append("not-null")
        return " ".join(parts)


def set_witness(node: object, witness: TypeWitness) -> None:
    """Attach ``witness`` to ``node`` out-of-band (idempotent; the last
    inference run wins)."""
    object.__setattr__(node, _WITNESS_ATTR, witness)


def witness_of(node: object) -> Optional[TypeWitness]:
    """The witness attached to ``node``, or ``None``."""
    return getattr(node, _WITNESS_ATTR, None)


def clear_witness(node: object) -> None:
    """Remove any witness from ``node`` (used by tests)."""
    if hasattr(node, _WITNESS_ATTR):
        object.__delattr__(node, _WITNESS_ATTR)
