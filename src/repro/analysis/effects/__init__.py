"""Static effect analysis over rule programs.

:mod:`repro.analysis.effects.sets` defines the per-rule read/write
effect sets at ``(table, column)`` granularity — a product of the one
walk over each rule (:mod:`repro.analysis.types.infer`) — and what the
triggering graph asks of them (:meth:`RuleEffects.can_satisfy`,
:func:`writes_can_populate`); :mod:`repro.analysis.effects.conflicts`
is the ``effects`` lint pass (RPL501/RPL502).
"""

from .sets import (
    ANY_COLUMN,
    RuleEffects,
    operation_writes,
    writes_can_populate,
)

__all__ = [
    "ANY_COLUMN",
    "RuleEffects",
    "operation_writes",
    "writes_can_populate",
]
