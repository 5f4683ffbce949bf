"""Static type inference over rule programs.

:mod:`repro.analysis.types.witness` defines the out-of-band
:class:`TypeWitness` annotation; :mod:`repro.analysis.types.infer` is
the one scoped, typed walk over a rule that computes and attaches
witnesses while resolving names (RPL0xx), emitting the RPL4xx
diagnostic family and summarizing the rule's effects. The
compiled-kernel layer
(:mod:`repro.relational.compiled`) consumes stable witnesses to emit
monomorphic batch kernels.
"""

from .witness import TypeWitness, clear_witness, set_witness, witness_of

__all__ = [
    "TypeWitness",
    "clear_witness",
    "set_witness",
    "witness_of",
]
