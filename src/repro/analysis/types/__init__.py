"""Static type inference over rule programs.

:mod:`repro.analysis.types.infer` is the one scoped, typed walk over a
rule: it resolves names (RPL0xx), emits the RPL4xx diagnostic family
and summarizes the rule's effects. Its results serve lint, ``analyze()``
and the conflict advisory; execution never reads them — typed kernels
stand on the plan layer's totality analysis
(:func:`repro.relational.plan.cost.expression_kind`) alone.
"""
