"""Instance-oriented (per-tuple) rule execution — the comparison baseline.

Most prior proposals the paper positions against ([Coh89, dMS88, Esw76,
MD89, SJGP90]) use *instance-oriented* rules: "rules that are applied
once for each data item satisfying the condition part of the rule".
The paper's §1 argues set-oriented rules fit relational systems better
because conditions and actions execute set-at-a-time, with query
optimization applying directly.

:class:`InstanceOrientedEngine` implements the per-tuple model over the
same substrate and rule language: when a rule fires, its transition
information is split into singleton per-tuple units; the condition is
evaluated and the action executed once per unit, with transition tables
containing exactly one tuple. Running both engines over identical
workloads isolates exactly the architectural variable the paper's claim
is about (see ``benchmarks/bench_set_vs_instance.py``).
"""

from __future__ import annotations

from ..core.effects import TableEffect, TransitionEffect
from ..core.engine import RuleEngine
from ..core.transition_tables import TransitionTableResolver
from ..relational.dml import DmlExecutor
from ..relational.expressions import Evaluator, Scope
from ..core.external import ExternalActionContext


def split_singletons(info):
    """Split a composite transition effect into single-handle effects.

    One per net-inserted handle, per net-deleted handle, and per
    net-updated handle (with all its updated columns and its pre-image) —
    i.e. one unit per "data item" in the instance-oriented sense.
    """
    singletons = []
    for table, part in info.tables.items():
        pre = part.pre
        units = [TableEffect(inserted=(handle,))
                 for handle in part.inserted_handles()]
        units += [TableEffect(deleted=(handle,), pre={handle: pre[handle]})
                  for handle in sorted(part.deleted)]
        units += [TableEffect(updated={handle: part.updated[handle]},
                              pre={handle: pre[handle]})
                  for handle in part.updated_handles()]
        singletons += [TransitionEffect({table: unit}) for unit in units]
    return singletons


class InstanceOrientedEngine(RuleEngine):
    """A rule engine with per-tuple (instance-oriented) firing semantics.

    The rule language is unchanged; only execution granularity differs:

    * triggering is unchanged (a rule triggers if its predicate holds for
      the composite effect);
    * once selected, the rule's condition is evaluated *per affected
      tuple*, and for each tuple whose condition holds the action runs
      with singleton transition tables.

    The transitions produced by the per-tuple executions are composed and
    treated as the rule's (single) transition for subsequent bookkeeping,
    so cascading behaviour stays comparable with the set-oriented engine.
    """

    def _check_condition(self, rule):
        """True if the condition holds for at least one affected tuple."""
        if rule.condition is None:
            return True
        info = self._log.info(rule.name)
        for unit in split_singletons(info):
            if self._condition_for_unit(rule, unit) is True:
                return True
        return False

    def _condition_for_unit(self, rule, unit):
        resolver = TransitionTableResolver(self.database, unit)
        evaluator = Evaluator(self.database, resolver, self._rule_bound(rule))
        return evaluator.evaluate_predicate(rule.condition, Scope())

    def _execute_rule_action(self, rule):
        """Run the action once per qualifying affected tuple."""
        info = self._log.info(rule.name)
        effects = []
        for unit in split_singletons(info):
            if rule.condition is not None:
                if self._condition_for_unit(rule, unit) is not True:
                    continue
            resolver = TransitionTableResolver(self.database, unit)
            executor = DmlExecutor(
                self.database, resolver, self.track_selects,
                self._rule_bound(rule),
            )
            if rule.is_external:
                context = ExternalActionContext(self, rule, resolver)
                rule.action.procedure(context)
                effects.extend(context.collected_effects)
                continue
            for operation in rule.action.operations:
                effect = executor.execute_operation(operation)
                if effect is not None:
                    effects.append(effect)
        return effects
