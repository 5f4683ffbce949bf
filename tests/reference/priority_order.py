"""Reference §4.4 selection order, test-only: the quadratic scan that
``RuleCatalog.maximal_first_order`` replaced, verbatim but for taking
the ``precedes`` predicate as an argument.
``tests/property/test_priority_order_differential.py`` holds the
production order to it.
"""

from __future__ import annotations


def maximal_first_order(rules, precedes):
    """Repeatedly take the first rule, in creation order, that no other
    remaining rule strictly precedes."""
    remaining = sorted(rules, key=lambda rule: rule.sequence)
    ordered = []
    while remaining:
        for index, rule in enumerate(remaining):
            others = remaining[:index] + remaining[index + 1:]
            if not any(precedes(other.name, rule.name) for other in others):
                ordered.append(rule)
                remaining.pop(index)
                break
        else:  # pragma: no cover - cycle is prevented at add_priority
            ordered.extend(remaining)
            break
    return ordered
