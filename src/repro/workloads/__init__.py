"""Synthetic workload generators for tests, examples and benchmarks.

Stand-ins for the production data/operation streams of the original
Starburst deployment (unavailable); see DESIGN.md's substitution table.
Like the other package roots, this one is a lazy export table
(``repro._export_table``): ``from repro.workloads import orgchart``
loads the org-chart module alone.
"""

from .. import _export_table

__getattr__, __dir__, __all__ = _export_table(__name__, globals(), {
    ".generator": ("WorkloadConfig", "WorkloadGenerator", "run_workload"),
    ".orgchart": (
        "DEPT_SCHEMA",
        "EMP_SCHEMA",
        "OrgChart",
        "build_orgchart",
        "create_schema",
        "load_orgchart",
        "populate",
    ),
})
