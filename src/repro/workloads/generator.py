"""Seeded random operation-block workloads.

Generates streams of externally-generated operation blocks (the model of
Section 2.1) over the emp/dept schema: mixes of inserts, set-oriented
updates and deletes with tunable batch sizes. Used by benchmarks (to
drive the engine at scale) and by randomized tests (to exercise the
composition laws on realistic operation sequences).
"""

from __future__ import annotations

import random

from ..records import Record


class WorkloadConfig(Record):
    """Parameters of a random workload.

    Attributes:
        blocks: number of operation blocks to generate.
        ops_per_block: operations per block.
        insert_weight/update_weight/delete_weight: operation mix.
        batch_rows: rows per multi-row insert.
        emp_no_range: key space for generated employees.
        dept_range: department number space.
        seed: RNG seed (every run with the same config is identical).
    """

    blocks: int = 10
    ops_per_block: int = 3
    insert_weight: int = 5
    update_weight: int = 3
    delete_weight: int = 2
    batch_rows: int = 5
    emp_no_range: int = 100000
    dept_range: int = 20
    seed: int = 0


class WorkloadGenerator:
    """Generates SQL operation-block strings from a :class:`WorkloadConfig`."""

    def __init__(self, config=None):
        self.config = config or WorkloadConfig()
        self._rng = random.Random(self.config.seed)
        self._next_emp_no = 1

    def blocks(self):
        """All the workload's operation blocks, as SQL strings."""
        return [self.block() for _ in range(self.config.blocks)]

    def block(self):
        """One operation block (``op; op; ...``)."""
        operations = [
            self.operation() for _ in range(self.config.ops_per_block)
        ]
        return ";\n".join(operations)

    def operation(self):
        """One random operation, respecting the configured mix."""
        config = self.config
        choice = self._rng.choices(
            ("insert", "update", "delete"),
            weights=(
                config.insert_weight,
                config.update_weight,
                config.delete_weight,
            ),
        )[0]
        if choice == "insert":
            return self._insert()
        if choice == "update":
            return self._update()
        return self._delete()

    # ------------------------------------------------------------------

    def _insert(self):
        rows = []
        for _ in range(self.config.batch_rows):
            emp_no = self._next_emp_no
            self._next_emp_no += 1
            salary = float(self._rng.randint(30000, 120000))
            dept_no = self._rng.randint(1, self.config.dept_range)
            rows.append(f"('emp{emp_no}', {emp_no}, {salary}, {dept_no})")
        return "insert into emp values " + ", ".join(rows)

    def _update(self):
        dept_no = self._rng.randint(1, self.config.dept_range)
        factor = round(self._rng.uniform(0.9, 1.1), 3)
        return (
            f"update emp set salary = salary * {factor} "
            f"where dept_no = {dept_no}"
        )

    def _delete(self):
        dept_no = self._rng.randint(1, self.config.dept_range)
        threshold = float(self._rng.randint(100000, 120000))
        return (
            f"delete from emp where dept_no = {dept_no} "
            f"and salary > {threshold}"
        )


def run_workload(db, config=None):
    """Generate and execute a workload; returns the per-block results."""
    generator = WorkloadGenerator(config)
    return [db.execute(block) for block in generator.blocks()]
