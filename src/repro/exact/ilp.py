"""The integer-program formulation of ``P || Cmax`` solved with HiGHS.

This is the exact formulation the paper hands to CPLEX:

    minimize   C
    subject to sum_i x_ij = 1                 for every job j
               sum_j t_j x_ij - C <= 0        for every machine i
               x_ij in {0, 1},  C >= LB

scipy's :func:`scipy.optimize.milp` (the bundled HiGHS solver) plays the
role of CPLEX.  Optional machine-symmetry-breaking constraints (machine
loads non-increasing in the machine index) dramatically shrink the
branch-and-cut tree on some families while slowing others — mirroring the
erratic CPLEX behaviour the paper observes but cannot explain (§V-B).

Variable layout: ``x`` is flattened machine-major (``x[i*n + j]``),
followed by the single continuous variable ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.instance import Instance
from repro.model.schedule import Schedule


@dataclass(frozen=True)
class ILPResult:
    """Outcome of one MILP solve."""

    schedule: Schedule
    optimal: bool
    objective: float
    solver_status: int
    solver_message: str

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


def ilp_solve(
    instance: Instance,
    time_limit: float | None = None,
    symmetry_breaking: bool = True,
    mip_rel_gap: float = 0.0,
) -> ILPResult:
    """Solve the assignment MILP to optimality (or until ``time_limit``).

    Returns the incumbent schedule either way; ``optimal`` reports
    whether HiGHS proved optimality.

    >>> ilp_solve(Instance([5, 4, 3, 3, 3], num_machines=2)).makespan
    9
    """
    # scipy costs ~0.65 s and ~540 modules to import, so only this
    # engine pays for it, not every ``import repro``.
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    n = instance.num_jobs
    m = instance.num_machines
    t = np.asarray(instance.processing_times, dtype=float)
    num_x = m * n
    num_vars = num_x + 1  # + makespan variable C

    # Objective: minimize C.
    c = np.zeros(num_vars)
    c[num_x] = 1.0

    constraints: list[LinearConstraint] = []

    # Each job on exactly one machine.
    a_assign = lil_matrix((n, num_vars))
    for j in range(n):
        for i in range(m):
            a_assign[j, i * n + j] = 1.0
    constraints.append(LinearConstraint(a_assign.tocsr(), lb=1.0, ub=1.0))

    # Machine loads bounded by C.
    a_load = lil_matrix((m, num_vars))
    for i in range(m):
        for j in range(n):
            a_load[i, i * n + j] = t[j]
        a_load[i, num_x] = -1.0
    constraints.append(LinearConstraint(a_load.tocsr(), lb=-np.inf, ub=0.0))

    if symmetry_breaking and m > 1:
        # Non-increasing machine loads: load_i - load_{i+1} >= 0.
        a_sym = lil_matrix((m - 1, num_vars))
        for i in range(m - 1):
            for j in range(n):
                a_sym[i, i * n + j] = t[j]
                a_sym[i, (i + 1) * n + j] = -t[j]
        constraints.append(LinearConstraint(a_sym.tocsr(), lb=0.0, ub=np.inf))

    integrality = np.ones(num_vars)
    integrality[num_x] = 0.0  # C is continuous (integral anyway at opt)
    lb = np.zeros(num_vars)
    ub = np.ones(num_vars)
    lb[num_x] = float(instance.trivial_lower_bound())
    ub[num_x] = float(instance.trivial_upper_bound())

    options: dict[str, object] = {"mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb=lb, ub=ub),
        options=options,
    )
    if result.x is None:
        # HiGHS hit the time limit before finding any incumbent.  CPLEX
        # in the same situation reports its best heuristic solution; the
        # cheapest equivalent here is the LPT schedule, flagged
        # non-optimal so downstream ratio reports can surface it.
        from repro.algorithms.lpt import lpt as _lpt

        schedule = _lpt(instance)
        return ILPResult(
            schedule=schedule,
            optimal=False,
            objective=float(schedule.makespan),
            solver_status=int(result.status),
            solver_message=str(result.message),
        )
    x = np.asarray(result.x[:num_x]).reshape(m, n)
    groups: list[list[int]] = [[] for _ in range(m)]
    for j in range(n):
        i = int(np.argmax(x[:, j]))
        groups[i].append(j)
    schedule = Schedule(instance, groups)
    return ILPResult(
        schedule=schedule,
        optimal=result.status == 0,
        objective=float(result.fun) if result.fun is not None else float("nan"),
        solver_status=int(result.status),
        solver_message=str(result.message),
    )
