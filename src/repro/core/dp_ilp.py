"""The configuration-IP view of the rounded packing problem.

The DP of Eq. 4 has a classical alternative: the Gilmore–Gomory
*configuration integer program*

    minimize   sum_c x_c
    subject to sum_c x_c * c  =  N    (componentwise)
               x_c integer >= 0,

one variable per machine configuration — pick how many machines run each
configuration so the chosen multiset covers the job-count vector
exactly.  Solved here with scipy's HiGHS, it provides a *third*
independent oracle for ``OPT(N)`` (after the DP engines and the
assignment MILP on the original jobs), and it is how column-generation
approaches to `P || Cmax` scale the same subproblem far beyond what the
table DP can touch.

Used by the test suite for cross-validation and exposed for users who
want exact rounded packings on instances whose DP table would not fit in
memory.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.context import DEFAULT_CONTEXT, SolveContext
from repro.core.dp import DPProblem, DPResult, _enumerate_traced, _stats


def solve_config_ilp(
    problem: DPProblem,
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    time_limit: float | None = None,
    ctx: SolveContext | None = None,
) -> DPResult:
    """Solve ``OPT(N)`` via the configuration integer program.

    Same contract as the :mod:`repro.core.dp` engines (``engine`` name
    ``"config-ilp"``); raises ``RuntimeError`` if HiGHS fails to prove
    optimality within ``time_limit``.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts or not any(problem.counts):
        stats = _stats(problem, 0, 0, 0) if collect_stats else None
        return DPResult(opt=0, engine="config-ilp", stats=stats)

    configs = _enumerate_traced(problem, ctx)
    num_vars = len(configs)
    if num_vars == 0:  # pragma: no cover - singleton configs always exist
        raise AssertionError("no feasible configurations")
    d = len(problem.counts)

    # Coverage matrix: rows are classes, columns are configurations.
    a = np.zeros((d, num_vars))
    for col, cfg in enumerate(configs.configs):
        for row, count in enumerate(cfg):
            a[row, col] = count
    n_vec = np.asarray(problem.counts, dtype=float)

    # Each machine uses at most as many configs as there are jobs.
    upper = float(problem.num_long_jobs)
    options: dict[str, object] = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = milp(
        c=np.ones(num_vars),
        constraints=[LinearConstraint(a, lb=n_vec, ub=n_vec)],
        integrality=np.ones(num_vars),
        bounds=Bounds(lb=np.zeros(num_vars), ub=np.full(num_vars, upper)),
        options=options,
    )
    if result.x is None or result.status != 0:
        raise RuntimeError(
            f"HiGHS failed on the configuration IP (status={result.status}: "
            f"{result.message})"
        )
    counts = np.rint(result.x).astype(int)
    opt = int(counts.sum())
    # No table is filled: the IP scans no state, but the stats describe
    # the same table (its anti-diagonal widths) as every other engine's.
    stats = _stats(problem, num_vars, 0, 0) if collect_stats else None
    if limit is not None and opt > limit:
        return DPResult(opt=None, engine="config-ilp", stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        chosen: list[tuple[int, ...]] = []
        for cfg, multiplicity in zip(configs.configs, counts):
            chosen.extend([cfg] * int(multiplicity))
        machine_configs = tuple(chosen)
    return DPResult(
        opt=opt, machine_configs=machine_configs, engine="config-ilp", stats=stats
    )
