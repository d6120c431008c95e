"""Tables I, II and III of the paper.

* **Table I** is the worked example of §III: the DP table for
  ``N = (2, 3)`` with rounded sizes 6 and 11 at target ``T = 30``
  (``eps = 0.3`` → ``k = 4``).  :func:`run_table1` recomputes it with the
  real DP engines and renders the grid, anti-diagonal levels included.

* **Tables II / III** list the instances that are best / worst for the
  parallel approximation algorithm *in terms of actual approximation
  ratio* relative to LPT.  The paper selects them out of its full
  instance pool; we reproduce the procedure: run the ratio experiment
  over the §V families (including the LPT-adversarial ``U(m, 2m-1)``
  with ``n = 2m+1`` and the narrow ``U(95, 105)``), rank instances by
  ``ratio(LPT) - ratio(parallel PTAS)``, and report the top (Table II)
  and bottom (Table III) six as I1..I6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.algorithms.list_scheduling import list_scheduling
from repro.algorithms.lpt import lpt
from repro.core.dp import DPProblem, solve_table
from repro.core.parallel_dp import parallel_dp
from repro.core.ptas import parallel_ptas
from repro.exact.ilp import ilp_solve
from repro.experiments.reporting import ascii_table
from repro.model.instance import Instance
from repro.workloads.generator import make_instance

# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

#: The worked example of §III (rounded sizes 6 and 11, two and three jobs).
TABLE1_PROBLEM = DPProblem(class_sizes=(6, 11), counts=(2, 3), target=30)


@dataclass(frozen=True)
class Table1Result:
    """The recomputed DP table of the paper's example."""

    problem: DPProblem
    grid: tuple[tuple[int, ...], ...]  # grid[v1][v2] = OPT(v1, v2)
    level_sizes: tuple[int, ...]

    @property
    def opt(self) -> int:
        return self.grid[-1][-1]

    def render(self) -> str:
        """The DP grid plus the anti-diagonal widths, as ASCII tables."""
        n1, n2 = self.problem.counts
        headers = ["OPT(v1, v2)"] + [f"v2={j}" for j in range(n2 + 1)]
        rows = [
            [f"v1={i}"] + [self.grid[i][j] for j in range(n2 + 1)]
            for i in range(n1 + 1)
        ]
        table = ascii_table(headers, rows, title="Table I: DP table, N=(2,3), T=30")
        levels = ascii_table(
            ["anti-diagonal l"] + [str(l) for l in range(len(self.level_sizes))],
            [["q_l (parallel subproblems)"] + list(self.level_sizes)],
        )
        return table + "\n\n" + levels


def run_table1(num_workers: int = 4) -> Table1Result:
    """Recompute Table I with both the sequential table engine and the
    parallel wavefront, asserting they agree (the paper's Fig. 1 point:
    anti-diagonals can be processed in parallel without changing any
    entry)."""
    problem = TABLE1_PROBLEM
    seq = solve_table(problem, collect_stats=True)
    par = parallel_dp(problem, num_workers, "serial")
    if seq.opt != par.opt:  # pragma: no cover - engine disagreement guard
        raise AssertionError("sequential and parallel DP disagree on Table I")
    # Rebuild the full grid by re-running the faithful sweep and reading
    # the table back through the per-state recomputation.
    n1, n2 = problem.counts
    grid: list[tuple[int, ...]] = []
    # The table engine does not expose its internal list; recompute values
    # via sub-problems (cheap at this size and keeps the engine API slim).
    values: dict[tuple[int, int], int] = {}
    for v1 in range(n1 + 1):
        row = []
        for v2 in range(n2 + 1):
            sub = DPProblem(problem.class_sizes, (v1, v2), problem.target)
            res = solve_table(sub, track_schedule=False)
            assert res.opt is not None
            values[(v1, v2)] = res.opt
            row.append(res.opt)
        grid.append(tuple(row))
    assert seq.stats is not None
    return Table1Result(
        problem=problem, grid=tuple(grid), level_sizes=seq.stats.level_sizes
    )


# ---------------------------------------------------------------------------
# Tables II / III
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioRecord:
    """Approximation ratios of one instance (Fig. 5 bar group)."""

    instance_id: str
    family_label: str
    m: int
    n: int
    ratio_parallel: float
    ratio_lpt: float
    ratio_ls: float
    ip_optimal: bool

    @property
    def lpt_gap(self) -> float:
        """``ratio(LPT) - ratio(parallel PTAS)`` — positive when the PTAS
        beats LPT; the selection key of Tables II/III."""
        return self.ratio_lpt - self.ratio_parallel


@dataclass
class TableResult:
    """Tables II/III: selected instances with their ratios."""

    title: str
    records: list[RatioRecord]

    def render(self, title: str | None = None) -> str:
        """One row per selected instance with all three ratios."""
        headers = [
            "id",
            "type",
            "m",
            "n",
            "parallel PTAS",
            "LPT",
            "LS",
            "IP optimal",
        ]
        rows = [
            [
                r.instance_id,
                r.family_label,
                r.m,
                r.n,
                r.ratio_parallel,
                r.ratio_lpt,
                r.ratio_ls,
                r.ip_optimal,
            ]
            for r in self.records
        ]
        return ascii_table(headers, rows, title=title or self.title)


#: The instance-type pool of the ratio study: the four speedup families
#: at the paper's sizes, plus the two special families of §V-B.
RATIO_POOL: tuple[tuple[str, int, int], ...] = (
    ("u_2m", 10, 30),
    ("u_100", 10, 30),
    ("u_10", 10, 30),
    ("u_10n", 10, 30),
    ("u_2m", 10, 50),
    ("u_100", 10, 50),
    ("lpt_adversarial", 10, 21),
    ("lpt_adversarial", 20, 41),
    ("u_narrow", 10, 30),
    ("u_narrow", 20, 50),
)


def _reference_optimum(
    inst: Instance, ip_time_limit: float | None
) -> tuple[int, bool]:
    """Best available reference makespan for ratio computation.

    The paper's ratios divide by the CPLEX optimum.  Our branch-and-bound
    proves optimality quickly on most pool families and HiGHS covers the
    rest; when neither proves it within budget, the smaller incumbent is
    used and flagged, so consumers can soften their assertions exactly
    where the paper, too, had to trust a solver cut-off.
    """
    from repro.exact.branch_and_bound import branch_and_bound

    bnb = branch_and_bound(inst, node_budget=2_000_000)
    if bnb.optimal:
        return bnb.makespan, True
    ip = ilp_solve(inst, time_limit=ip_time_limit)
    if ip.optimal:
        return ip.makespan, True
    return min(bnb.makespan, ip.makespan), False


def _ratio_record(
    instance_id: str,
    kind: str,
    inst: Instance,
    eps: float,
    ip_time_limit: float | None,
) -> RatioRecord:
    from repro.workloads.families import family

    par = parallel_ptas(inst, eps, num_workers=4, backend="serial")
    lpt_ms = lpt(inst).makespan
    ls_ms = list_scheduling(inst).makespan
    opt, proven = _reference_optimum(inst, ip_time_limit)
    return RatioRecord(
        instance_id=instance_id,
        family_label=family(kind).label,
        m=inst.num_machines,
        n=inst.num_jobs,
        ratio_parallel=par.makespan / opt,
        ratio_lpt=lpt_ms / opt,
        ratio_ls=ls_ms / opt,
        ip_optimal=proven,
    )


def _ratio_pool_records(
    scale: str, base_seed: int, eps: float = 0.3
) -> list[RatioRecord]:
    per_type = 3 if scale == "paper" else 1
    time_limit = 30.0 if scale == "paper" else 10.0
    records: list[RatioRecord] = []
    counter = 0
    for kind, m, n in RATIO_POOL:
        for i in range(per_type):
            counter += 1
            inst = make_instance(kind, m, n, seed=base_seed + 1000 * counter + i)
            records.append(
                _ratio_record(f"I{counter}", kind, inst, eps, time_limit)
            )
    return records


def _select(
    records: Sequence[RatioRecord], best: bool, count: int = 6
) -> list[RatioRecord]:
    ordered = sorted(records, key=lambda r: r.lpt_gap, reverse=best)
    chosen = ordered[:count]
    return [
        RatioRecord(
            instance_id=f"I{i + 1}",
            family_label=r.family_label,
            m=r.m,
            n=r.n,
            ratio_parallel=r.ratio_parallel,
            ratio_lpt=r.ratio_lpt,
            ratio_ls=r.ratio_ls,
            ip_optimal=r.ip_optimal,
        )
        for i, r in enumerate(chosen)
    ]


def run_table2(scale: str = "smoke", base_seed: int = 0) -> TableResult:
    """Table II: the best-case instances (largest LPT-vs-PTAS gap)."""
    records = _ratio_pool_records(scale, base_seed)
    return TableResult(
        "Table II: best-case instances for the parallel PTAS",
        _select(records, best=True),
    )


def run_table3(scale: str = "smoke", base_seed: int = 0) -> TableResult:
    """Table III: the worst-case instances (smallest LPT-vs-PTAS gap)."""
    records = _ratio_pool_records(scale, base_seed)
    return TableResult(
        "Table III: worst-case instances for the parallel PTAS",
        _select(records, best=False),
    )
