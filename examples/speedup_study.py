#!/usr/bin/env python3
"""Scenario: reproducing the paper's speedup curves on one instance.

Runs the parallel approximation algorithm on a U(1, 10n) instance across
1-32 simulated processors and prints the speedup curve with per-level
utilization detail — the anatomy of Fig. 2(a)/3(a): near-linear scaling
while every anti-diagonal of the DP table is wider than P, saturation
once the narrow head/tail diagonals dominate.

Also demonstrates the real shared-memory backends (thread, process) for
users on actual multicore hosts.

Run:  python examples/speedup_study.py
"""

from __future__ import annotations

from repro import make_instance, parallel_ptas
from repro.core.bounds import makespan_bounds
from repro.core.dp import DPProblem
from repro.core.parallel_dp import parallel_dp
from repro.core.rounding import round_instance
from repro.parallel.runs import level_sizes_from_dims


def main() -> None:
    inst = make_instance("u_10n", m=10, n=30, seed=3)
    print(f"Instance: {inst}\n")

    # --- the wavefront structure ------------------------------------
    target = makespan_bounds(inst).midpoint()
    rounded = round_instance(inst, target, k=4)
    problem = DPProblem(rounded.class_sizes, rounded.class_counts, target)
    sizes = level_sizes_from_dims(problem.dims)
    num_levels = len(sizes)
    print(
        f"DP table at T={target}: {rounded.num_classes} classes, "
        f"sigma={problem.table_size} states over {num_levels} "
        f"anti-diagonals"
    )
    print("anti-diagonal widths q_l (parallelism available per level):")
    peak = max(sizes)
    for l in range(0, num_levels, max(1, num_levels // 12)):
        bar = "#" * int(sizes[l] / peak * 50)
        print(f"  l={l:3d}  q={sizes[l]:5d} |{bar}")

    # --- the speedup curve -------------------------------------------
    print("\nsimulated speedup of the full parallel PTAS:")
    print(f"{'P':>4} {'speedup':>8} {'efficiency':>11}")
    for p in (1, 2, 4, 8, 16, 32):
        result = parallel_ptas(inst, 0.3, num_workers=p)
        s = result.simulated_speedup or 1.0
        print(f"{p:>4} {s:>8.2f} {s / p:>10.1%}")

    # --- real backends -----------------------------------------------
    print("\nreal shared-memory backends (correctness demo; wall-clock")
    print("speedup needs a multicore host and the process backend):")
    serial = parallel_dp(problem, 1, "serial")
    for backend in ("thread", "process"):
        res = parallel_dp(problem, 2, backend)
        status = "OK" if res.opt == serial.opt else "MISMATCH"
        print(f"  {backend:8s} OPT={res.opt}  vs serial: {status}")


if __name__ == "__main__":
    main()
