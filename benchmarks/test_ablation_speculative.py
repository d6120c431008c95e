"""Ablation benchmark: speculative multi-probe bisection (DESIGN.md §7).

The paper leaves the bisection serial.  This ablation quantifies the
extension of :mod:`repro.core.speculative`: with ``g`` concurrent probes
per round the number of serial rounds drops like ``log_{g+1} W``, at the
price of ``g`` DPs of work per round (all but one speculative).  The
bench measures both the round count and the wall time of the probe work.
"""

from __future__ import annotations

import pytest

from repro.core.bisection import bisect_target_makespan
from repro.core.dp import DPProblem, DPResult, solve
from repro.core.speculative import count_rounds, speculative_bisect
from repro.workloads.generator import make_instance

INSTANCE = make_instance("u_10n", 10, 30, seed=5)


def solver(problem: DPProblem, m: int) -> DPResult:
    return solve(problem, "numpy", limit=m)


@pytest.mark.parametrize("branching", [1, 3, 7])
def test_speculative_probe_cost(benchmark, branching):
    benchmark.group = "speculative-bisection"
    outcome = benchmark(
        speculative_bisect, INSTANCE, 4, solver, branching
    )
    standard = bisect_target_makespan(INSTANCE, 4, solver)
    assert outcome.final_target == standard.final_target


def test_round_count_shrinks_with_branching(benchmark):
    def measure() -> dict[int, int]:
        return {
            g: count_rounds(speculative_bisect(INSTANCE, 4, solver, g), g)
            for g in (1, 3, 7)
        }

    rounds = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert rounds[3] <= rounds[1]
    assert rounds[7] <= rounds[3]
    # The probe *total* grows though — speculation trades work for rounds.
    probes = {
        g: len(speculative_bisect(INSTANCE, 4, solver, g).iterations)
        for g in (1, 7)
    }
    assert probes[7] >= probes[1]
