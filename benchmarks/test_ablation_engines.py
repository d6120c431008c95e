"""Ablation benchmark: DP engine comparison (DESIGN.md §7).

Quantifies what the ``dominance`` engine's Pareto pruning saves over the
faithful ``table`` sweep: on the paper's own instance families it does
an order of magnitude fewer configuration scans.  (It serves no
answers: its trimmed cover is a different witness than the table's.)
"""

from __future__ import annotations

import pytest

from repro.core.bounds import makespan_bounds
from repro.core.dp import DPProblem, solve
from repro.core.rounding import round_instance
from repro.workloads.generator import make_instance

ENGINES = ("table", "frontier", "dominance", "numpy")


def _problem(kind: str, m: int, n: int, seed: int = 0) -> DPProblem:
    inst = make_instance(kind, m, n, seed=seed)
    target = makespan_bounds(inst).midpoint()
    r = round_instance(inst, target, 4)
    return DPProblem(r.class_sizes, r.class_counts, target)


PROBLEMS = {
    "u_100_m10_n30": _problem("u_100", 10, 30),
    "u_10n_m10_n30": _problem("u_10n", 10, 30),
    "lpt_adv_m10": _problem("lpt_adversarial", 10, 21),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
def test_engine_speed(benchmark, engine, problem_name):
    problem = PROBLEMS[problem_name]
    benchmark.group = f"dp-{problem_name}"
    result = benchmark(
        solve, problem, engine, track_schedule=False
    )
    reference = solve(problem, "table", track_schedule=False)
    assert result.opt == reference.opt


def test_dominance_scan_reduction(benchmark):
    """The headline ablation number: dominance needs far fewer scans.

    (Wall-clock can still favour the table sweep on small tables — the
    Pareto pruning is quadratic in the frontier — which is why both
    engines exist; the scan counts show where dominance wins as tables
    grow.)
    """

    def measure() -> dict[str, float]:
        out: dict[str, float] = {}
        for name, problem in PROBLEMS.items():
            full = solve(problem, "table", track_schedule=False, collect_stats=True)
            dom = solve(
                problem, "dominance", track_schedule=False, collect_stats=True
            )
            assert full.stats is not None and dom.stats is not None
            out[name] = full.stats.config_scans / max(dom.stats.config_scans, 1)
        return out

    reductions = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name, reduction in reductions.items():
        assert reduction > 2.0, (
            f"{name}: dominance reduced scans only {reduction:.1f}x"
        )
