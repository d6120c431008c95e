"""Cross-module property-based tests — the library's global invariants.

Each test here spans several subsystems (rounding → configurations → DP →
reconstruction → baselines → exact solvers) and pins an invariant stated
in DESIGN.md §8.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.list_scheduling import list_scheduling
from repro.algorithms.lpt import lpt
from repro.algorithms.multifit import multifit
from repro.core.bisection import bisect_target_makespan
from repro.core.bounds import makespan_bounds
from repro.core.context import SolveContext
from repro.core.dp import DPProblem, solve
from repro.core.parallel_dp import parallel_dp
from repro.core.ptas import parallel_ptas, ptas
from repro.core.rounding import round_instance
from repro.core.speculative import speculative_bisect
from repro.exact.branch_and_bound import branch_and_bound
from repro.exact.brute import brute_force
from repro.exact.ilp import ilp_solve
from repro.model.instance import Instance

from conftest import medium_instances, small_instances


@given(small_instances())
@settings(max_examples=40)
def test_all_exact_solvers_agree(inst: Instance):
    """brute == B&B == ILP on every small instance."""
    opt = brute_force(inst).makespan
    assert branch_and_bound(inst).makespan == opt
    ilp = ilp_solve(inst)
    assert ilp.optimal and ilp.makespan == opt


@given(small_instances())
@settings(max_examples=50)
def test_algorithm_hierarchy(inst: Instance):
    """OPT <= every heuristic's makespan <= its guarantee * OPT, and
    each schedule is a valid partition."""
    opt = brute_force(inst).makespan
    m = inst.num_machines
    checks = [
        (list_scheduling(inst), 2.0 - 1.0 / m),
        (lpt(inst), 4.0 / 3.0 - 1.0 / (3.0 * m)),
        (multifit(inst), 1.23),
        (ptas(inst, 0.3).schedule, 1.3),
    ]
    for schedule, factor in checks:
        assert schedule.is_valid()
        assert opt <= schedule.makespan <= factor * opt + 1e-9


@given(medium_instances(max_jobs=25, max_machines=6, max_time=40))
@settings(max_examples=30)
def test_ptas_within_bounds_without_oracle(inst: Instance):
    """On instances too big for brute force: PTAS stays within the
    trivial bounds and at most (1+eps) times the LB."""
    result = ptas(inst, 0.3)
    b = makespan_bounds(inst)
    assert result.makespan <= b.upper
    assert result.makespan <= 1.3 * b.upper  # trivial but type-checks flow
    assert result.makespan >= b.lower or result.makespan >= inst.max_time


@given(medium_instances(max_jobs=20, max_machines=5, max_time=30))
@settings(max_examples=20)
def test_parallel_ptas_deterministic_across_backends(inst: Instance):
    """serial / thread / simulated backends and any worker count produce
    byte-identical schedules."""
    reference = parallel_ptas(inst, 0.3, num_workers=1, backend="serial")
    for backend, workers in (("serial", 4), ("thread", 2), ("simulated", 8)):
        other = parallel_ptas(inst, 0.3, num_workers=workers, backend=backend)
        assert other.schedule.assignment == reference.schedule.assignment


@given(small_instances(), st.integers(min_value=2, max_value=6))
@settings(max_examples=25)
def test_bisection_certifies_a_feasible_target_below_opt(inst: Instance, k: int):
    """Every search — faithful, warm-started and speculative — certifies
    a target at which the rounded DP is feasible and which is at most
    OPT: the one-sided fact the ``(1 + eps)`` guarantee rests on.
    Rounded feasibility is not monotone in ``T`` (``tests/test_bisection.py``
    pins a dip), so nothing is asserted between two arbitrary targets."""
    m = inst.num_machines
    cap = k - 1

    def solver(problem: DPProblem, machines: int):
        return solve(problem, "numpy", limit=machines)

    def feasible(target: int) -> bool:
        r = round_instance(inst, target, k)
        problem = DPProblem(r.class_sizes, r.class_counts, target, job_cap=cap)
        return solve(problem, "table", limit=m, track_schedule=False).opt is not None

    opt = brute_force(inst).makespan
    outcomes = (
        bisect_target_makespan(inst, k, solver, cap),
        bisect_target_makespan(inst, k, solver, cap, ctx=SolveContext(warm_start=True)),
        speculative_bisect(inst, k, solver, 3, cap),
    )
    for outcome in outcomes:
        assert feasible(outcome.final_target), outcome.final_target
        assert outcome.final_target <= opt, (outcome.final_target, opt)


@given(medium_instances(max_jobs=15, max_machines=4, max_time=20))
@settings(max_examples=20)
def test_parallel_dp_equals_sequential_on_rounded_instances(inst: Instance):
    """End-to-end: DP problems arising from real rounding (not just the
    synthetic strategy) agree across sequential and wavefront engines."""
    target = makespan_bounds(inst).midpoint()
    r = round_instance(inst, target, 4)
    problem = DPProblem(r.class_sizes, r.class_counts, target)
    seq = solve(problem, "table")
    par = parallel_dp(problem, 3, "serial")
    assert par.opt == seq.opt
    assert par.machine_configs == seq.machine_configs


@given(small_instances(), st.sampled_from([1, 2, 3, 5, 8]))
@settings(max_examples=30)
def test_makespan_weakly_decreasing_in_machines(inst: Instance, extra: int):
    """Adding machines never hurts the optimum (sanity of the model and
    the exact solvers together)."""
    base = brute_force(inst).makespan
    more = brute_force(inst.with_machines(inst.num_machines + extra)).makespan
    assert more <= base


@given(small_instances())
@settings(max_examples=30)
def test_optimum_invariant_under_job_permutation(inst: Instance):
    """OPT depends only on the multiset of processing times."""
    shuffled = Instance(tuple(reversed(inst.processing_times)), inst.num_machines)
    assert brute_force(inst).makespan == brute_force(shuffled).makespan


@given(small_instances(), st.integers(min_value=2, max_value=4))
@settings(max_examples=30)
def test_optimum_scales_with_processing_times(inst: Instance, factor: int):
    """Scaling all times by c scales OPT by exactly c (integral scaling
    is lossless)."""
    scaled = Instance([t * factor for t in inst.processing_times], inst.num_machines)
    assert brute_force(scaled).makespan == factor * brute_force(inst).makespan
