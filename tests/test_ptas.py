"""Tests for the sequential and parallel PTAS (:mod:`repro.core.ptas`).

The headline invariants of the paper:

* the PTAS respects its ``(1 + eps)`` guarantee (checked against the
  brute-force optimum);
* the parallel algorithm produces *the same schedule* as the sequential
  PTAS — parallelization never changes results;
* in practice the actual approximation ratio is far below ``1 + eps``
  (§V-B: under 1.1 in the best cases).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lpt import lpt
from repro.core.context import SolveContext
from repro.core.ptas import parallel_ptas, ptas
from repro.exact.brute import brute_force
from repro.model.instance import Instance

from conftest import small_instances


class TestSequentialPTAS:
    def test_basic_run(self, small_instance):
        result = ptas(small_instance, eps=0.3)
        assert result.schedule.is_valid()
        assert result.k == 4
        assert result.guarantee_factor == pytest.approx(1.3)
        assert result.num_bisection_iterations >= 1

    def test_perfectly_divisible(self, tight_instance):
        result = ptas(tight_instance, eps=0.3)
        assert result.makespan == 8  # OPT: two 4s per machine

    def test_single_machine(self):
        inst = Instance([3, 5, 2], num_machines=1)
        result = ptas(inst, eps=0.3)
        assert result.makespan == 10

    def test_single_job(self):
        inst = Instance([7], num_machines=3)
        result = ptas(inst, eps=0.3)
        assert result.makespan == 7

    def test_more_machines_than_jobs(self):
        inst = Instance([4, 9, 2], num_machines=10)
        result = ptas(inst, eps=0.3)
        assert result.makespan == 9  # one job per machine is optimal

    def test_large_eps_degenerates_to_lpt(self):
        inst = Instance([8, 7, 6, 5, 4, 3], num_machines=2)
        result = ptas(inst, eps=1.5)  # k = 1: no long jobs at all
        assert result.k == 1
        assert result.makespan == lpt(inst).makespan

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            ptas(Instance([1], 1), eps=0.0)

    @pytest.mark.parametrize("engine", ["table", "numpy"])
    def test_engines_equal_makespan(self, small_instance, engine):
        reference = ptas(small_instance, 0.3, engine="table")
        other = ptas(small_instance, 0.3, engine=engine)
        assert other.makespan == reference.makespan
        assert other.final_target == reference.final_target

    def test_config_ilp_engine_same_target_and_guarantee(self, small_instance):
        """The configuration IP may pick a different witness (hence a
        different schedule) but must certify the same target and stay
        within the guarantee."""
        reference = ptas(small_instance, 0.3, engine="table")
        ilp = ptas(small_instance, 0.3, engine="config-ilp")
        assert ilp.final_target == reference.final_target
        opt = brute_force(small_instance).makespan
        assert ilp.makespan <= 1.3 * opt


class TestParallelPTAS:
    @pytest.mark.parametrize("backend", ["serial", "thread", "simulated"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_identical_to_sequential(self, small_instance, backend, workers):
        """The paper's core property: the parallel algorithm returns the
        very same schedule as the sequential PTAS."""
        seq = ptas(small_instance, 0.3, engine="table")
        par = parallel_ptas(
            small_instance, 0.3, num_workers=workers, backend=backend
        )
        assert par.makespan == seq.makespan
        assert par.final_target == seq.final_target
        assert par.schedule.assignment == seq.schedule.assignment

    def test_simulated_machine_attached(self, small_instance):
        par = parallel_ptas(small_instance, 0.3, num_workers=4)
        assert par.machine is not None
        assert par.simulated_speedup is not None
        assert par.machine.num_processors == 4

    def test_non_simulated_has_no_machine(self, small_instance):
        par = parallel_ptas(small_instance, 0.3, num_workers=2, backend="serial")
        assert par.machine is None
        assert par.simulated_speedup is None

    def test_rejects_unknown_backend(self, small_instance):
        with pytest.raises(ValueError, match="unknown backend"):
            parallel_ptas(small_instance, 0.3, num_workers=2, backend="mpi")

    @pytest.mark.slow
    def test_process_backend_identical(self, small_instance):
        seq = ptas(small_instance, 0.3, engine="table")
        par = parallel_ptas(small_instance, 0.3, num_workers=2, backend="process")
        assert par.schedule.assignment == seq.schedule.assignment


class TestGuarantee:
    @pytest.mark.parametrize("eps", [0.2, 0.3, 0.5, 1.0])
    def test_guarantee_on_fixed_instances(self, eps):
        instances = [
            Instance([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], 3),
            Instance([10, 10, 9, 9, 8, 8], 2),
            Instance([13, 11, 7, 5, 3, 2, 2], 4),
            Instance([6, 6, 6, 6, 6], 5),
            Instance([20, 1, 1, 1, 1, 1, 1], 2),
        ]
        for inst in instances:
            opt = brute_force(inst).makespan
            result = ptas(inst, eps)
            assert result.makespan <= (1 + eps) * opt + 1e-9, (
                f"PTAS violated its guarantee on {inst} at eps={eps}"
            )

    @given(small_instances(), st.sampled_from([0.3, 0.5, 1.0]))
    @settings(max_examples=60)
    def test_property_guarantee(self, inst: Instance, eps: float):
        opt = brute_force(inst).makespan
        result = ptas(inst, eps)
        assert result.schedule.is_valid()
        assert result.makespan <= (1 + eps) * opt + 1e-9

    @given(small_instances())
    @settings(max_examples=30)
    def test_property_parallel_equals_sequential(self, inst: Instance):
        seq = ptas(inst, 0.3, engine="table")
        par = parallel_ptas(inst, 0.3, num_workers=3, backend="serial")
        assert par.schedule.assignment == seq.schedule.assignment

    @given(small_instances())
    @settings(max_examples=30)
    def test_property_never_worse_than_guarantee_vs_lpt_baseline(self, inst):
        """Sanity floor: the PTAS with eps=0.3 must not exceed LPT's
        makespan by more than the guarantee gap allows (both are within
        their factors of OPT)."""
        opt = brute_force(inst).makespan
        result = ptas(inst, 0.3)
        assert result.makespan <= 1.3 * opt + 1e-9
        assert lpt(inst).makespan <= (4 / 3) * opt + 1e-9


class TestEpsilonTradeoff:
    def test_smaller_eps_not_worse(self):
        """Shrinking eps can only improve (or keep) the certified target."""
        inst = Instance([17, 13, 11, 9, 8, 7, 5, 4, 3, 2, 2, 1], 3)
        targets = [
            ptas(inst, eps).final_target for eps in (1.0, 0.5, 0.34, 0.25)
        ]
        assert targets == sorted(targets, reverse=True)


class TestCheckDeadline:
    """``check_deadline`` threads from the public PTAS entry points into
    the bisection loop (used by repro.service for graceful degradation)."""

    def test_sequential_noop_hook_same_schedule(self, small_instance):
        plain = ptas(small_instance, eps=0.3)
        hooked = ptas(
            small_instance, eps=0.3, ctx=SolveContext(check_deadline=lambda: None)
        )
        assert hooked.schedule.makespan == plain.schedule.makespan

    def test_sequential_raising_hook_propagates(self, small_instance):
        class Expired(Exception):
            pass

        def check() -> None:
            raise Expired

        with pytest.raises(Expired):
            ptas(small_instance, eps=0.3, ctx=SolveContext(check_deadline=check))

    def test_parallel_raising_hook_propagates(self, small_instance):
        class Expired(Exception):
            pass

        def check() -> None:
            raise Expired

        with pytest.raises(Expired):
            parallel_ptas(
                small_instance,
                eps=0.05,
                num_workers=2,
                backend="serial",
                ctx=SolveContext(check_deadline=check),
            )


#: Paper-family instances (family, m, n, seed) whose bisection repeats a
#: probe table at least once, plus u_2m/u_10 cells that do not.
REUSE_CASES = [
    ("u_100", 4, 12, 2),
    ("u_100", 10, 30, 0),
    ("u_10n", 5, 16, 0),
    ("u_10n", 10, 30, 2),
    ("lpt_adversarial", 10, 30, 1),
    ("u_narrow", 5, 16, 0),
    ("u_2m", 5, 16, 0),
    ("u_10", 10, 30, 0),
]


def _reuse_keys(instance, result) -> list[tuple]:
    """The reuse key of every probe, rebuilt from the iteration trace."""
    from repro.core.dp import DPProblem
    from repro.core.rounding import round_instance

    keys = []
    for it in result.outcome.iterations:
        rounded = round_instance(instance, it.target, result.k)
        problem = DPProblem(
            rounded.class_sizes, rounded.class_counts, it.target,
            job_cap=result.k - 1,
        )
        keys.append((
            problem.class_sizes, problem.counts, problem.job_cap,
            instance.num_machines, problem.configurations().configs,
        ))
    return keys


class TestProbeReuse:
    """With warm starts, a real backend returns the earlier result of a
    probe whose counts and configuration set repeat instead of refilling
    the table; nothing observable but the ``dp`` spans may change."""

    @pytest.mark.parametrize("family,m,n,seed", REUSE_CASES)
    @pytest.mark.parametrize("backend", ["numpy-serial", "serial", "thread"])
    def test_same_answer_and_trace_as_simulated(self, family, m, n, seed, backend):
        from repro.obs import Tracer
        from repro.workloads.generator import make_instance

        inst = make_instance(family, m, n, seed=seed)
        simulated = parallel_ptas(inst, 0.3, num_workers=2, backend="simulated")
        tracer = Tracer()
        real = parallel_ptas(
            inst, 0.3, num_workers=2, backend=backend,
            ctx=SolveContext(tracer=tracer),
        )
        assert real.schedule.assignment == simulated.schedule.assignment
        assert real.final_target == simulated.final_target
        assert real.outcome.iterations == simulated.outcome.iterations
        probes = len(real.outcome.iterations)
        distinct = len(set(_reuse_keys(inst, real)))
        assert len(tracer.find("probe")) == probes
        assert len(tracer.find("dp")) == distinct
        assert tracer.counters.get("dp_reuses", 0) == probes - distinct

    def test_paper_families_do_reuse(self):
        """The cases above must exercise reuse at all."""
        from repro.obs import Tracer
        from repro.workloads.generator import make_instance

        reuses = 0
        for family, m, n, seed in REUSE_CASES:
            tracer = Tracer()
            parallel_ptas(
                make_instance(family, m, n, seed=seed), 0.3, num_workers=1,
                backend="numpy-serial", ctx=SolveContext(tracer=tracer),
            )
            reuses += tracer.counters.get("dp_reuses", 0)
        assert reuses >= len(REUSE_CASES) // 2

    @pytest.mark.parametrize(
        "backend,ctx",
        [
            ("simulated", SolveContext()),
            ("numpy-serial", SolveContext(warm_start=False)),
        ],
        ids=["simulated", "faithful"],
    )
    def test_simulated_and_faithful_fill_every_probe(self, backend, ctx):
        from dataclasses import replace

        from repro.obs import Tracer
        from repro.workloads.generator import make_instance

        inst = make_instance("u_10n", 5, 16, seed=0)
        tracer = Tracer()
        result = parallel_ptas(
            inst, 0.3, num_workers=2, backend=backend,
            ctx=replace(ctx, tracer=tracer),
        )
        assert len(tracer.find("dp")) == result.num_bisection_iterations
        assert "dp_reuses" not in tracer.counters
