"""Public entry points: the sequential PTAS and its parallel version.

:func:`ptas` is Algorithm 1 — bounds, bisection over targets, rounded DP,
reconstruction, LPT fill — with a pluggable sequential DP engine.
:func:`parallel_ptas` is the paper's contribution: the identical driver
with the DP replaced by the wavefront Parallel DP (Alg. 3) on a chosen
backend.  Both return a :class:`PTASResult` carrying the schedule, the
certified target, the bisection trace and (for the simulated backend) the
multicore cost accounting used by the speedup experiments.

Guarantee: the returned makespan is at most ``(1 + eps)`` times optimal
(Hochbaum & Shmoys); the parallel version computes the *same* schedule as
the sequential one, so it inherits the guarantee verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bisection import BisectionOutcome, bisect_target_makespan
from repro.core.context import DEFAULT_CONTEXT, SolveContext
from repro.core.dp import DPProblem, DPResult, _enumerate_traced, solve
from repro.core.parallel_dp import BACKENDS, EXECUTOR_BACKENDS, parallel_dp
from repro.core.rounding import accuracy_parameter
from repro.model.instance import Instance
from repro.model.schedule import Schedule
from repro.core.reconstruct import build_schedule
from repro.parallel.executor import make_executor
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import SimulatedMachine

#: Backends whose probes run through a pooled executor; the driver owns
#: one persistent (reusable) pool for the whole bisection.
_POOLED_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class PTASResult:
    """Outcome of a (parallel) PTAS run."""

    schedule: Schedule
    eps: float
    k: int
    final_target: int
    outcome: BisectionOutcome
    dp_engine: str
    num_workers: int = 1
    machine: SimulatedMachine | None = None

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    @property
    def num_bisection_iterations(self) -> int:
        return self.outcome.num_iterations

    @property
    def guarantee_factor(self) -> float:
        """The a-priori approximation factor ``1 + eps`` of the scheme."""
        return 1.0 + self.eps

    @property
    def simulated_speedup(self) -> float | None:
        """Simulated multicore speedup (only for the simulated backend)."""
        if self.machine is None:
            return None
        return self.machine.speedup


def _effective_job_cap(k: int, guarantee_fix: bool) -> int | None:
    """The per-machine long-job cap ``k - 1`` of the guarantee fix.

    Any schedule of makespan ``<= T`` holds fewer than ``k`` long jobs per
    machine (each strictly exceeds ``T/k``), so the cap never excludes a
    true schedule; it only stops the integral rounding from packing
    machines that would overshoot ``(1 + 1/k) T`` after un-rounding.
    ``None`` reproduces the paper's Eq. 3 verbatim (weight-only).
    """
    if not guarantee_fix or k < 2:
        return None
    return k - 1


def ptas(
    instance: Instance,
    eps: float,
    *,
    engine: str = "numpy",
    collect_stats: bool = False,
    guarantee_fix: bool = True,
    ctx: SolveContext | None = None,
) -> PTASResult:
    """Sequential Hochbaum–Shmoys PTAS (Algorithm 1).

    Parameters
    ----------
    instance:
        The ``P || Cmax`` instance (positive integer times).
    eps:
        Relative error; the schedule's makespan is at most
        ``(1 + eps) * OPT``.  The paper's experiments use ``eps = 0.3``.
    engine:
        Sequential DP engine (see :data:`repro.core.dp.SEQUENTIAL_ENGINES`).
        ``"table"`` is the faithful full-table sweep; the default
        ``"numpy"`` fills the same table with the wavefront kernel, so
        it returns the same target and schedule, faster.
        ``"config-ilp"`` certifies the same target but may reconstruct a
        different schedule.
    guarantee_fix:
        Cap machine configurations at ``k - 1`` long jobs (default).  The
        algorithm *as printed* can exceed ``(1 + eps) OPT`` on integral
        instances because a long job may round below ``T/k``; the cap
        restores the proof without excluding any true schedule.  Pass
        ``False`` for the verbatim printed behaviour (what
        :func:`repro.core.reference.algorithm1` implements).
    ctx:
        :class:`~repro.core.context.SolveContext` bundling the
        cross-cutting concerns: deadline hook (checked before every
        bisection probe), warm-start policy (LPT-seeded upper bound +
        rounding reuse, on by default; the certified target and schedule
        are identical either way — this sequential driver fills every
        probe's table, and the harness times it to calibrate simulated
        seconds, so it skips :func:`parallel_ptas`'s probe reuse),
        tracer (the run is wrapped in a
        ``solve`` span; probes, DP phases and wavefront levels nest
        beneath it) and metrics.  Defaults to
        :data:`~repro.core.context.DEFAULT_CONTEXT`.

    Examples
    --------
    >>> inst = Instance([7, 7, 6, 6, 5, 4, 4, 3], num_machines=3)
    >>> result = ptas(inst, eps=0.3)
    >>> result.schedule.makespan <= 1.3 * 14
    True
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    k = accuracy_parameter(eps)

    def solver(problem: DPProblem, m: int) -> DPResult:
        return solve(
            problem,
            engine,
            limit=m,
            track_schedule=True,
            collect_stats=collect_stats,
            ctx=ctx,
        )

    with ctx.span(
        "solve",
        algorithm="ptas",
        engine=engine,
        n=instance.num_jobs,
        m=instance.num_machines,
        eps=eps,
        k=k,
    ) as sp:
        outcome = bisect_target_makespan(
            instance,
            k,
            solver,
            job_cap=_effective_job_cap(k, guarantee_fix),
            ctx=ctx,
        )
        with ctx.span("reconstruct"):
            schedule = build_schedule(
                instance, outcome.rounded, outcome.dp_result.machine_configs
            )
        sp.set(makespan=schedule.makespan, final_target=outcome.final_target)
    return PTASResult(
        schedule=schedule,
        eps=eps,
        k=k,
        final_target=outcome.final_target,
        outcome=outcome,
        dp_engine=engine,
        num_workers=1,
    )


def parallel_ptas(
    instance: Instance,
    eps: float,
    num_workers: int,
    *,
    backend: str = "simulated",
    cost_model: CostModel | None = None,
    collect_stats: bool = False,
    guarantee_fix: bool = True,
    ctx: SolveContext | None = None,
) -> PTASResult:
    """Parallel approximation algorithm (paper §III): Algorithm 1 with the
    DP replaced by the wavefront Parallel DP (Alg. 3).

    Parameters
    ----------
    num_workers:
        ``P`` — number of (real or simulated) processors.
    backend:
        ``"serial"`` (reference), ``"numpy-serial"`` (direct kernel
        sweep), ``"thread"`` (shared-memory threads over the vectorized
        kernel; scales on multicore), ``"process"`` (shared-memory worker
        processes), or ``"simulated"`` (deterministic multicore model
        used by the speedup experiments — see DESIGN.md §6).
    ctx:
        :class:`~repro.core.context.SolveContext` carrying deadline hook,
        warm-start policy, tracer and (optionally) an externally owned
        executor for the pooled backends — see :func:`ptas`.  When
        ``ctx.executor`` is set the driver runs every probe on it and
        never closes it.

    For the thread and process backends the driver owns one persistent
    reusable worker pool (``make_executor(..., reuse=True)``) that every
    bisection probe's wavefront runs on, so pool startup and teardown are
    paid once per solve instead of once per probe.

    Probe reuse, the third warm-start acceleration (see
    :mod:`repro.core.bisection`): with ``ctx.warm_start`` on, the
    serial/numpy-serial/thread/process backends key every probe by
    ``(class_sizes, counts, job_cap, m, configuration set)`` — all a
    table depends on — and return an earlier probe's ``DPResult`` for a
    repeated key instead of refilling.  Each probe is still traced and
    recorded in ``outcome.iterations``; a reused one has no ``dp`` span
    and bumps the ``dp_reuses`` counter.  The simulated backend (which
    charges every probe to the modeled machine) and the faithful search
    (``warm_start=False``) fill every probe.

    The returned schedule is identical to :func:`ptas` with
    ``engine="table"`` — parallelization changes execution order within
    anti-diagonals only, never the table contents.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
        )
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    k = accuracy_parameter(eps)
    machine = (
        SimulatedMachine(num_workers, cost_model or CostModel())
        if backend == "simulated"
        else None
    )
    external = ctx.executor if backend in EXECUTOR_BACKENDS else None
    owns_executor = external is None and backend in _POOLED_BACKENDS
    executor = (
        make_executor(backend, num_workers, reuse=True) if owns_executor else external
    )

    # Probe reuse: a probe's table depends only on the counts and the
    # configuration set, so a probe whose rounding repeats an earlier
    # one's key gets that probe's result back instead of a refill.
    reused: dict[tuple, DPResult] | None = (
        {} if ctx.warm_start and backend != "simulated" else None
    )

    def solver(problem: DPProblem, m: int) -> DPResult:
        configs = key = None
        if reused is not None and problem.counts:
            configs = _enumerate_traced(problem, ctx)
            key = (
                problem.class_sizes, problem.counts, problem.job_cap, m,
                configs.configs,
            )
            hit = reused.get(key)
            if hit is not None:
                ctx.count("dp_reuses")
                return hit
        result = parallel_dp(
            problem,
            num_workers,
            backend,
            limit=m,
            track_schedule=True,
            collect_stats=collect_stats,
            machine=machine,
            cost_model=cost_model,
            executor=executor,
            ctx=ctx,
            configs=configs,
        )
        if key is not None:
            reused[key] = result
        return result

    try:
        with ctx.span(
            "solve",
            algorithm="parallel-ptas",
            engine=f"parallel-{backend}",
            backend=backend,
            workers=num_workers,
            n=instance.num_jobs,
            m=instance.num_machines,
            eps=eps,
            k=k,
        ) as sp:
            outcome = bisect_target_makespan(
                instance,
                k,
                solver,
                job_cap=_effective_job_cap(k, guarantee_fix),
                ctx=ctx,
            )
            with ctx.span("reconstruct"):
                schedule = build_schedule(
                    instance, outcome.rounded, outcome.dp_result.machine_configs
                )
            sp.set(makespan=schedule.makespan, final_target=outcome.final_target)
    finally:
        if owns_executor and executor is not None:
            executor.close()
    return PTASResult(
        schedule=schedule,
        eps=eps,
        k=k,
        final_target=outcome.final_target,
        outcome=outcome,
        dp_engine=f"parallel-{backend}",
        num_workers=num_workers,
        machine=machine,
    )
