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

from dataclasses import dataclass, replace

from repro.core.bisection import BisectionOutcome, bisect_target_makespan
from repro.core.bounds import makespan_bounds
from repro.core.context import DEFAULT_CONTEXT, SolveContext
from repro.core.dp import DPProblem, DPResult, _enumerate_traced, solve
from repro.core.parallel_dp import BACKENDS, EXECUTOR_BACKENDS, parallel_dp
from repro.core.rounding import accuracy_parameter, round_instance
from repro.core.speculative import speculative_bisect
from repro.model.instance import Instance
from repro.model.schedule import Schedule
from repro.core.reconstruct import build_schedule
from repro.obs.trace import NULL_TRACER
from repro.parallel.executor import make_executor
from repro.parallel.runs import level_sizes_from_dims
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import SimulatedMachine

#: Backends whose probes run through a pooled executor; the driver owns
#: one persistent (reusable) pool for the whole bisection.
_POOLED_BACKENDS = ("thread", "process")

#: Bisection modes of :func:`parallel_ptas`.
#: ``wavefront`` — sequential bisection, every probe's DP parallelized
#: across all ``P`` workers (the paper's design).
#: ``speculative`` — ``g`` independent probe targets per round evaluated
#: concurrently, each probe a serial DP sweep (see
#: :mod:`repro.core.speculative`); right when tables are too narrow for
#: the wavefront to absorb ``P`` workers.
#: ``auto`` — pick per instance: speculative when the widest anti-diagonal
#: of a representative probe cannot keep the workers busy.
MODES = ("wavefront", "speculative", "auto")

#: ``auto`` picks the speculative mode when the widest level of the
#: midpoint probe holds fewer than this many states per worker — below
#: that, per-level chunks are too small for intra-DP parallelism to pay.
_NARROW_STATES_PER_WORKER = 64


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
    #: Bisection mode that actually ran (:data:`MODES`, already resolved
    #: when the caller asked for ``auto``); sequential runs report
    #: ``wavefront``.
    mode: str = "wavefront"

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
        it returns the same target and schedule, faster.  The other
        engines certify the same target but may reconstruct a different
        schedule.
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


def _choose_mode(
    instance: Instance, k: int, num_workers: int, job_cap: int | None
) -> str:
    """Resolve ``mode="auto"``: speculative when the midpoint probe's
    widest anti-diagonal cannot keep ``P`` workers usefully busy."""
    if num_workers < 2:
        return "wavefront"
    lb = makespan_bounds(instance).lower
    ub = makespan_bounds(instance).upper
    if lb >= ub:
        return "wavefront"
    rounded = round_instance(instance, (lb + ub) // 2, k)
    problem = DPProblem(
        rounded.class_sizes, rounded.class_counts, rounded.target, job_cap=job_cap
    )
    widest = int(level_sizes_from_dims(problem.dims).max())
    if widest < num_workers * _NARROW_STATES_PER_WORKER:
        return "speculative"
    return "wavefront"


def _speculative_parallel_ptas(
    instance: Instance,
    eps: float,
    num_workers: int,
    backend: str,
    branching: int,
    collect_stats: bool,
    guarantee_fix: bool,
    ctx: SolveContext,
) -> PTASResult:
    """The speculative mode: ``branching`` concurrent decision probes per
    bisection round, each a serial numpy DP sweep (the mode exists
    precisely because the tables are too narrow to split *within* a
    probe), certification pipelined behind the rounds.

    Probes run on a thread pool — the kernel releases the GIL inside
    numpy, so concurrent probes scale like the wavefront's thread
    backend — except for ``backend="serial"``, which keeps everything on
    the calling thread (the deterministic reference).  The tracer stays
    on the driver thread throughout (see
    :func:`repro.core.speculative.speculative_bisect`).
    """
    k = accuracy_parameter(eps)
    cap = _effective_job_cap(k, guarantee_fix)
    # Workers must not touch the (thread-unsafe) tracer, and must not
    # inherit a wavefront executor: each probe is one serial DP.
    inner_ctx = replace(ctx, tracer=NULL_TRACER, executor=None)

    def decision_solver(problem: DPProblem, m: int) -> DPResult:
        return parallel_dp(
            problem, 1, "numpy-serial", limit=m, track_schedule=False,
            ctx=inner_ctx,
        )

    def certify_solver(problem: DPProblem, m: int) -> DPResult:
        return parallel_dp(
            problem, 1, "numpy-serial", limit=m, track_schedule=True,
            collect_stats=collect_stats, ctx=inner_ctx,
        )

    probe_backend = "serial" if backend == "serial" else "thread"
    executor = make_executor(
        probe_backend, branching, reuse=probe_backend == "thread"
    )
    try:
        with ctx.span(
            "solve",
            algorithm="parallel-ptas",
            engine=f"parallel-{backend}",
            backend=backend,
            mode="speculative",
            branching=branching,
            workers=num_workers,
            n=instance.num_jobs,
            m=instance.num_machines,
            eps=eps,
            k=k,
        ) as sp:
            outcome = speculative_bisect(
                instance,
                k,
                certify_solver,
                branching,
                job_cap=cap,
                ctx=ctx,
                executor=executor,
                decision_solver=decision_solver,
            )
            with ctx.span("reconstruct"):
                schedule = build_schedule(
                    instance, outcome.rounded, outcome.dp_result.machine_configs
                )
            sp.set(makespan=schedule.makespan, final_target=outcome.final_target)
    finally:
        executor.close()
    return PTASResult(
        schedule=schedule,
        eps=eps,
        k=k,
        final_target=outcome.final_target,
        outcome=outcome,
        dp_engine=f"parallel-{backend}",
        num_workers=num_workers,
        mode="speculative",
    )


def parallel_ptas(
    instance: Instance,
    eps: float,
    num_workers: int,
    *,
    backend: str = "simulated",
    mode: str = "wavefront",
    branching: int | None = None,
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
    mode:
        Where the workers go (:data:`MODES`): ``"wavefront"`` puts them
        all inside each probe's DP; ``"speculative"`` spends them across
        ``branching`` concurrent probe targets per bisection round
        (serial/thread/process backends only — the simulated study lives
        in :func:`repro.core.speculative.simulate_speculative_ptas`);
        ``"auto"`` measures the midpoint probe's widest anti-diagonal and
        picks speculative only when it is too narrow to absorb ``P``
        workers.  Both modes certify an equally valid ``(1 + eps)``
        target (feasibility is monotone in the target).
    branching:
        Concurrent probes per speculative round ``g`` (the interval
        shrinks by a factor ``g + 1`` per round); defaults to
        ``num_workers``.
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
    charges every probe to the modeled machine), the faithful search
    (``warm_start=False``) and the speculative mode fill every probe.

    The returned schedule is identical to :func:`ptas` with
    ``engine="table"`` — parallelization changes execution order within
    anti-diagonals only, never the table contents.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
        )
    if mode not in MODES:
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {sorted(MODES)}"
        )
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    k = accuracy_parameter(eps)
    if mode == "auto":
        mode = (
            _choose_mode(
                instance, k, num_workers, _effective_job_cap(k, guarantee_fix)
            )
            if backend in EXECUTOR_BACKENDS
            else "wavefront"
        )
    if mode == "speculative":
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"mode='speculative' requires an executor backend "
                f"{EXECUTOR_BACKENDS}; for the simulated study use "
                "repro.core.speculative.simulate_speculative_ptas"
            )
        return _speculative_parallel_ptas(
            instance,
            eps,
            num_workers,
            backend,
            branching if branching is not None else max(1, num_workers),
            collect_stats,
            guarantee_fix,
            ctx,
        )
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
