"""Parallel DP (Alg. 3): the anti-diagonal wavefront over the DP table.

The key structural facts (paper §III):

* the subproblems on one anti-diagonal — states whose component sum
  ``d_i`` equals the level index ``l`` — are mutually independent;
* every dependency of a level-``l`` state lies on a strictly earlier
  anti-diagonal, because subtracting a non-zero configuration strictly
  decreases the component sum.

Every backend runs the same compute core — the vectorized
:class:`~repro.core.kernels.LevelKernel` — against one ``int64`` table,
so the recurrence is implemented exactly once and all backends are
bit-identical by construction.

Schedules
---------
``levels``
    The paper's literal schedule: one barrier per anti-diagonal, each
    level's states round-robin across ``P`` workers.  Faithful, but at
    realistic probe sizes the per-level dispatch + barrier overhead
    swamps the work (the benchmarked reason the parallel backends used
    to lose to the fused serial sweep).
``runs`` (default for the real backends)
    The batched tile schedule of :mod:`repro.parallel.runs`: contiguous
    flat-index *blocks* with persistent per-worker ownership ×
    contiguous *runs* of levels, executed along tile diagonals with one
    barrier per diagonal (``B + R - 1`` barriers instead of ``n'``).
    Race-free because a predecessor state is always in the same-or-lower
    block *and* the same-or-earlier run (see the dependency argument in
    ``repro/parallel/runs.py``); within a tile the worker sweeps its
    levels in order.  Run length adapts to a measured per-level cost
    model, and the block count never exceeds the CPUs the process can
    actually use — oversubscription is pure barrier overhead.

Backends
--------
``serial``
    The wavefront order executed by one worker through the executor
    machinery — the reference every other backend is diffed against.
``numpy-serial``
    Direct kernel sweep, one vectorized pass per anti-diagonal with no
    executor or partitioning overhead — the fastest single-worker path
    and the reference the benchmarks normalize against.
``thread``
    Shared-memory threads over the one numpy table (the faithful OpenMP
    analogue).  The kernel releases the GIL inside numpy array ops, so
    threads scale on multicore hosts instead of serializing.
``process``
    Worker processes attached to one ``multiprocessing.shared_memory``
    block holding the table; each dispatch ships only the flat indices
    of its tile.  Pool workers cache the probe's kernel and table
    mapping on first touch, so a persistent pool (see
    :func:`repro.parallel.executor.make_executor`) pays attachment once
    per probe, not per dispatch.
``simulated``
    Serial execution plus deterministic cost accounting on a
    :class:`~repro.simcore.machine.SimulatedMachine` — the testbed
    substitute used by the speedup experiments (DESIGN.md §6).  Both
    schedules are supported: ``levels`` reproduces the paper's model,
    ``runs`` models the batched schedule (one barrier per tile
    diagonal) for the same table.

All backends produce exactly the same table, hence the same ``OPT(N)``
and the same reconstructed machine configurations.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.core.configurations import ConfigurationSet
from repro.core.context import DEFAULT_CONTEXT, SolveContext
from repro.core.dp import (
    DPProblem,
    DPResult,
    DPStats,
    _enumerate_traced,
    backtrack_schedule,
)
from repro.core.kernels import (
    LevelKernel,
    build_level_arrays,
    table_opt,
)
from repro.parallel.cpus import usable_cpus
from repro.parallel.executor import Executor, make_executor
from repro.parallel.partition import round_robin_partition
from repro.parallel.runs import KernelCostModel, TilePlan, build_tiles, plan_tiles
from repro.simcore.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.simcore.machine import SimulatedMachine

BACKENDS = ("serial", "numpy-serial", "thread", "process", "simulated")

#: Backends that execute through an :class:`~repro.parallel.executor.Executor`
#: and therefore accept an externally owned (persistent) one.
EXECUTOR_BACKENDS = ("serial", "thread", "process")

#: Wavefront schedules (see module docstring).
SCHEDULES = ("levels", "runs")

#: Tables below this size skip the timed cost-model measurement when
#: planning tiles — the defaults are accurate enough and the probe is
#: too small for the measurement to amortize.
_MEASURE_THRESHOLD = 4096

#: Default block over-decomposition: plan ``2 x workers`` contiguous
#: flat-index blocks and fold them onto workers as ``block % workers``.
#: Per-diagonal step time is the *maximum* busy block, and level states
#: are spread unevenly across equal flat-index ranges — two blocks per
#: worker smooth that imbalance (modeled speedup on the Figure-3
#: instance at 4 workers: 1.96x with B=4, 2.85x with B=8) at the cost
#: of a few extra ramp diagonals.
_OVERDECOMPOSE = 2

#: Measured per-kernel-shape cost models, keyed by
#: ``(num_configs, num_dims)`` — probes of one bisection share shapes.
_COST_CACHE: dict[tuple[int, int], KernelCostModel] = {}


@dataclass(frozen=True, eq=False)
class LevelIndex:
    """Flat state indices of every anti-diagonal, in row-major order.

    ``levels[l]`` is the ``int64`` index array of DP-table entries with
    component sum ``l`` — the materialized form of Alg. 3's ``D`` array
    plus the per-level grouping its main loop performs with the
    ``d_i = l`` test.  Levels stay numpy arrays end-to-end (partitioned
    by strided slicing, consumed by the vectorized kernel) — no
    per-state boxing into Python ints.
    """

    levels: tuple[np.ndarray, ...]

    @property
    def num_levels(self) -> int:
        """Number of anti-diagonals (``n' + 1``)."""
        return len(self.levels)

    @property
    def sizes(self) -> tuple[int, ...]:
        """``q_l`` for every level."""
        return tuple(len(lv) for lv in self.levels)


def build_level_index(problem: DPProblem) -> LevelIndex:
    """Group all ``sigma`` states by anti-diagonal (vectorized; shared
    per table shape through :func:`repro.core.kernels.level_layout`)."""
    return LevelIndex(build_level_arrays(problem.dims))


def _plan_for(
    problem: DPProblem,
    kernel: LevelKernel,
    level_index: LevelIndex,
    num_blocks: int,
    *,
    measured: bool = True,
) -> TilePlan:
    """Default tile plan: measured cost model (cached per kernel shape)
    on big tables, static defaults on small ones.  ``measured=False``
    skips the host timing probe entirely — the simulated backend plans
    from the static defaults so its geometry is deterministic (the
    simulator's currency is ops, not host seconds)."""
    cost: KernelCostModel | None = None
    if (
        measured
        and problem.table_size >= _MEASURE_THRESHOLD
        and level_index.num_levels > 1
    ):
        key = (kernel.num_configs, len(problem.dims))
        cost = _COST_CACHE.get(key)
        if cost is None:
            biggest = max(level_index.levels[1:], key=len)
            cost = KernelCostModel.measure(kernel, biggest, problem.table_size)
            _COST_CACHE[key] = cost
    return plan_tiles(
        level_index.sizes,
        problem.table_size,
        num_blocks,
        num_configs=kernel.num_configs,
        cost=cost,
    )


# ---------------------------------------------------------------------------
# Process backend: shared-memory numpy table, kernel-running pool workers
# ---------------------------------------------------------------------------

#: Worker-side cache: probe token -> (shm handle, table view, kernel).
_WORKER_STATE: dict[object, tuple] = {}

#: Driver-side probe tokens — unique per shared-memory table so pool
#: workers can cache their attachment across the dispatches of one probe
#: and evict it when the next probe (same persistent pool) begins.
_PROBE_TOKENS = itertools.count()


def _attach_worker(token, shm_name, sigma, kernel):  # pragma: no cover - workers
    """Worker-side shared-memory attachment, cached per probe token."""
    state = _WORKER_STATE.get(token)
    if state is None:
        from multiprocessing import shared_memory

        for stale in list(_WORKER_STATE):
            _WORKER_STATE.pop(stale)[0].close()
        shm = shared_memory.SharedMemory(name=shm_name)
        table = np.ndarray((sigma,), dtype=np.int64, buffer=shm.buf)
        state = (shm, table, kernel)
        _WORKER_STATE[token] = state
    return state


def _process_worker_run(payload: tuple) -> None:  # pragma: no cover - workers
    """Run one chunk of one level inside a pool worker (``levels``
    schedule).  ``payload`` is ``(token, shm_name, sigma, kernel, level,
    flats)``."""
    token, shm_name, sigma, kernel, level, flats = payload
    _, table, kernel = _attach_worker(token, shm_name, sigma, kernel)
    kernel.update(table, np.asarray(flats, dtype=np.int64), level=level)


def _process_tile_run(payload: tuple):  # pragma: no cover - workers
    """Run one tile (one block × one run of levels) inside a pool worker
    (``runs`` schedule).  ``payload`` is ``(token, shm_name, sigma,
    kernel, start_level, chunks)``; returns ``(states, seconds)`` for
    the driver's utilization counters."""
    token, shm_name, sigma, kernel, start_level, chunks = payload
    _, table, kernel = _attach_worker(token, shm_name, sigma, kernel)
    t0 = time.perf_counter()
    states = 0
    for i, flats in enumerate(chunks):
        if len(flats):
            kernel.update(table, flats, level=start_level + i)
            states += len(flats)
    return states, time.perf_counter() - t0


def _run_process_backend(
    problem: DPProblem,
    kernel: LevelKernel,
    level_index: LevelIndex,
    num_workers: int,
    executor: Executor | None,
    ctx: SolveContext,
    schedule: str,
    plan: TilePlan | None,
) -> np.ndarray:
    """Fill the table in shared memory with pool workers; returns a copy."""
    from multiprocessing import shared_memory

    sigma = problem.table_size
    shm = shared_memory.SharedMemory(create=True, size=max(sigma * 8, 8))
    try:
        table = np.ndarray((sigma,), dtype=np.int64, buffer=shm.buf)
        kernel.init_table(table)
        owns = executor is None
        ex = executor if executor is not None else make_executor(
            "process", num_workers
        )
        token = next(_PROBE_TOKENS)
        try:
            if schedule == "runs":
                def make_payload(start_level: int, chunks: list) -> tuple:
                    return (token, shm.name, sigma, kernel, start_level, chunks)

                _drive_tiles(
                    problem, kernel, level_index, ex, ctx, plan,
                    _process_tile_run, make_payload,
                )
            else:
                for level, flats in enumerate(level_index.levels[1:], start=1):
                    with ctx.span("level", level=level, states=len(flats)):
                        chunks = round_robin_partition(flats, ex.num_workers)
                        payloads = [
                            (token, shm.name, sigma, kernel, level,
                             np.ascontiguousarray(c))
                            if len(c)
                            else ()
                            for c in chunks
                        ]
                        ex.map_chunks(_process_worker_run, payloads)
                ctx.count("levels", level_index.num_levels - 1)
        finally:
            if owns:
                ex.close()
        return table.copy()
    finally:
        shm.close()
        shm.unlink()


# ---------------------------------------------------------------------------
# Batched (tiled) wavefront driver
# ---------------------------------------------------------------------------

def _drive_tiles(
    problem: DPProblem,
    kernel: LevelKernel,
    level_index: LevelIndex,
    ex: Executor,
    ctx: SolveContext,
    plan: TilePlan | None,
    tile_fn,
    make_payload,
) -> TilePlan:
    """Execute the tile-diagonal schedule on *ex*: one ``map_chunks``
    call (= one barrier) per diagonal, block ``b`` always on chunk slot
    ``b`` so pooled workers keep touching the same table region.  By
    default blocks over-decompose the table ``2 x workers`` wide
    (:data:`_OVERDECOMPOSE`) and fold back as ``block % workers``, which
    smooths the per-diagonal load imbalance of contiguous flat ranges.

    ``tile_fn(payload)`` must return ``(states, seconds)``;
    ``make_payload(start_level, chunks)`` builds the per-tile payload
    (the thread path closes over the shared table, the process path
    ships shared-memory coordinates).  Emits one ``run`` span per
    diagonal and per-worker utilization counters at the end.
    """
    if plan is None:
        workers = max(1, min(ex.num_workers, usable_cpus()))
        blocks = workers if workers == 1 else _OVERDECOMPOSE * workers
        plan = _plan_for(problem, kernel, level_index, blocks)
    tiles = build_tiles(level_index.levels, plan)
    tile_states = [
        [sum(len(c) for c in chunks) for chunks in per_block]
        for per_block in tiles
    ]
    num_worker_slots = max(1, min(ex.num_workers, plan.num_blocks))
    busy_us = [0] * num_worker_slots
    states_done = [0] * num_worker_slots
    for t in range(plan.num_diagonals):
        active = plan.tiles_on_diagonal(t)
        payloads: list = [()] * plan.num_blocks
        span_states = 0
        for b, r in active:
            if tile_states[r][b]:
                payloads[b] = make_payload(plan.runs[r][0], tiles[r][b])
                span_states += tile_states[r][b]
        with ctx.span(
            "run", diagonal=t, tiles=len(active), states=span_states
        ):
            results = ex.map_chunks(tile_fn, payloads)
        ctx.count("runs")
        for b, res in enumerate(results):
            if res is not None:
                states_done[b % num_worker_slots] += res[0]
                busy_us[b % num_worker_slots] += int(res[1] * 1e6)
    for b in range(num_worker_slots):
        if states_done[b]:
            ctx.record_metric(f"wavefront.worker.{b}.states", states_done[b])
            ctx.record_metric(f"wavefront.worker.{b}.busy_us", busy_us[b])
    ctx.record_metric("wavefront.diagonals", max(plan.num_diagonals, 0))
    return plan


def _run_simulated(
    problem: DPProblem,
    kernel: LevelKernel,
    level_index: LevelIndex,
    table: np.ndarray,
    num_workers: int,
    machine: SimulatedMachine | None,
    cost_model: CostModel | None,
    cost_fidelity: str,
    schedule: str,
    plan: TilePlan | None,
    ctx: SolveContext,
) -> np.ndarray:
    """Serial fill + deterministic cost accounting, either per level
    (the paper's schedule) or per tile diagonal (the batched one)."""
    sigma = problem.table_size
    model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    sim = machine if machine is not None else SimulatedMachine(
        num_workers, model
    )
    # Alg. 3 lines 4-8: the parallel computation of the D array.
    sim.record_parallel_for(sigma, cost_per_item=float(len(problem.dims)))
    cost_per_state = model.state_cost(kernel.num_configs)
    per_state = cost_fidelity == "per_state"

    if schedule == "runs":
        p = sim.num_processors
        if plan is None:
            blocks = p if p == 1 else _OVERDECOMPOSE * p
            plan = _plan_for(
                problem, kernel, level_index, blocks, measured=False
            )
        # Initialization of OPT(0,...,0) by one processor.
        sim.record_uniform_level(0, 1, model.state_overhead_ops)
        tiles = build_tiles(level_index.levels, plan)
        for t in range(plan.num_diagonals):
            active = plan.tiles_on_diagonal(t)
            busy = [0.0] * p
            span_states = 0
            with ctx.span("run", diagonal=t, tiles=len(active)) as sp:
                for b, r in active:
                    lo = plan.runs[r][0]
                    for i, flats in enumerate(tiles[r][b]):
                        if not len(flats):
                            continue
                        counts = kernel.update(
                            table, flats, level=lo + i,
                            count_applicable=per_state,
                        )
                        if per_state:
                            busy[b % p] += sum(
                                model.state_cost(int(c)) for c in counts
                            )
                        else:
                            busy[b % p] += len(flats) * cost_per_state
                        span_states += len(flats)
                sp.set(states=span_states)
            sim.record_parallel_step(t, busy, num_items=span_states)
            ctx.count("runs")
        return table

    for level, flats in enumerate(level_index.levels):
        if level == 0:
            # Initialization of OPT(0,...,0) by one processor.
            sim.record_uniform_level(0, 1, model.state_overhead_ops)
            continue
        with ctx.span("level", level=level, states=len(flats)):
            counts = kernel.update(
                table, flats, level=level, count_applicable=per_state
            )
            if per_state:
                sim.record_level(
                    level, [model.state_cost(int(c)) for c in counts]
                )
            else:
                sim.record_uniform_level(level, len(flats), cost_per_state)
    ctx.count("levels", level_index.num_levels - 1)
    return table


def _traced_sweep(
    kernel: LevelKernel,
    table: np.ndarray,
    levels: tuple[np.ndarray, ...],
    ctx: SolveContext,
) -> None:
    """:meth:`LevelKernel.sweep` with one ``level`` span per
    anti-diagonal.  Each level ends at one timestamp and the next starts
    there, so the spans tile the sweep; recording a finished span (about
    a microsecond) falls into the following level's interval instead of
    a gap between spans."""
    tracer = ctx.tracer
    clock = tracer.clock
    update = kernel.update
    start = clock()
    for level, flats in enumerate(levels[1:], start=1):
        update(table, flats, level=level)
        end = clock()
        tracer.add_span("level", start, end, level=level, states=len(flats))
        start = end
    ctx.count("levels", len(levels) - 1)


# ---------------------------------------------------------------------------
# Table filling (shared by parallel_dp and the test/benchmark surface)
# ---------------------------------------------------------------------------

def compute_table(
    problem: DPProblem,
    num_workers: int,
    backend: str = "serial",
    *,
    executor: Executor | None = None,
    kernel: LevelKernel | None = None,
    machine: SimulatedMachine | None = None,
    cost_model: CostModel | None = None,
    cost_fidelity: str = "uniform",
    schedule: str | None = None,
    plan: TilePlan | None = None,
    ctx: SolveContext | None = None,
) -> np.ndarray:
    """Fill and return the raw wavefront DP table for ``problem``.

    The returned ``int64`` array uses the
    :data:`~repro.core.kernels.KERNEL_INFEASIBLE` sentinel; all backends
    and both schedules return bit-identical tables.  ``executor`` lets a
    caller own a persistent pool across many probes (serial/thread/
    process backends); when omitted, ``ctx.executor`` is adopted (never
    closed) if set and compatible, else a fresh executor is created and
    closed per call.

    ``schedule`` selects the wavefront granularity (:data:`SCHEDULES`):
    ``"runs"`` (default for the executor backends) is the batched tile
    schedule, ``"levels"`` the paper's per-anti-diagonal fan-out (and the
    default for the simulated backend, whose existing accounting
    consumers expect per-level traces).  ``plan`` overrides the adaptive
    :class:`~repro.parallel.runs.TilePlan` (tests and benchmarks pin
    block/run geometry with it).

    When ``ctx`` carries a live tracer, each barrier interval is wrapped
    in a span (``level`` or ``run``) tagged with its state count; the
    untraced ``numpy-serial`` path keeps the fused
    :meth:`LevelKernel.sweep` fast path.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
        )
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if cost_fidelity not in ("uniform", "per_state"):
        raise ValueError(
            f"unknown cost_fidelity {cost_fidelity!r}; expected uniform/per_state"
        )
    if schedule is not None and schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
        )
    if executor is not None and backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"backend {backend!r} does not execute through an executor"
        )
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if executor is None and backend in EXECUTOR_BACKENDS:
        executor = ctx.executor
    if kernel is None:
        kernel = LevelKernel.for_problem(problem)
    level_index = LevelIndex(kernel.layout.levels)
    sigma = problem.table_size
    if schedule is None:
        schedule = "runs" if backend in EXECUTOR_BACKENDS else "levels"

    if backend == "process":
        return _run_process_backend(
            problem, kernel, level_index, num_workers, executor, ctx,
            schedule, plan,
        )

    table = kernel.allocate_table(sigma)
    if backend == "numpy-serial":
        if ctx.tracer.enabled:
            _traced_sweep(kernel, table, level_index.levels, ctx)
        else:
            kernel.sweep(table, level_index.levels)
        return table
    if backend == "simulated":
        return _run_simulated(
            problem, kernel, level_index, table, num_workers, machine,
            cost_model, cost_fidelity, schedule, plan, ctx,
        )

    # serial / thread: executor-driven chunks over the one shared table.
    owns = executor is None
    ex = executor if executor is not None else make_executor(backend, num_workers)
    try:
        if schedule == "runs":
            def tile_worker(payload):
                start_level, chunks = payload
                t0 = time.perf_counter()
                states = 0
                for i, flats in enumerate(chunks):
                    if len(flats):
                        kernel.update(table, flats, level=start_level + i)
                        states += len(flats)
                return states, time.perf_counter() - t0

            _drive_tiles(
                problem, kernel, level_index, ex, ctx, plan,
                tile_worker, lambda lo, chunks: (lo, chunks),
            )
        else:
            def worker(item):
                level, flats = item
                kernel.update(table, flats, level=level)

            for level, flats in enumerate(level_index.levels[1:], start=1):
                with ctx.span("level", level=level, states=len(flats)):
                    chunks = round_robin_partition(flats, ex.num_workers)
                    ex.map_chunks(
                        worker,
                        [(level, c) if len(c) else () for c in chunks],
                    )
            ctx.count("levels", level_index.num_levels - 1)
    finally:
        if owns:
            ex.close()
    return table


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parallel_dp(
    problem: DPProblem,
    num_workers: int,
    backend: str = "serial",
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    machine: SimulatedMachine | None = None,
    cost_model: CostModel | None = None,
    cost_fidelity: str = "uniform",
    schedule: str | None = None,
    plan: TilePlan | None = None,
    executor: Executor | None = None,
    ctx: SolveContext | None = None,
    configs: ConfigurationSet | None = None,
) -> DPResult:
    """Fill the DP table with the wavefront schedule of Alg. 3.

    Parameters
    ----------
    problem:
        The rounded packing problem of one bisection iteration.
    num_workers:
        ``P`` — processors of the (real or simulated) parallel machine.
    backend:
        One of :data:`BACKENDS`.
    machine:
        For ``backend="simulated"``: the accumulator that receives the
        cost accounting.  A fresh one is created when omitted; pass your
        own to aggregate multiple DP invocations (the bisection does).
    limit:
        Decision threshold: report infeasible when ``OPT(N) > limit``.
        The table is always filled completely (faithful to the paper).
    cost_fidelity:
        For the simulated backend: ``"uniform"`` charges every state the
        full configuration scan ``|C|`` (the paper's worst-case
        accounting); ``"per_state"`` charges the measured ``|C_v|`` of
        each state, which varies across a level and lets assignment
        policies (round-robin vs dynamic) be compared meaningfully.
    schedule / plan:
        Wavefront granularity (:data:`SCHEDULES`) and an optional
        explicit :class:`~repro.parallel.runs.TilePlan` — see
        :func:`compute_table`.
    executor:
        Externally owned executor for the serial/thread/process
        backends.  The bisection driver passes one persistent
        (reusable-pool) executor to every probe so pool startup is paid
        once per solve; ``parallel_dp`` never closes an executor it did
        not create.  When omitted, ``ctx.executor`` is adopted instead.
    ctx:
        :class:`~repro.core.context.SolveContext` carrying the tracer
        (``dp`` span around the table fill, one ``level``/``run`` span
        per barrier interval, ``enumerate`` / ``backtrack`` spans around
        the respective phases) and optionally the shared executor.
    configs:
        The problem's configuration set when the caller already
        enumerated it (the PTAS driver does, to key probe reuse); it is
        enumerated under an ``enumerate`` span otherwise.

    Returns
    -------
    DPResult
        Same contract as the sequential engines; ``engine`` is
        ``"parallel-<backend>"``.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
        )
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if cost_fidelity not in ("uniform", "per_state"):
        raise ValueError(
            f"unknown cost_fidelity {cost_fidelity!r}; expected uniform/per_state"
        )
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts:
        stats = (
            DPStats(
                sigma=1,
                num_levels=1,
                level_sizes=(1,),
                num_configs=0,
                states_computed=1,
                config_scans=0,
            )
            if collect_stats
            else None
        )
        if backend == "simulated" and machine is not None:
            machine.record_sequential(0.0)
        return DPResult(opt=0, engine=f"parallel-{backend}", stats=stats)

    if configs is None:
        configs = _enumerate_traced(problem, ctx)
    kernel = LevelKernel.for_problem(problem, configs)
    sigma = problem.table_size
    with ctx.span(
        "dp",
        engine=f"parallel-{backend}",
        sigma=sigma,
        backend=backend,
        workers=num_workers,
    ) as dp_span:
        table = compute_table(
            problem,
            num_workers,
            backend,
            executor=executor,
            kernel=kernel,
            machine=machine,
            cost_model=cost_model,
            cost_fidelity=cost_fidelity,
            schedule=schedule,
            plan=plan,
            ctx=ctx,
        )
        opt = table_opt(table, sigma - 1)
        dp_span.set(opt=opt)
    if opt is None:  # pragma: no cover - singleton configs guarantee feasibility
        raise AssertionError("parallel DP ended infeasible")
    stats = None
    if collect_stats:
        level_sizes = tuple(len(lv) for lv in kernel.layout.levels)
        stats = DPStats(
            sigma=sigma,
            num_levels=len(level_sizes),
            level_sizes=level_sizes,
            num_configs=len(configs),
            states_computed=sigma,
            config_scans=sigma * len(configs),
        )
    if limit is not None and opt > limit:
        return DPResult(opt=None, engine=f"parallel-{backend}", stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        with ctx.span("backtrack", engine=f"parallel-{backend}"):
            machine_configs = backtrack_schedule(
                lambda i: table_opt(table, i), problem, configs
            )
    return DPResult(
        opt=opt,
        machine_configs=machine_configs,
        engine=f"parallel-{backend}",
        stats=stats,
    )
