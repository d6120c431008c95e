"""Sequential dynamic-programming engines for the rounded packing problem.

Given the compressed class sizes, the job-count vector ``N`` and a target
makespan ``T``, every engine computes

    ``OPT(N)`` — the minimum number of machines that can execute all
    rounded long jobs with per-machine rounded load at most ``T``

via the recurrence (Eq. 4)

    ``OPT(v) = 1 + min_{s in C_v} OPT(v - s)``,  ``OPT(0) = 0``,

and (optionally) a witness: one machine configuration per machine, whose
componentwise sum is exactly ``N``.

Engines
-------
``table``
    Faithful to Alg. 2/3: materializes the full DP table of
    ``sigma = prod(n_i + 1)`` entries in row-major order and sweeps it
    once.  Row-major order dominates the componentwise order, so every
    predecessor ``v - s`` is ready when ``v`` is processed.  The
    reference the tests and the golden suite compare against.
``numpy``
    Vectorized variant of the level sweep: all states of one
    anti-diagonal are processed with numpy array operations, all
    configurations in one fused pass.  Semantically identical to
    ``table``; the kernel every PTAS answer comes from (the default).
``config-ilp``
    The Gilmore–Gomory configuration integer program
    (:mod:`repro.core.dp_ilp`): the same ``OPT(N)`` from an independent
    formulation, with no table at all.

All engines return a :class:`DPResult` and agree on ``OPT(N)`` — the
test suite enforces this on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.configurations import ConfigurationSet, enumerate_configurations
from repro.core.context import DEFAULT_CONTEXT, SolveContext
from repro.core.kernels import LevelKernel
from repro.parallel.runs import level_sizes_from_dims

#: Sentinel for "not computable / unreached" states.
INFEASIBLE = None


@dataclass(frozen=True)
class DPProblem:
    """Input of one DP invocation (one bisection iteration).

    ``class_sizes`` and ``counts`` are the compressed rounded classes of a
    :class:`~repro.core.rounding.RoundedInstance`; ``target`` is ``T``.

    ``job_cap`` bounds the total jobs per machine configuration.  ``None``
    reproduces the paper's Eq. 3 (weight-only) exactly; the PTAS driver
    passes ``k - 1`` by default to close the integral-rounding guarantee
    gap (see :func:`repro.core.configurations.enumerate_configurations`).
    """

    class_sizes: tuple[int, ...]
    counts: tuple[int, ...]
    target: int
    job_cap: int | None = None

    def __post_init__(self) -> None:
        if self.job_cap is not None and self.job_cap < 1:
            raise ValueError("job_cap must be >= 1 when given")
        if len(self.class_sizes) != len(self.counts):
            raise ValueError("class_sizes and counts must have equal length")
        for s in self.class_sizes:
            if s <= 0:
                raise ValueError(f"class sizes must be positive, got {s}")
        for c in self.counts:
            if c < 0:
                raise ValueError(f"counts must be non-negative, got {c}")
        if self.target < 0:
            raise ValueError("target must be non-negative")
        for s, c in zip(self.class_sizes, self.counts):
            if s > self.target and c > 0:
                raise ValueError(
                    f"class size {s} exceeds target {self.target}: no single "
                    "machine can run such a job"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        """Extent of each DP-table axis: ``n_c + 1``."""
        return tuple(c + 1 for c in self.counts)

    @property
    def table_size(self) -> int:
        """``sigma`` — number of DP-table entries."""
        size = 1
        for c in self.counts:
            size *= c + 1
        return size

    @property
    def num_long_jobs(self) -> int:
        """``n'`` — also the index of the last anti-diagonal."""
        return sum(self.counts)

    def strides(self) -> tuple[int, ...]:
        """Row-major strides for flattening count vectors."""
        d = len(self.counts)
        strides = [1] * d
        for c in range(d - 2, -1, -1):
            strides[c] = strides[c + 1] * self.dims[c + 1]
        return tuple(strides)

    def configurations(self) -> ConfigurationSet:
        """The full non-zero configuration set ``C`` for this problem."""
        return enumerate_configurations(
            self.class_sizes, self.counts, self.target, max_jobs=self.job_cap
        )


@dataclass(frozen=True)
class DPStats:
    """Work accounting of one DP run, consumed by the simulated multicore
    model and the ablation benchmarks."""

    sigma: int
    num_levels: int
    level_sizes: tuple[int, ...]
    num_configs: int
    states_computed: int
    config_scans: int

    @property
    def total_ops(self) -> int:
        """Abstract operation count: one op per configuration scanned."""
        return self.config_scans


@dataclass(frozen=True)
class DPResult:
    """Outcome of a DP engine run.

    ``opt`` is ``None`` when a ``limit`` was given and ``OPT(N)`` exceeds
    it (the bisection treats that as "no feasible schedule within T").
    ``machine_configs`` — when requested and feasible — sum componentwise
    to exactly ``N``.  ``decider`` names what answered the probe: ``dp``
    (an engine solved it), ``reuse`` (an earlier probe's result came
    back) or ``ffd`` (a first-fit-decreasing packing, whose ``opt`` is
    the number of machines it used — an upper bound on ``OPT(N)``).
    """

    opt: int | None
    machine_configs: tuple[tuple[int, ...], ...] = ()
    engine: str = ""
    stats: DPStats | None = None
    decider: str = "dp"


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def unrank(flat: int, dims: Sequence[int], strides: Sequence[int]) -> tuple[int, ...]:
    """Inverse of row-major flattening: recover the count vector of a flat
    table index."""
    return tuple((flat // strides[c]) % dims[c] for c in range(len(dims)))


def backtrack_schedule(
    table: Callable[[int], int | None],
    problem: DPProblem,
    configs: ConfigurationSet,
) -> tuple[tuple[int, ...], ...]:
    """Recover one optimal machine assignment by walking the DP table from
    ``N`` back to the zero vector.

    ``table`` maps a flat state index to its ``OPT`` value (or ``None``).
    Deterministic: scans configurations in their canonical order and takes
    the first one consistent with optimality.
    """
    strides = problem.strides()
    v = list(problem.counts)
    flat = sum(c * s for c, s in zip(v, strides))
    current = table(flat)
    if current is None:
        raise ValueError("cannot backtrack an infeasible state")
    chosen: list[tuple[int, ...]] = []
    while any(v):
        found = False
        for cfg in configs.configs:
            if all(s <= vc for s, vc in zip(cfg, v)):
                offset = sum(s * st for s, st in zip(cfg, strides))
                prev = table(flat - offset)
                if prev is not None and prev == current - 1:
                    chosen.append(cfg)
                    for c, s in enumerate(cfg):
                        v[c] -= s
                    flat -= offset
                    current = prev
                    found = True
                    break
        if not found:  # pragma: no cover - table inconsistency guard
            raise AssertionError("DP table inconsistent: no predecessor found")
    return tuple(chosen)


def _enumerate_traced(problem: DPProblem, ctx: SolveContext) -> ConfigurationSet:
    """Enumerate the problem's configuration set under an ``enumerate``
    span, tagging the span with ``|C|`` and bumping the
    ``configs_enumerated`` counter."""
    with ctx.span("enumerate") as sp:
        configs = problem.configurations()
        sp.set(num_configs=len(configs))
    ctx.count("configs_enumerated", len(configs))
    return configs


def _stats(
    problem: DPProblem, num_configs: int, states_computed: int, config_scans: int
) -> DPStats:
    """One run's :class:`DPStats`; the anti-diagonal widths come from
    :func:`repro.parallel.runs.level_sizes_from_dims`, the one level-size
    function."""
    level_sizes = tuple(int(q) for q in level_sizes_from_dims(problem.dims))
    return DPStats(
        sigma=problem.table_size,
        num_levels=len(level_sizes),
        level_sizes=level_sizes,
        num_configs=num_configs,
        states_computed=states_computed,
        config_scans=config_scans,
    )


def _empty_result(engine: str, collect_stats: bool) -> DPResult:
    """The result of a problem without long jobs: ``OPT = 0``, no
    machines, one (origin) state."""
    stats = _stats(DPProblem((), (), 0), 0, 1, 0) if collect_stats else None
    return DPResult(opt=0, machine_configs=(), engine=engine, stats=stats)


def read_kernel_table(
    kernel: LevelKernel,
    table: np.ndarray,
    problem: DPProblem,
    configs: ConfigurationSet,
    engine: str,
    *,
    limit: int | None,
    track_schedule: bool,
    collect_stats: bool,
    ctx: SolveContext,
) -> DPResult:
    """Read a filled level-encoded :class:`~repro.core.kernels.LevelKernel`
    table out into a :class:`DPResult` — the one read-out of the
    ``numpy`` engine and every :mod:`repro.core.parallel_dp` backend.

    Decodes ``OPT(N)``, builds the stats (every non-origin state counts
    a full scan of ``configs``, as in the ``table`` engine), applies
    ``limit`` and backtracks under a ``backtrack`` span, decoding only
    the entries the walk reads.
    """
    opt = kernel.opt(table, problem.table_size - 1)
    if opt is None:  # pragma: no cover - singleton configs guarantee feasibility
        raise AssertionError("DP table ended infeasible; singleton configs missing?")
    stats = None
    if collect_stats:
        stats = _stats(
            problem,
            len(configs),
            problem.table_size,
            (problem.table_size - 1) * len(configs),
        )
    if limit is not None and opt > limit:
        return DPResult(opt=None, engine=engine, stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        with ctx.span("backtrack", engine=engine):
            machine_configs = backtrack_schedule(
                lambda i: kernel.opt(table, i), problem, configs
            )
    return DPResult(
        opt=opt, machine_configs=machine_configs, engine=engine, stats=stats
    )


# ---------------------------------------------------------------------------
# Engine: faithful full-table sweep
# ---------------------------------------------------------------------------

def solve_table(
    problem: DPProblem,
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    ctx: SolveContext | None = None,
) -> DPResult:
    """Alg. 2 as an iterative row-major sweep of the complete DP table.

    Every state scans the full configuration list (cost ``|C|`` per entry,
    matching the paper's complexity accounting).  ``limit`` only affects
    the *returned* value — the faithful engine still fills the whole
    table, as the paper's algorithm does.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts:
        return _empty_result("table", collect_stats)
    dims = problem.dims
    strides = problem.strides()
    sigma = problem.table_size
    configs = _enumerate_traced(problem, ctx)
    cfg_offsets = [
        (cfg, sum(s * st for s, st in zip(cfg, strides))) for cfg in configs.configs
    ]
    table: list[int | None] = [None] * sigma
    table[0] = 0
    # Odometer over count vectors in row-major order.
    v = [0] * len(dims)
    scans = 0
    for flat in range(1, sigma):
        # increment odometer (last axis fastest)
        for c in range(len(dims) - 1, -1, -1):
            if v[c] + 1 < dims[c]:
                v[c] += 1
                break
            v[c] = 0
        best: int | None = None
        for cfg, offset in cfg_offsets:
            scans += 1
            ok = True
            for c in range(len(cfg)):
                if cfg[c] > v[c]:
                    ok = False
                    break
            if not ok:
                continue
            prev = table[flat - offset]
            if prev is not None and (best is None or prev < best):
                best = prev
        table[flat] = None if best is None else best + 1
    opt = table[sigma - 1]
    if opt is None:  # pragma: no cover - always feasible (singleton configs)
        raise AssertionError("DP table ended infeasible; singleton configs missing?")
    stats = _stats(problem, len(configs), sigma, scans) if collect_stats else None
    if limit is not None and opt > limit:
        return DPResult(opt=None, engine="table", stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        with ctx.span("backtrack", engine="table"):
            machine_configs = backtrack_schedule(lambda i: table[i], problem, configs)
    return DPResult(opt=opt, machine_configs=machine_configs, engine="table", stats=stats)


# ---------------------------------------------------------------------------
# Engine: numpy-vectorized anti-diagonal sweep
# ---------------------------------------------------------------------------

def solve_numpy(
    problem: DPProblem,
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    ctx: SolveContext | None = None,
) -> DPResult:
    """Level-synchronous sweep with numpy: all states of one anti-diagonal
    are updated at once by the shared :class:`~repro.core.kernels.LevelKernel`,
    in one fused pass that gathers the predecessors of every applicable
    configuration together from the level-encoded table.

    This is the data-parallel formulation of the paper's wavefront: the
    "processors" are SIMD lanes instead of cores, but the dependency
    structure exploited is identical.  The same kernel is the compute
    core of every backend in :mod:`repro.core.parallel_dp`.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts:
        return _empty_result("numpy", collect_stats)
    configs = _enumerate_traced(problem, ctx)
    kernel = LevelKernel.for_problem(problem, configs)
    table = kernel.allocate_table(problem.table_size)
    kernel.sweep(table, kernel.layout.levels)
    return read_kernel_table(
        kernel,
        table,
        problem,
        configs,
        "numpy",
        limit=limit,
        track_schedule=track_schedule,
        collect_stats=collect_stats,
        ctx=ctx,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _solve_config_ilp_lazy(problem: "DPProblem", **kwargs: object) -> DPResult:
    """Registry shim for the configuration-IP engine (lazy import keeps
    :mod:`repro.core.dp` free of a scipy dependency at import time)."""
    from repro.core.dp_ilp import solve_config_ilp

    return solve_config_ilp(problem, **kwargs)  # type: ignore[arg-type]


SEQUENTIAL_ENGINES: dict[str, Callable[..., DPResult]] = {
    "table": solve_table,
    "numpy": solve_numpy,
    "config-ilp": _solve_config_ilp_lazy,
}


def solve(
    problem: DPProblem,
    engine: str = "numpy",
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    ctx: SolveContext | None = None,
) -> DPResult:
    """Dispatch to a sequential DP engine by name.

    When ``ctx`` carries a live tracer the engine call is wrapped in a
    ``dp`` span tagged with the engine name and ``sigma``, and the engine
    itself adds ``enumerate`` / ``backtrack`` child spans.

    >>> p = DPProblem((6, 11), (2, 3), 30)
    >>> solve(p, "table").opt
    2
    """
    try:
        fn = SEQUENTIAL_ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown DP engine {engine!r}; available: "
            f"{sorted(SEQUENTIAL_ENGINES)}"
        ) from None
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    with ctx.span("dp", engine=engine, sigma=problem.table_size) as sp:
        result = fn(
            problem,
            limit=limit,
            track_schedule=track_schedule,
            collect_stats=collect_stats,
            ctx=ctx,
        )
        sp.set(opt=result.opt)
    return result
