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
    predecessor ``v - s`` is ready when ``v`` is processed.
``memo``
    Top-down memoized recursion — the literal transcription of Eq. 4.
    Visits only states reachable *backwards* from ``N``; used as a
    cross-check oracle on small inputs.
``frontier``
    Forward BFS from the zero vector where each edge adds one machine
    configuration; the BFS depth at which ``v`` is first reached is
    ``OPT(v)``.  Supports early exit once a depth limit (e.g. the machine
    count ``m``) is exceeded, which is all the bisection needs.
``dominance``
    Optimized *cover* formulation: machines may be under-filled, so only
    maximal configurations matter and dominated partial covers can be
    pruned (keep only Pareto-maximal vectors ``min(v + s, N)``).  Returns
    exactly the same ``OPT`` (a cover can always be trimmed to an exact
    packing because any sub-multiset of a feasible configuration is
    feasible).  Usually orders of magnitude faster; this is the engine a
    practitioner should use, and the ablation benchmarks quantify why.
``numpy``
    Vectorized variant of the level sweep: all states of one
    anti-diagonal are processed with numpy array operations, all
    configurations in one fused pass.  Semantically identical to
    ``table``.

All engines return a :class:`DPResult` and agree with each other — the
test suite enforces this on randomized inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.configurations import (
    ConfigurationSet,
    enumerate_configurations,
    enumerate_maximal_configurations,
)
from repro.core.context import DEFAULT_CONTEXT, SolveContext
from repro.core.kernels import LevelKernel, table_opt

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

    def maximal_configurations(self) -> ConfigurationSet:
        """Only the Pareto-maximal configurations (dominance engine)."""
        return enumerate_maximal_configurations(
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
    to exactly ``N``.
    """

    opt: int | None
    machine_configs: tuple[tuple[int, ...], ...] = ()
    engine: str = ""
    stats: DPStats | None = None

    @property
    def feasible_within(self) -> bool:
        return self.opt is not None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def level_of(vector: Sequence[int]) -> int:
    """Anti-diagonal index of a state: the sum of its components (the
    quantity Alg. 3 calls ``d_i``)."""
    return sum(vector)


def unrank(flat: int, dims: Sequence[int], strides: Sequence[int]) -> tuple[int, ...]:
    """Inverse of row-major flattening: recover the count vector of a flat
    table index."""
    return tuple((flat // strides[c]) % dims[c] for c in range(len(dims)))


def state_levels_array(problem: DPProblem) -> np.ndarray:
    """Vector of anti-diagonal indices for all ``sigma`` states, in
    row-major order (vectorized Alg. 3, lines 4–8)."""
    sigma = problem.table_size
    strides = problem.strides()
    dims = problem.dims
    flat = np.arange(sigma, dtype=np.int64)
    levels = np.zeros(sigma, dtype=np.int64)
    for c in range(len(dims)):
        levels += (flat // strides[c]) % dims[c]
    return levels


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


def _enumerate_traced(
    problem: DPProblem, ctx: SolveContext, *, maximal: bool = False
) -> ConfigurationSet:
    """Enumerate the problem's configuration set under an ``enumerate``
    span, tagging the span with ``|C|`` and bumping the
    ``configs_enumerated`` counter."""
    with ctx.span("enumerate", maximal=maximal) as sp:
        configs = (
            problem.maximal_configurations() if maximal else problem.configurations()
        )
        sp.set(num_configs=len(configs))
    ctx.count("configs_enumerated", len(configs))
    return configs


def _empty_result(engine: str, collect_stats: bool) -> DPResult:
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
    return DPResult(opt=0, machine_configs=(), engine=engine, stats=stats)


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
    stats = None
    if collect_stats:
        level_sizes = _level_sizes(problem)
        stats = DPStats(
            sigma=sigma,
            num_levels=len(level_sizes),
            level_sizes=level_sizes,
            num_configs=len(configs),
            states_computed=sigma,
            config_scans=scans,
        )
    if limit is not None and opt > limit:
        return DPResult(opt=None, engine="table", stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        with ctx.span("backtrack", engine="table"):
            machine_configs = backtrack_schedule(lambda i: table[i], problem, configs)
    return DPResult(opt=opt, machine_configs=machine_configs, engine="table", stats=stats)


def _level_sizes(problem: DPProblem) -> tuple[int, ...]:
    """``q_l`` for every anti-diagonal ``l = 0..n'`` via a small
    convolution (no need to enumerate states)."""
    poly = np.ones(1, dtype=np.int64)
    for count in problem.counts:
        poly = np.convolve(poly, np.ones(count + 1, dtype=np.int64))
    return tuple(int(x) for x in poly)


# ---------------------------------------------------------------------------
# Engine: memoized recursion (literal Eq. 4)
# ---------------------------------------------------------------------------

def solve_memo(
    problem: DPProblem,
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    ctx: SolveContext | None = None,
) -> DPResult:
    """Top-down transcription of Eq. 4 with memoization.

    Only intended as a readable oracle for tests; recursion depth grows
    with the number of long jobs, so inputs must stay small.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts:
        return _empty_result("memo", collect_stats)
    configs = _enumerate_traced(problem, ctx)
    memo: dict[tuple[int, ...], int] = {}
    scans = 0

    import sys

    need_depth = problem.num_long_jobs * 2 + 64
    old_limit = sys.getrecursionlimit()
    if old_limit < need_depth:
        sys.setrecursionlimit(need_depth)

    def opt(v: tuple[int, ...]) -> int:
        nonlocal scans
        if not any(v):
            return 0
        cached = memo.get(v)
        if cached is not None:
            return cached
        best: int | None = None
        for cfg in configs.configs:
            scans += 1
            if all(s <= vc for s, vc in zip(cfg, v)):
                sub = opt(tuple(vc - s for vc, s in zip(v, cfg)))
                if best is None or sub < best:
                    best = sub
        assert best is not None, "singleton configurations guarantee feasibility"
        memo[v] = best + 1
        return best + 1

    try:
        value = opt(problem.counts)
    finally:
        sys.setrecursionlimit(old_limit)
    stats = None
    if collect_stats:
        level_sizes = _level_sizes(problem)
        stats = DPStats(
            sigma=problem.table_size,
            num_levels=len(level_sizes),
            level_sizes=level_sizes,
            num_configs=len(configs),
            states_computed=len(memo) + 1,
            config_scans=scans,
        )
    if limit is not None and value > limit:
        return DPResult(opt=None, engine="memo", stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        strides = problem.strides()

        def lookup(flat: int) -> int | None:
            vec = unrank(flat, problem.dims, strides)
            if not any(vec):
                return 0
            return memo.get(vec)

        with ctx.span("backtrack", engine="memo"):
            machine_configs = backtrack_schedule(lookup, problem, configs)
    return DPResult(opt=value, machine_configs=machine_configs, engine="memo", stats=stats)


# ---------------------------------------------------------------------------
# Engine: forward BFS on exact sums ("frontier")
# ---------------------------------------------------------------------------

def solve_frontier(
    problem: DPProblem,
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    ctx: SolveContext | None = None,
) -> DPResult:
    """Breadth-first search from the zero vector, one machine per step.

    The first time a vector ``v`` is reached, the BFS depth equals
    ``OPT(v)`` (all edges have unit cost).  The search never leaves the
    box ``0 <= v <= N`` and stops as soon as ``N`` is popped, or once the
    depth would exceed ``limit``.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts:
        return _empty_result("frontier", collect_stats)
    configs = _enumerate_traced(problem, ctx)
    target_vec = problem.counts
    depth_of: dict[tuple[int, ...], int] = {tuple([0] * len(target_vec)): 0}
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    frontier: list[tuple[int, ...]] = [tuple([0] * len(target_vec))]
    depth = 0
    scans = 0
    found = target_vec in depth_of
    while frontier and not found and (limit is None or depth < limit):
        depth += 1
        next_frontier: list[tuple[int, ...]] = []
        for v in frontier:
            for cfg in configs.configs:
                scans += 1
                w = tuple(vc + s for vc, s in zip(v, cfg))
                if any(wc > nc for wc, nc in zip(w, target_vec)):
                    continue
                if w in depth_of:
                    continue
                depth_of[w] = depth
                parent[w] = (v, cfg)
                next_frontier.append(w)
                if w == target_vec:
                    found = True
        frontier = next_frontier
    stats = None
    if collect_stats:
        level_sizes = _level_sizes(problem)
        stats = DPStats(
            sigma=problem.table_size,
            num_levels=len(level_sizes),
            level_sizes=level_sizes,
            num_configs=len(configs),
            states_computed=len(depth_of),
            config_scans=scans,
        )
    if target_vec not in depth_of:
        return DPResult(opt=None, engine="frontier", stats=stats)
    opt = depth_of[target_vec]
    if limit is not None and opt > limit:
        return DPResult(opt=None, engine="frontier", stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        chain: list[tuple[int, ...]] = []
        v = target_vec
        while any(v):
            v, cfg = parent[v]
            chain.append(cfg)
        machine_configs = tuple(chain)
    return DPResult(
        opt=opt, machine_configs=machine_configs, engine="frontier", stats=stats
    )


# ---------------------------------------------------------------------------
# Engine: dominance-pruned cover with maximal configurations
# ---------------------------------------------------------------------------

def _prune_dominated(vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Keep only the Pareto-maximal vectors (componentwise order)."""
    vs = sorted(set(vectors), key=lambda v: (-sum(v), v))
    kept: list[tuple[int, ...]] = []
    for v in vs:
        if not any(all(kc >= vc for kc, vc in zip(k, v)) for k in kept):
            kept.append(v)
    return kept


def _trim_cover_to_exact(
    cover: Sequence[tuple[int, ...]], counts: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Remove surplus jobs from a componentwise cover so the configurations
    sum to exactly ``counts``.

    Dropping jobs from a configuration keeps it feasible (sizes are
    positive), so the trimmed multiset is a valid exact packing.
    """
    trimmed = [list(cfg) for cfg in cover]
    for c in range(len(counts)):
        surplus = sum(cfg[c] for cfg in trimmed) - counts[c]
        if surplus < 0:  # pragma: no cover - cover precondition guard
            raise AssertionError("cover does not cover counts")
        for cfg in trimmed:
            if surplus == 0:
                break
            take = min(cfg[c], surplus)
            cfg[c] -= take
            surplus -= take
    return tuple(tuple(cfg) for cfg in trimmed if any(cfg))


def solve_dominance(
    problem: DPProblem,
    *,
    limit: int | None = None,
    track_schedule: bool = True,
    collect_stats: bool = False,
    ctx: SolveContext | None = None,
) -> DPResult:
    """Optimized engine: cover formulation + Pareto pruning.

    ``N`` can be packed into ``l`` machines iff ``l`` *maximal*
    configurations can componentwise cover ``N`` (surplus jobs are simply
    dropped).  The set of vectors coverable with ``l`` machines is
    represented by its Pareto-maximal elements only, clamped to the box
    ``<= N``; this keeps the per-step state tiny compared to the full DP
    table.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts:
        return _empty_result("dominance", collect_stats)
    configs = _enumerate_traced(problem, ctx, maximal=True)
    target_vec = problem.counts
    zero = tuple([0] * len(target_vec))
    frontier: list[tuple[int, ...]] = [zero]
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    seen_best: dict[tuple[int, ...], int] = {zero: 0}
    depth = 0
    scans = 0
    states_total = 1
    found = target_vec == zero
    max_depth = problem.num_long_jobs if limit is None else min(
        limit, problem.num_long_jobs
    )
    while not found and depth < max_depth:
        depth += 1
        candidates: list[tuple[int, ...]] = []
        for v in frontier:
            for cfg in configs.configs:
                scans += 1
                w = tuple(min(vc + s, nc) for vc, s, nc in zip(v, cfg, target_vec))
                if w == v:
                    continue
                if w not in parent:
                    parent[w] = (v, cfg)
                candidates.append(w)
        frontier = _prune_dominated(candidates)
        states_total += len(frontier)
        if any(v == target_vec for v in frontier):
            found = True
    stats = None
    if collect_stats:
        level_sizes = _level_sizes(problem)
        stats = DPStats(
            sigma=problem.table_size,
            num_levels=len(level_sizes),
            level_sizes=level_sizes,
            num_configs=len(configs),
            states_computed=states_total,
            config_scans=scans,
        )
    if not found:
        return DPResult(opt=None, engine="dominance", stats=stats)
    opt = depth
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        chain: list[tuple[int, ...]] = []
        v = target_vec
        while v != zero:
            v, cfg = parent[v]
            chain.append(cfg)
        machine_configs = _trim_cover_to_exact(chain, target_vec)
    return DPResult(
        opt=opt, machine_configs=machine_configs, engine="dominance", stats=stats
    )


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
    configuration together and keeps those on the right anti-diagonal.

    This is the data-parallel formulation of the paper's wavefront: the
    "processors" are SIMD lanes instead of cores, but the dependency
    structure exploited is identical.  The same kernel is the compute
    core of every backend in :mod:`repro.core.parallel_dp`.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    if not problem.counts:
        return _empty_result("numpy", collect_stats)
    sigma = problem.table_size
    configs = _enumerate_traced(problem, ctx)
    kernel = LevelKernel.for_problem(problem, configs)
    table = kernel.allocate_table(sigma)
    kernel.sweep(table, kernel.layout.levels)
    # Abstract op count: every configuration considered at every
    # non-origin state (the fused pass prunes by level, not by this).
    scans = len(configs) * (sigma - 1)
    opt_val = table_opt(table, sigma - 1)
    assert opt_val is not None, (
        "DP must be feasible (singleton configurations exist)"
    )
    stats = None
    if collect_stats:
        level_sizes = _level_sizes(problem)
        stats = DPStats(
            sigma=sigma,
            num_levels=len(level_sizes),
            level_sizes=level_sizes,
            num_configs=len(configs),
            states_computed=sigma,
            config_scans=scans,
        )
    if limit is not None and opt_val > limit:
        return DPResult(opt=None, engine="numpy", stats=stats)
    machine_configs: tuple[tuple[int, ...], ...] = ()
    if track_schedule:
        with ctx.span("backtrack", engine="numpy"):
            machine_configs = backtrack_schedule(
                lambda i: table_opt(table, i), problem, configs
            )
    return DPResult(
        opt=opt_val, machine_configs=machine_configs, engine="numpy", stats=stats
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
    "memo": solve_memo,
    "frontier": solve_frontier,
    "dominance": solve_dominance,
    "numpy": solve_numpy,
    "config-ilp": _solve_config_ilp_lazy,
}


def solve(
    problem: DPProblem,
    engine: str = "dominance",
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
