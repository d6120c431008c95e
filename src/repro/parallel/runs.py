"""Tile planning for the batched (coarse-grained) wavefront.

The per-level wavefront — partition every anti-diagonal across ``P``
workers, barrier, next level — is faithful to Alg. 3 but synchronizes
``n'`` times per probe and dispatches ``P`` sub-level chunks per level.
At realistic probe sizes (hundreds of states per level, ~100 vectorized
configuration passes per update) those overheads exceed the work being
parallelized, which is why the benchmarks showed every parallel backend
*losing* to the fused serial sweep.

This module plans the coarse replacement.  The state space is cut into
``B`` contiguous flat-index *blocks* (persistent per-worker ownership,
:func:`repro.parallel.partition.flat_block_bounds`) and the levels into
``R`` contiguous *runs*; the unit of scheduling is the **tile** — one
block × one run of levels.  Tiles execute along tile anti-diagonals:
on diagonal ``t`` every block ``b`` works on run ``t - b``, and there is
**one barrier per diagonal** — ``B + R - 1`` barriers total instead of
``n'``, with each worker touching only its own block of the table.

Correctness (why tiles on a diagonal are independent)
-----------------------------------------------------
A state's predecessor ``v - s`` (``s`` a non-zero configuration) has a
strictly smaller component sum — one level lower, hence the same or an
earlier *run* — and a strictly smaller flat index (row-major order is
monotone in every component), hence the same or an earlier *block*.  So
tile ``(b, r)`` depends only on tiles ``(b', r')`` with ``b' <= b`` and
``r' <= r``; tiles with the same ``b + r`` never depend on each other,
and within a tile the worker sweeps its levels in order, which resolves
the same-block/same-run dependencies.  The diagonal schedule is
therefore race-free and produces the bit-identical table.

Run length is chosen adaptively from a *measured* per-level cost model
(:class:`KernelCostModel`): more runs improve pipeline utilization
(``R·B`` useful tile slots over ``R + B - 1`` diagonals) but each
diagonal pays a barrier, so :func:`plan_tiles` minimizes the modeled
makespan ``(R + B - 1) · (work/(R·B) + c_barrier)`` — giving
``R* = sqrt((B-1)·work / (B·c_barrier))`` — and coarsens ``B`` down
when the table cannot keep ``B`` blocks busy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.parallel.partition import flat_block_bounds, split_level_by_blocks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernels import LevelKernel


@dataclass(frozen=True)
class KernelCostModel:
    """Affine per-level cost of one :meth:`LevelKernel.update` call.

    ``seconds(q) = alpha * |C| + beta * q * |C|`` — the update is one
    fused pass over all configurations, so ``alpha * |C|`` is the fixed
    cost of one call (numpy dispatch, temporaries) spread over ``|C|``,
    and ``beta`` the marginal cost per (state, configuration) pair.
    Defaults are conservative laptop-class numbers and stay fixed — they
    set the simulated planner's geometry, which must not drift with the
    host; :meth:`measure` replaces them with two timed updates on the
    actual kernel for the real backends.
    """

    alpha_seconds: float = 4e-6
    beta_seconds: float = 1.2e-8

    def level_seconds(self, num_states: int, num_configs: int) -> float:
        """Modeled seconds for one update over ``num_states`` states and
        ``num_configs`` configurations (counted as at least one — the
        call's gather/scatter work exists even for an empty set)."""
        if num_states <= 0:
            return 0.0
        passes = max(1, num_configs)
        return passes * (self.alpha_seconds + self.beta_seconds * num_states)

    @classmethod
    def measure(
        cls, kernel: "LevelKernel", level: np.ndarray, table_size: int
    ) -> "KernelCostModel":
        """Fit ``alpha``/``beta`` by timing the kernel on a small and a
        large slice of *level* against a scratch table.

        Falls back to the defaults when the level is too narrow to
        separate the two terms or the fit degenerates (non-positive
        coefficients from timer noise).
        """
        default = cls()
        level = np.asarray(level, dtype=np.int64)
        q_big = len(level)
        q_small = min(32, q_big)
        if q_big < 4 * q_small or kernel.num_configs == 0:
            return default
        scratch = kernel.allocate_table(table_size)
        small, big = level[:q_small], level

        def timed(flats: np.ndarray) -> float:
            t0 = time.perf_counter()
            kernel.update(scratch, flats)
            return time.perf_counter() - t0

        timed(small)  # warm caches / allocator before timing
        t_small = min(timed(small), timed(small))
        t_big = min(timed(big), timed(big))
        passes = kernel.num_configs
        beta = (t_big - t_small) / (passes * (q_big - q_small))
        alpha = t_small / passes - beta * q_small
        if beta <= 0 or alpha <= 0:
            return default
        return cls(alpha_seconds=alpha, beta_seconds=beta)


#: Modeled cost of one diagonal barrier + dispatch on a thread pool.
DEFAULT_BARRIER_SECONDS = 1e-4


def level_sizes_from_dims(dims: Sequence[int]) -> np.ndarray:
    """Anti-diagonal widths ``q_0..q_{n'}`` of a table with the given axis
    extents, without materializing any state: the coefficients of
    ``prod_i (1 + x + ... + x^{d_i - 1})``.  Costs ``O(n' * sigma^0)``
    polynomial convolutions instead of an ``O(sigma)`` unranking pass —
    cheap enough to size a probe *before* deciding how to run it.

    >>> level_sizes_from_dims([2, 3]).tolist()
    [1, 2, 2, 1]
    >>> level_sizes_from_dims([]).tolist()
    [1]
    """
    sizes = np.ones(1, dtype=np.int64)
    for d in dims:
        if int(d) < 1:
            raise ValueError(f"axis extents must be >= 1, got {d}")
        sizes = np.convolve(sizes, np.ones(int(d), dtype=np.int64))
    return sizes


@dataclass(frozen=True)
class TilePlan:
    """Geometry of one batched wavefront: blocks × runs, by diagonal.

    ``block_bounds`` are the flat-index boundaries (``num_blocks + 1``
    values); ``runs`` are half-open ``(start_level, end_level)`` ranges
    covering levels ``1..n'`` in order.  Tile ``(b, r)`` is block ``b``
    of runs ``r``; diagonal ``t`` holds the tiles with ``b + r = t``.
    """

    block_bounds: tuple[int, ...]
    runs: tuple[tuple[int, int], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.block_bounds) - 1

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def num_diagonals(self) -> int:
        """Barriers the schedule pays: ``B + R - 1`` (0 when empty)."""
        if not self.runs:
            return 0
        return self.num_blocks + self.num_runs - 1

    def tiles_on_diagonal(self, t: int) -> list[tuple[int, int]]:
        """The ``(block, run)`` tiles active on diagonal ``t``, by block."""
        return [
            (b, t - b)
            for b in range(self.num_blocks)
            if 0 <= t - b < self.num_runs
        ]


def plan_tiles(
    level_sizes: Sequence[int],
    table_size: int,
    num_workers: int,
    *,
    num_configs: int = 1,
    cost: KernelCostModel | None = None,
    barrier_seconds: float = DEFAULT_BARRIER_SECONDS,
) -> TilePlan:
    """Choose blocks and level runs for one probe.

    ``level_sizes`` includes level 0 (the seeded origin state); runs
    cover levels ``1..n'``.  The run count minimizes the modeled
    makespan (module docstring): heavy probes get ``R ≈ sqrt(work /
    barrier)`` runs of near-equal modeled cost, light probes collapse to
    one run — and when even ``B`` runs are not worth their barriers the
    block count coarsens too, down to a single serial sweep tile.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    model = cost if cost is not None else KernelCostModel()
    sizes = [int(q) for q in level_sizes[1:]]
    num_levels = len(sizes)
    if num_levels == 0 or table_size <= 1:
        return TilePlan(block_bounds=(0, max(0, table_size)), runs=())
    costs = [model.level_seconds(q, num_configs) for q in sizes]
    total = sum(costs)

    blocks = min(num_workers, max(sizes), table_size)
    runs = blocks  # minimum for full-width diagonals
    if blocks > 1:
        ideal = ((blocks - 1) * total / (blocks * barrier_seconds)) ** 0.5
        runs = int(max(blocks, min(num_levels, ideal)))
        # A plan whose modeled makespan loses to the serial sweep is not
        # worth any barriers at all: collapse to one tile.
        ramped = (runs + blocks - 1) * (
            total / (runs * blocks) + barrier_seconds
        )
        if ramped >= total:
            blocks, runs = 1, 1
    runs = min(runs, num_levels)

    # Split levels 1..n' into `runs` contiguous groups of near-equal
    # modeled cost (greedy cumulative thresholds).  A cut is forced once
    # the remaining levels are only just enough for the remaining cuts,
    # so cheap leading levels cannot starve the plan down to one run.
    bounds = [1]
    acc = 0.0
    threshold_idx = 1
    for lvl, c in enumerate(costs, start=1):
        acc += c
        remaining_levels = num_levels - lvl
        remaining_cuts = runs - threshold_idx
        if threshold_idx < runs and remaining_levels >= remaining_cuts and (
            acc >= threshold_idx * total / runs
            or remaining_levels == remaining_cuts
        ):
            bounds.append(lvl + 1)
            threshold_idx += 1
    bounds.append(num_levels + 1)
    run_ranges = tuple(
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i] < bounds[i + 1]
    )
    return TilePlan(
        block_bounds=tuple(
            int(b) for b in flat_block_bounds(table_size, blocks)
        ),
        runs=run_ranges,
    )


def build_tiles(
    levels: Sequence[np.ndarray], plan: TilePlan
) -> list[list[list[np.ndarray]]]:
    """Materialize the per-tile index arrays: ``tiles[r][b]`` is the list
    of per-level chunks (levels of run ``r`` restricted to block ``b``,
    in level order).  Empty chunks are kept so the level structure stays
    aligned; a tile whose chunks are all empty simply does no work.
    """
    bounds = np.asarray(plan.block_bounds, dtype=np.int64)
    num_blocks = plan.num_blocks
    tiles: list[list[list[np.ndarray]]] = []
    for lo, hi in plan.runs:
        per_block: list[list[np.ndarray]] = [[] for _ in range(num_blocks)]
        for level in levels[lo:hi]:
            for b, chunk in enumerate(split_level_by_blocks(level, bounds)):
                per_block[b].append(chunk)
        tiles.append(per_block)
    return tiles
