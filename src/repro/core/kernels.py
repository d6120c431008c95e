"""Vectorized anti-diagonal (wavefront) kernel shared by all backends.

Every wavefront execution of the rounded DP — the numpy sequential
engine, the serial reference, the thread backend, the shared-memory
process backend, and the simulated multicore machine — computes the same
per-level update: for each state ``v`` of one anti-diagonal, minimize
``OPT(v - s) + 1`` over the machine configurations ``s <= v``.  This
module holds the single implementation of that update,
:class:`LevelKernel`, so the recurrence exists exactly once.

The kernel is data-parallel and fuses all configurations into one pass
per chunk: it gathers the predecessor indices ``flats[:, None] -
offsets`` of every configuration whose component sum fits the chunk's
level as one ``(q, |C_l|)`` matrix, reads their table entries and anti-
diagonals with two gathers, masks the invalid ones and takes each row's
minimum — a constant number of numpy calls per chunk instead of a
handful per configuration.  All arithmetic is numpy on ``int64`` arrays,
which

* makes the *thread* backend genuinely parallel (numpy releases the GIL
  during array ops, so threads scale like the paper's OpenMP loops
  instead of serializing on pure-Python bytecode), and
* lets the *process* backend run the identical code against a table
  living in a ``multiprocessing.shared_memory`` block.

Why the validity test is exact
------------------------------
A predecessor ``p = flat(v) - flat(s)`` is kept when its anti-diagonal
equals ``|v| - |s|``.  If ``s <= v`` componentwise the mixed-radix
subtraction needs no borrow, so ``p`` is ``flat(v - s)`` and sits on
that anti-diagonal.  Otherwise some digit has ``s_c > v_c``, the
subtraction borrows there, and a borrow at digit ``c`` adds
``dims[c] - 1 >= 1`` to the digit sum (``s_c <= dims[c] - 1`` because a
configuration never exceeds the job counts; configurations outside the
table box apply to no state and are dropped up front).  So a
non-negative ``p`` from a borrowing subtraction lands strictly *above*
``|v| - |s|``.  A negative ``p`` needs no test of its own: numpy reads
it at ``sigma + p = flat(v) + flat(N - s) + 1``, and since each carry of
that addition lowers the digit sum by ``dims[c] - 1`` and the carries
cannot exceed ``|N|`` in total, its anti-diagonal is at least
``|v| - |s| + 1`` too.  The per-state anti-diagonal array this needs is
cached per table shape (:func:`level_layout`) and rebuilt, not shipped,
when a kernel is unpickled in a process worker.

Sentinel convention
-------------------
The table is an ``int64`` array; entries holding
:data:`KERNEL_INFEASIBLE` (a large positive value, *not* ``-1``) mean
"no packing reaches this state".  A single positive sentinel keeps the
update branch-free: ``min`` over candidates never needs to special-case
infeasible predecessors because ``KERNEL_INFEASIBLE + 1`` still compares
greater than every real machine count.  :func:`table_opt` converts back
to the ``None``-based convention of :class:`repro.core.dp.DPResult`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dp imports us)
    from repro.core.configurations import ConfigurationSet
    from repro.core.dp import DPProblem

#: Table sentinel for "state unreachable within the target".  Half the
#: ``int64`` range so that ``sentinel + 1`` (a candidate produced by an
#: infeasible predecessor) cannot overflow and still exceeds every real
#: machine count.
KERNEL_INFEASIBLE: int = np.iinfo(np.int64).max // 2

#: Upper bound on the elements of one fused ``(rows, configs)`` block:
#: wide levels are processed in row blocks so the temporaries stay
#: cache-sized (128 KiB per ``int64`` matrix) however big the table is.
_FUSED_BLOCK = 1 << 14

#: Largest table (in states) whose layout :func:`level_layout` caches; at
#: 16 bytes per state the cache's 8 entries hold at most 1 MB.
_LAYOUT_CACHE_STATES = 1 << 13


def row_major_strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides of a table with the given axis extents."""
    d = len(dims)
    strides = [1] * d
    for c in range(d - 2, -1, -1):
        strides[c] = strides[c + 1] * dims[c + 1]
    return tuple(strides)


@dataclass(frozen=True, eq=False)
class LevelLayout:
    """Anti-diagonal structure of one table shape (read-only arrays).

    ``state_levels[f]`` is the anti-diagonal of flat index ``f`` and
    ``levels[l]`` holds the flat indices whose count vectors sum to
    ``l``, ascending — the materialized ``D`` array of Alg. 3.
    """

    state_levels: np.ndarray
    levels: tuple[np.ndarray, ...]


def _build_layout(dims: tuple[int, ...]) -> LevelLayout:
    if not dims:
        state_levels = np.zeros(1, dtype=np.int64)
    else:
        strides = np.asarray(row_major_strides(dims), dtype=np.int64)
        dims_arr = np.asarray(dims, dtype=np.int64)
        flat = np.arange(int(np.prod(dims_arr)), dtype=np.int64)
        state_levels = np.zeros(len(flat), dtype=np.int64)
        for c in range(len(dims)):
            state_levels += (flat // strides[c]) % dims_arr[c]
    order = np.argsort(state_levels, kind="stable")
    n_levels = int(state_levels.max()) + 1
    bounds = np.searchsorted(state_levels[order], np.arange(n_levels + 1))
    levels = tuple(order[bounds[lvl] : bounds[lvl + 1]] for lvl in range(n_levels))
    for arr in (state_levels, *levels):
        arr.flags.writeable = False
    return LevelLayout(state_levels, levels)


_cached_layout = lru_cache(maxsize=8)(_build_layout)


def level_layout(dims: Sequence[int]) -> LevelLayout:
    """The :class:`LevelLayout` of a table shape.

    Every probe of one rounding shares its dims, so the layouts of
    tables up to :data:`_LAYOUT_CACHE_STATES` states come from a small
    LRU cache and the probes reuse one instead of rebuilding it; the
    bounds keep peak memory flat however many shapes a process sees.
    """
    key = tuple(map(int, dims))
    if math.prod(key) > _LAYOUT_CACHE_STATES:
        return _build_layout(key)
    return _cached_layout(key)


def build_level_arrays(dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Group all flat table indices by anti-diagonal, as read-only
    ``int64`` arrays (``result[l]`` sums to ``l``, ascending).  For an
    empty ``dims`` the table is the single state ``OPT(()) = 0``."""
    return level_layout(dims).levels


def table_opt(table: np.ndarray, index: int) -> int | None:
    """Read one table entry, mapping the sentinel back to ``None``."""
    value = int(table[index])
    return None if value >= KERNEL_INFEASIBLE else value


def table_to_optional(table: np.ndarray) -> list[int | None]:
    """Whole-table conversion to the ``None``-sentinel list form."""
    return [None if v >= KERNEL_INFEASIBLE else int(v) for v in table]


class LevelKernel:
    """The vectorized per-level DP update, shared by every backend.

    Instances are cheap, immutable in practice, and picklable — the
    process backend ships one kernel in every tile payload, so the
    ``O(sigma)`` :attr:`layout` is left out of the pickle and rebuilt
    from the worker's own :func:`level_layout` cache on first use.
    """

    def __init__(
        self,
        dims: Sequence[int],
        strides: Sequence[int],
        configs: "ConfigurationSet | Sequence[tuple[int, ...]]",
    ) -> None:
        """Build from the table geometry and the configuration set.

        ``configs`` may be a
        :class:`~repro.core.configurations.ConfigurationSet` or any
        sequence of configuration tuples (canonical order).
        """
        self.dims = np.asarray(tuple(dims), dtype=np.int64)
        self.strides = np.asarray(tuple(strides), dtype=np.int64)
        raw = configs.configs if hasattr(configs, "configs") else tuple(configs)
        d = len(self.dims)
        if raw:
            self.cfg_matrix = np.asarray(raw, dtype=np.int64).reshape(len(raw), d)
        else:
            self.cfg_matrix = np.zeros((0, d), dtype=np.int64)
        #: Flat-index offset of each configuration: ``dot(s, strides)``.
        self.offsets = self.cfg_matrix @ self.strides
        #: Component sum of each configuration — a config can only apply
        #: to states of an anti-diagonal at or above that level.
        self.cfg_level_sums = self.cfg_matrix.sum(axis=1)
        # The fused pass visits in-box configurations by component sum,
        # so the ones a level-l state can use are a prefix.
        in_box = (self.cfg_matrix < self.dims).all(axis=1)
        order = np.argsort(self.cfg_level_sums[in_box], kind="stable")
        self._offsets_by_sum = self.offsets[in_box][order]
        self._sums_by_sum = self.cfg_level_sums[in_box][order]
        self._sum_list = self._sums_by_sum.tolist()
        self._layout: LevelLayout | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_layout"] = None  # O(sigma): rebuilt where unpickled
        return state

    @property
    def layout(self) -> LevelLayout:
        """The table shape's :class:`LevelLayout`, taken from the
        :func:`level_layout` cache on first use (and again after
        unpickling); the wavefront drivers iterate its ``levels``."""
        layout = self._layout
        if layout is None:
            layout = self._layout = level_layout(self.dims)
        return layout

    @classmethod
    def for_problem(
        cls,
        problem: "DPProblem",
        configs: "ConfigurationSet | None" = None,
    ) -> "LevelKernel":
        """Kernel for one :class:`~repro.core.dp.DPProblem` (enumerates
        the configuration set unless one is supplied)."""
        if configs is None:
            configs = problem.configurations()
        return cls(problem.dims, problem.strides(), configs)

    @property
    def num_configs(self) -> int:
        """``|C|`` — the configurations the kernel was built with."""
        return len(self.offsets)

    def allocate_table(self, sigma: int) -> np.ndarray:
        """Fresh ``int64`` table: all-infeasible except ``OPT(0) = 0``."""
        table = np.empty(sigma, dtype=np.int64)
        self.init_table(table)
        return table

    def init_table(self, table: np.ndarray) -> None:
        """Initialize an externally allocated table (e.g. shared memory)
        in place to the all-infeasible / ``OPT(0) = 0`` state."""
        table.fill(KERNEL_INFEASIBLE)
        table[0] = 0

    def update(
        self,
        table: np.ndarray,
        flats: np.ndarray,
        *,
        level: int | None = None,
        count_applicable: bool = False,
    ) -> np.ndarray | None:
        """Compute one chunk of the table, in place, in one fused pass.

        ``flats`` are flat indices whose predecessors are already final
        (any chunk of one anti-diagonal, or any antichain of states);
        chunks of the same level are disjoint, so concurrent calls need
        no locking — the argument that makes the paper's OpenMP loop
        race-free.  Every read happens before the chunk's single write.

        ``level`` is the chunk's anti-diagonal when the caller knows it;
        with ``None`` each state's level is looked up, so a chunk may mix
        levels.  Either way only configurations whose component sum fits
        the (highest) level are gathered, which is bit-identical because
        the others match no state.

        With ``count_applicable`` the per-state ``|C_v|`` (configurations
        ``s <= v`` — what Alg. 3's per-state enumeration pays for) is
        returned for the simulated machine's per-state cost fidelity;
        otherwise returns ``None``.
        """
        flats = np.ascontiguousarray(flats, dtype=np.int64)
        q = len(flats)
        counts = np.zeros(q, dtype=np.int64) if count_applicable else None
        if q == 0:
            return counts
        state_levels = self.layout.state_levels
        if level is None:
            chunk_levels = state_levels[flats]
            n = bisect_right(self._sum_list, int(chunk_levels.max()))
            want = chunk_levels[:, None] - self._sums_by_sum[:n]
        else:
            n = bisect_right(self._sum_list, level)
            want = level - self._sums_by_sum[:n]
        best = np.full(q, KERNEL_INFEASIBLE, dtype=np.int64)
        if n:
            offsets = self._offsets_by_sum[:n]
            step = max(1, _FUSED_BLOCK // n)
            for lo in range(0, q, step):
                hi = lo + step
                preds = np.subtract.outer(flats[lo:hi], offsets)
                invalid = state_levels[preds] != (
                    want if level is not None else want[lo:hi]
                )
                candidates = table[preds]
                np.putmask(candidates, invalid, KERNEL_INFEASIBLE)
                np.min(candidates, axis=1, out=best[lo:hi])
                if counts is not None:
                    counts[lo:hi] = n - np.count_nonzero(invalid, axis=1)
            best += 1
            np.minimum(best, KERNEL_INFEASIBLE, out=best)
        if level is None or level == 0:
            best[flats == 0] = 0
        table[flats] = best
        return counts

    def sweep(
        self, table: np.ndarray, levels: Sequence[np.ndarray]
    ) -> None:
        """Serial whole-table fill: one :meth:`update` per anti-diagonal
        (levels after the zeroth, whose single state the allocation set)."""
        update = self.update
        for level, flats in enumerate(levels[1:], start=1):
            update(table, flats, level=level)
