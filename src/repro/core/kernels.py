"""Vectorized anti-diagonal (wavefront) kernel shared by all backends.

Every wavefront execution of the rounded DP — the numpy sequential
engine, the serial reference, the thread backend, the shared-memory
process backend, and the simulated multicore machine — computes the same
per-level update: for each state ``v`` of one anti-diagonal, minimize
``OPT(v - s) + 1`` over the machine configurations ``s <= v``.  This
module holds the single implementation of that update,
:class:`LevelKernel`, so the recurrence exists exactly once.

The kernel is data-parallel and fuses all configurations into one pass
per chunk: it gathers the table entries at the predecessor indices
``flats - offsets`` of every configuration whose component sum fits the
chunk's level as one ``(|C_l|, q)`` matrix, shifts each configuration's
column by a constant and takes each state's minimum — a constant number
of numpy calls per chunk instead of a handful per configuration.  All
arithmetic is numpy array arithmetic, which

* makes the *thread* backend genuinely parallel (numpy releases the GIL
  during array ops, so threads scale like the paper's OpenMP loops
  instead of serializing on pure-Python bytecode), and
* lets the *process* backend run the identical code against a table
  living in a ``multiprocessing.shared_memory`` block.

The level-encoded table
-----------------------
The kernel's working table stores, at flat index ``f``,
``level(f) * U + min(OPT(f), INF)``: the state's anti-diagonal in the
high part and its machine count, capped at ``INF``, in the low part.
With ``n'`` the total job count (``|N|``, the top anti-diagonal),
``INF = n' + 1`` exceeds every real machine count and ``U = INF + 2``
exceeds ``INF + 1``, so each entry lies in its *band*
``[level * U, level * U + INF]`` and ``INF`` in the low part means "no
packing reaches this state".  Both constants follow from the table's
dims (:func:`table_encoding`), as does the dtype: ``int32`` whenever the
largest value the update forms, below ``(2 n' + 1) * U``, fits, else
``int64``.  A fresh table is a copy of the shape's cached init template
(every band's infeasible entry, ``OPT(0) = 0`` at the origin).

Why one gather is exact
-----------------------
For a state ``v`` on level ``l`` the kernel reads the entry at
``p = flat(v) - flat(s)`` and adds ``|s| * U + 1``.  If ``s <= v``
componentwise the mixed-radix subtraction needs no borrow, so ``p`` is
``flat(v - s)`` on level ``l - |s|`` and the candidate is
``l * U + OPT(v - s) + 1`` — the recurrence's candidate inside ``v``'s
band.  Otherwise some digit has ``s_c > v_c``, the subtraction borrows
there, and a borrow at digit ``c`` adds ``dims[c] - 1 >= 1`` to the
digit sum (``s_c <= dims[c] - 1`` because configurations outside the
table box apply to no state and are dropped up front).  So a
non-negative ``p`` from a borrowing subtraction lies on level
``>= l - |s| + 1``.  A negative ``p`` is read at
``sigma + p = flat(v) + flat(N - s) + 1``; each carry of that addition
lowers the digit sum by ``dims[c] - 1`` and the carries cannot exceed
``|N|`` in total, so its level is at least ``l - |s| + 1`` too.  Every
entry sits in its own band, so each invalid candidate is
``>= (l + 1) * U + 1`` — above the whole of ``v``'s band.  The row
minimum capped at ``l * U + INF`` is therefore exactly ``v``'s encoded
value: no per-state level array, no compare and no mask.  The same
band argument makes concurrent chunks safe: an invalid read may see
another chunk's entry before or after its write, and both lie in that
entry's band.

Sentinel convention
-------------------
Outside the kernel, tables are plain ``int64`` arrays (see
:meth:`LevelKernel.decode`); entries holding :data:`KERNEL_INFEASIBLE`
(a large positive value, *not* ``-1``) mean "no packing reaches this
state".  :func:`table_opt` converts back to the ``None``-based
convention of :class:`repro.core.dp.DPResult`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dp imports us)
    from repro.core.configurations import ConfigurationSet
    from repro.core.dp import DPProblem

#: Sentinel of the decoded table for "state unreachable within the
#: target".  Half the ``int64`` range, so it exceeds every real machine
#: count by far and ``sentinel + 1`` cannot overflow.
KERNEL_INFEASIBLE: int = np.iinfo(np.int64).max // 2

#: Upper bound on the elements of one fused ``(configs, states)`` block:
#: wide levels are processed in blocks so the temporaries stay
#: cache-sized (128 KiB of ``int64`` predecessor indices) however big
#: the table is.
_FUSED_BLOCK = 1 << 14

#: Byte budget of the :func:`level_layout` cache.  At 14 bytes per state
#: (``int32`` template) it holds the layout of one ~60k-state table of
#: the paper's largest cells, which the probes of its rounding share, or
#: dozens of small ones; a larger budget measured no more reuse.
_LAYOUT_CACHE_BYTES = 1 << 20

_INT32_MAX = int(np.iinfo(np.int32).max)


def row_major_strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides of a table with the given axis extents."""
    d = len(dims)
    strides = [1] * d
    for c in range(d - 2, -1, -1):
        strides[c] = strides[c + 1] * dims[c + 1]
    return tuple(strides)


def table_encoding(dims: Sequence[int]) -> tuple[int, int, type]:
    """``(INF, U, dtype)`` of the level-encoded table of a shape.

    ``INF = n' + 1`` and ``U = INF + 2`` with ``n' = sum(dims) - d`` the
    top anti-diagonal.  Entries stay below ``(n' + 1) * U``, and the
    update's shifted candidates below ``(2 n' + 1) * U`` (an entry plus
    ``|s| * U + 1`` with ``|s| <= n'``); the table is ``int32`` when the
    latter fits.
    """
    top = sum(int(d) for d in dims) - len(dims)
    inf = top + 1
    unit = inf + 2
    dtype = np.int32 if (2 * top + 1) * unit <= _INT32_MAX else np.int64
    return inf, unit, dtype


@dataclass(frozen=True, eq=False)
class LevelLayout:
    """Anti-diagonal structure of one table shape (read-only arrays).

    ``state_levels[f]`` is the anti-diagonal of flat index ``f``,
    ``levels[l]`` holds the flat indices whose count vectors sum to
    ``l``, ascending — the materialized ``D`` array of Alg. 3 — and
    ``template`` is the level-encoded init table every fill copies.
    ``nbytes`` counts the three arrays (the levels are views of one).
    """

    state_levels: np.ndarray
    levels: tuple[np.ndarray, ...]
    template: np.ndarray
    nbytes: int


def _build_layout(dims: tuple[int, ...]) -> LevelLayout:
    """``O(sigma)``: digit sums by successive outer sums (row-major, so
    the last axis varies fastest), a stable radix argsort on 16-bit
    keys, and level bounds from a ``bincount``."""
    inf, unit, dtype = table_encoding(dims)
    top = inf - 1
    key = np.uint16 if top <= np.iinfo(np.uint16).max else np.uint32
    state_levels = np.zeros(1, dtype=key)
    for extent in dims:
        state_levels = np.add.outer(
            state_levels, np.arange(extent, dtype=key)
        ).ravel()
    order = np.argsort(state_levels, kind="stable")
    bounds = np.zeros(top + 2, dtype=np.int64)
    np.cumsum(np.bincount(state_levels, minlength=top + 1), out=bounds[1:])
    template = np.multiply(state_levels, unit, dtype=dtype)
    template += inf
    template[0] = 0
    for arr in (state_levels, order, template):
        arr.flags.writeable = False
    levels = tuple(order[bounds[lvl] : bounds[lvl + 1]] for lvl in range(top + 1))
    nbytes = state_levels.nbytes + order.nbytes + template.nbytes
    return LevelLayout(state_levels, levels, template, nbytes)


_LAYOUTS: OrderedDict[tuple[int, ...], LevelLayout] = OrderedDict()
_LAYOUTS_LOCK = threading.Lock()


def level_layout(dims: Sequence[int]) -> LevelLayout:
    """The :class:`LevelLayout` of a table shape.

    Every probe of one rounding shares its dims, so layouts come from an
    LRU cache bounded by :data:`_LAYOUT_CACHE_BYTES` and the probes
    reuse one instead of rebuilding it; a layout larger than the whole
    budget is built and not kept.
    """
    key = dims if type(dims) is tuple else tuple(map(int, dims))
    with _LAYOUTS_LOCK:
        layout = _LAYOUTS.get(key)
        if layout is not None:
            _LAYOUTS.move_to_end(key)
            return layout
    layout = _build_layout(key)
    if layout.nbytes <= _LAYOUT_CACHE_BYTES:
        with _LAYOUTS_LOCK:
            _LAYOUTS[key] = layout
            total = sum(cached.nbytes for cached in _LAYOUTS.values())
            while total > _LAYOUT_CACHE_BYTES:
                total -= _LAYOUTS.popitem(last=False)[1].nbytes
    return layout


def build_level_arrays(dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Group all flat table indices by anti-diagonal, as read-only
    ``int64`` arrays (``result[l]`` sums to ``l``, ascending).  For an
    empty ``dims`` the table is the single state ``OPT(()) = 0``."""
    return level_layout(dims).levels


def table_opt(table: np.ndarray, index: int) -> int | None:
    """Read one entry of a decoded table, mapping the sentinel back to
    ``None``."""
    value = int(table[index])
    return None if value >= KERNEL_INFEASIBLE else value


def table_to_optional(table: np.ndarray) -> list[int | None]:
    """Whole decoded table to the ``None``-sentinel list form."""
    return [None if v >= KERNEL_INFEASIBLE else int(v) for v in table]


class LevelKernel:
    """The vectorized per-level DP update, shared by every backend.

    Instances are cheap, immutable in practice, and picklable — the
    process backend ships one kernel in every tile payload, so the
    ``O(sigma)`` :attr:`layout` is left out of the pickle (the update
    itself never needs it).
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
        self._shape = tuple(int(d) for d in dims)
        self.dims = np.asarray(self._shape, dtype=np.int64)
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
        #: ``INF``, ``U`` and the dtype of the level-encoded table.
        self.inf, self.unit, self.dtype = table_encoding(self._shape)
        # The fused pass visits in-box configurations by component sum,
        # so the ones a level-l state can use are a prefix; each is one
        # row of predecessor offsets and ``|s| * U + 1`` shifts.
        in_box = (self.cfg_matrix < self.dims).all(axis=1)
        order = np.argsort(self.cfg_level_sums[in_box], kind="stable")
        sums = self.cfg_level_sums[in_box][order]
        self._offsets_by_sum = self.offsets[in_box][order][:, None]
        self._shifts_by_sum = (sums * self.unit + 1).astype(self.dtype)[:, None]
        self._sum_list = sums.tolist()
        self._layout: LevelLayout | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_layout"] = None  # O(sigma) and unused by update()
        return state

    @property
    def layout(self) -> LevelLayout:
        """The table shape's :class:`LevelLayout`, taken from the
        :func:`level_layout` cache on first use; every wavefront schedule
        iterates its ``levels`` and tables start from its ``template``."""
        layout = self._layout
        if layout is None:
            layout = self._layout = level_layout(self._shape)
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
        """Fresh level-encoded table of ``sigma`` states (the table size):
        a copy of the cached init template, all-infeasible except
        ``OPT(0) = 0``."""
        template = self.layout.template
        if sigma != len(template):
            raise ValueError(
                f"sigma {sigma} does not match the table size {len(template)}"
            )
        return template.copy()

    def init_table(self, table: np.ndarray) -> None:
        """Initialize an externally allocated table of :attr:`dtype`
        (e.g. shared memory) in place from the init template."""
        np.copyto(table, self.layout.template)

    def decode(self, table: np.ndarray) -> np.ndarray:
        """The plain ``int64`` table of a level-encoded one: ``OPT`` per
        state, :data:`KERNEL_INFEASIBLE` where no packing reaches it."""
        values = (table % self.unit).astype(np.int64)
        values[values >= self.inf] = KERNEL_INFEASIBLE
        return values

    def opt(self, table: np.ndarray, index: int) -> int | None:
        """Decode one entry of a level-encoded table (``None`` when
        infeasible) — what the solve path reads instead of the whole
        decoded table."""
        value = int(table[index]) % self.unit
        return None if value >= self.inf else value

    def update(
        self,
        table: np.ndarray,
        flats: np.ndarray,
        *,
        level: int | None = None,
        count_applicable: bool = False,
    ) -> np.ndarray | None:
        """Compute one chunk of the level-encoded table, in place, in one
        fused pass.

        ``flats`` are flat indices whose predecessors are already final
        (any chunk of one anti-diagonal, or any antichain of states);
        chunks of the same level are disjoint, so concurrent calls need
        no locking — the argument that makes the paper's OpenMP loop
        race-free.  Every read happens before the chunk's single write.

        ``level`` is the chunk's anti-diagonal when the caller knows it;
        with ``None`` the chunk may mix levels, and each state's level
        and cap are read from its current entry, whose band names its
        level.  Either way only configurations whose component sum fits
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
        unit = self.unit
        if level is None:
            # Before the write each entry holds the state's cap: its
            # band's infeasible value, 0 at the origin.
            current = table[flats]
            levels = current // unit
            n = bisect_right(self._sum_list, int(levels.max()))
            limits = (levels + 1) * unit
        else:
            n = bisect_right(self._sum_list, level)
            cap = level * unit + self.inf if level else 0
            limit = (level + 1) * unit
        if not n:
            return counts
        offsets = self._offsets_by_sum[:n]
        shifts = self._shifts_by_sum[:n]
        best = np.empty(q, dtype=table.dtype)
        step = max(1, _FUSED_BLOCK // n)
        for lo in range(0, q, step):
            hi = lo + step
            candidates = table[flats[lo:hi] - offsets]
            candidates += shifts
            if level is None:
                np.minimum.reduce(candidates, axis=0, out=best[lo:hi])
            else:
                np.minimum.reduce(candidates, axis=0, out=best[lo:hi], initial=cap)
            if counts is not None:
                valid = candidates < (limit if level is not None else limits[lo:hi])
                counts[lo:hi] = np.count_nonzero(valid, axis=0)
        if level is None:
            np.minimum(best, current, out=best)
        table[flats] = best
        return counts

    def sweep(
        self, table: np.ndarray, levels: Sequence[np.ndarray]
    ) -> None:
        """Serial whole-table fill: one :meth:`update` per anti-diagonal
        (levels after the zeroth, whose single state the template set)."""
        update = self.update
        for level, flats in enumerate(levels[1:], start=1):
            update(table, flats, level=level)
