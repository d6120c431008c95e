"""Parallel execution substrate for level-synchronous (wavefront) loops.

The paper's Parallel DP (Alg. 3) is a sequence of barriers: each
anti-diagonal of the DP table is a *level*, the subproblems within a level
are independent, and levels must complete in order.  The real backends
batch those barriers into tiles; this subpackage provides the machinery
that :mod:`repro.core.parallel_dp`'s one tile driver runs on:

* :mod:`repro.parallel.runs` — the tile plan: contiguous flat-index
  blocks × runs of levels, executed one tile diagonal per barrier, plus
  the anti-diagonal widths of a table (:func:`~repro.parallel.runs.level_sizes_from_dims`).
* :mod:`repro.parallel.executor` — pluggable backends that execute one
  diagonal's tiles: in-line serial, shared-memory threads, or a process
  pool.  The simulated multicore machine lives in :mod:`repro.simcore`.
* :mod:`repro.parallel.cpus` — the CPUs a process can actually use, which
  caps the block count.
"""

from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
]
