"""Core of the reproduction: the Hochbaum–Shmoys PTAS for ``P || Cmax``
and its shared-memory parallelization (Ghalami & Grosu, IPPS 2017).

Module map (mirrors the paper's Algorithm 1/2/3 structure):

* :mod:`repro.core.bounds` — LB/UB on the optimal makespan (Eq. 1–2).
* :mod:`repro.core.rounding` — long/short job split and rounding of long
  jobs into at most ``k^2`` size classes (Alg. 1, lines 9–24).
* :mod:`repro.core.configurations` — enumeration of machine
  configurations (Eq. 3).
* :mod:`repro.core.dp` — sequential dynamic-programming engines computing
  ``OPT(N)`` (Alg. 2): the faithful full table (the reference), the
  numpy-vectorized sweep (the kernel, the default), and the
  configuration IP of :mod:`repro.core.dp_ilp`.
* :mod:`repro.core.kernels` — the vectorized level kernel every
  wavefront backend and the ``numpy`` engine run.
* :mod:`repro.core.parallel_dp` — the paper's contribution (Alg. 3): the
  anti-diagonal wavefront parallel DP.  The serial / thread / process
  backends run one tile driver (blocks × runs of anti-diagonals, one
  barrier per tile diagonal); the simulated backend models Alg. 3's
  per-level schedule or those tiles.
* :mod:`repro.core.bisection` — the dual-approximation bisection driver
  over target makespans ``T`` (Alg. 1, lines 5–30);
  :mod:`repro.core.speculative` — its multi-probe variant, for the
  simulated ablation of DESIGN.md §7.
* :mod:`repro.core.reconstruct` — replacing rounded long jobs by the
  originals and LPT placement of short jobs (Alg. 1, lines 31–51).
* :mod:`repro.core.context` — :class:`SolveContext`, the single object
  carrying deadline / warm-start / tracing / metrics / executor concerns
  through every layer above.
* :mod:`repro.core.ptas` — the public entry points :func:`ptas` and
  :func:`parallel_ptas`.
"""

from repro.core.context import DEFAULT_CONTEXT, SolveContext
from repro.core.ptas import PTASResult, parallel_ptas, ptas

__all__ = [
    "ptas",
    "parallel_ptas",
    "PTASResult",
    "SolveContext",
    "DEFAULT_CONTEXT",
]
