"""Bisection search over target makespans (Alg. 1, lines 5–30).

The PTAS is a *dual approximation*: for a candidate makespan ``T`` the
rounded DP answers "can the long jobs be packed into at most ``m``
machines within ``T``?".  Bisection narrows ``[LB, UB]`` — feasible
targets shrink ``UB`` to ``T``, infeasible ones raise ``LB`` to ``T+1`` —
until ``LB == UB``.  The DP is exact on the *rounded* jobs and rounding
only shrinks processing times, so every ``T >= OPT`` is feasible.
Feasibility is *not* monotone in ``T`` below ``OPT``: the rounding unit
``ceil(T/k^2)`` and the long/short split move with ``T``, so a target can
be feasible while the next one up is not (``tests/test_bisection.py``
pins such a dip).  The search needs only the one-sided fact: an
infeasible probe proves ``T < OPT``, so ``LB`` never passes ``OPT``,
and ``UB`` only moves to a target the DP certified.  The final
``UB = LB`` is therefore a DP-feasible target ``<= OPT``, and its
un-rounded schedule is within the PTAS guarantee.

Termination: the initial width is at most ``max t`` (Eqs. 1–2) and halves
every iteration, so the loop runs ``O(log max t)`` times.

Warm starts (deviation from the paper, ``warm_start=True``)
-----------------------------------------------------------
Three cheap accelerations shrink the work per solve; each still
certifies a DP-feasible target ``<= OPT`` (see below; property-tested
against the faithful search and brute force):

* **LPT-seeded upper bound.**  Eq. 2 is Graham's worst case; the actual
  LPT makespan is never larger and usually much closer to optimal, and
  any target ``>=`` it is feasible for the rounded DP (rounding only
  shrinks loads, and a machine of load ``<= T`` holds fewer than ``k``
  long jobs).  Seeding ``UB = min(Eq. 2, LPT)`` removes the top of the
  search interval — fewer probes, each the expensive part.
* **Rounding-bucket reuse.**  Consecutive probes whose targets share a
  rounding bucket — same quantum ``ceil(T/k^2)`` and same long/short
  split — produce identical class structure, so the previous probe's
  :class:`~repro.core.rounding.RoundedInstance` is reused with only the
  target swapped instead of re-scanning all ``n`` jobs.
* **Probe reuse** (in the solver :func:`repro.core.ptas.parallel_ptas`
  hands this search).  A probe's DP table depends only on the counts and
  the configuration set, and targets of one bucket often enumerate the
  same set, so on the real wavefront backends a repeat returns the
  earlier probe's :class:`~repro.core.dp.DPResult` instead of a refill.
  Every probe still gets its ``probe`` span and iteration record; only
  the ``dp`` span is missing, counted by ``dp_reuses``.  The simulated
  backend and the sequential :func:`~repro.core.ptas.ptas` fill every
  probe, as does the faithful search.

Every probe threads the machine budget through to the solver as its
decision ``limit`` — the callable contract of :data:`DecisionSolver`.
Probe reuse returns exactly what a refill would, and the other two
accelerations certify an equally valid target: every ``T >= OPT``
is feasible for the rounded DP (rounding only shrinks loads), so any
bracketing interval converges to a feasible target ``<= OPT`` and the
``(1 + eps)`` guarantee holds unchanged.  Below ``OPT`` the rounding
bucket varies with ``T``, so the warm search may certify a *different*
(equally valid) target than the faithful one — property-tested in
``tests/test_bisection.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from repro.core.bounds import makespan_bounds
from repro.core.context import SolveContext
from repro.core.dp import DPProblem, DPResult
from repro.core.rounding import RoundedInstance, round_instance, rounding_unit
from repro.model.instance import Instance

#: Default context of the *standalone* bisection: the paper-faithful
#: search (no warm start) — callers coming through :func:`repro.core.ptas.ptas`
#: get warm starts from its own default context instead.
_FAITHFUL_CONTEXT = SolveContext(warm_start=False)

#: A solver takes the rounded problem of one iteration and the machine
#: budget ``m``, and must report ``opt=None`` when ``OPT(N) > m``.
DecisionSolver = Callable[[DPProblem, int], DPResult]


@dataclass(frozen=True)
class BisectionIteration:
    """Record of one probe of the bisection search."""

    target: int
    lower: int
    upper: int
    feasible: bool
    opt: int | None
    table_size: int
    num_long_jobs: int
    num_classes: int


@dataclass
class BisectionOutcome:
    """Final state of the search: the certified target and its packing."""

    final_target: int
    rounded: RoundedInstance
    dp_result: DPResult
    iterations: list[BisectionIteration] = field(default_factory=list)
    #: Probes whose rounding was reused from the previous probe (same
    #: rounding bucket) instead of recomputed; 0 for the faithful search.
    rounding_reuses: int = 0

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


class _RoundingCache:
    """Per-search memo of the last probe's rounding.

    A new target reuses the cached :class:`RoundedInstance` (with only
    ``target`` replaced) when it lands in the same *rounding bucket*:
    identical quantum ``ceil(T/k^2)`` and identical long/short split.
    The split is checked in O(1) via the cached extreme processing times
    — every short job must stay short (``t*k <= T``) and every long job
    long (``t*k > T``).
    """

    def __init__(self, instance: Instance, k: int) -> None:
        self._instance = instance
        self._k = k
        self._rounded: RoundedInstance | None = None
        self._max_short = 0
        self._min_long: int | None = None
        self.reuses = 0

    def round(self, target: int) -> RoundedInstance:
        """Rounding for ``target``, reusing the previous bucket if valid."""
        k = self._k
        prev = self._rounded
        if (
            prev is not None
            and rounding_unit(target, k) == prev.unit
            and self._max_short * k <= target
            and (self._min_long is None or self._min_long * k > target)
        ):
            self.reuses += 1
            self._rounded = dataclasses.replace(prev, target=target)
            return self._rounded
        rounded = round_instance(self._instance, target, k)
        times = self._instance.processing_times
        self._rounded = rounded
        self._max_short = max((times[j] for j in rounded.short_jobs), default=0)
        long_times = [
            times[j] for members in rounded.class_members for j in members
        ]
        self._min_long = min(long_times) if long_times else None
        return rounded


def _initial_upper_bound(
    instance: Instance, warm_start: bool, ub_hint: int | None = None
) -> int:
    """Eq. 2, tightened by the actual LPT makespan when warm-starting.

    ``ub_hint`` (see :class:`repro.core.context.SolveContext.ub_hint`)
    tightens further: any *real* schedule's makespan is a feasible
    rounded-DP target (rounding only shrinks loads), so a caller that
    already holds one — a live schedule between re-solves — hands its
    makespan here and the search starts below both Eq. 2 and LPT.
    """
    upper = makespan_bounds(instance).upper
    if not warm_start:
        return upper
    from repro.algorithms.lpt import lpt

    upper = min(upper, lpt(instance).makespan)
    if ub_hint is not None:
        upper = min(upper, int(ub_hint))
    return upper


def bisect_target_makespan(
    instance: Instance,
    k: int,
    solver: DecisionSolver,
    job_cap: int | None = None,
    *,
    ctx: SolveContext | None = None,
) -> BisectionOutcome:
    """Run the dual-approximation bisection and return the last feasible
    probe (whose target equals the final ``UB = LB``).

    ``solver`` is invoked once per probe; its ``DPResult`` must carry the
    machine configurations when feasible so the schedule can be
    reconstructed without re-solving.  ``job_cap`` (typically ``k - 1``)
    is threaded into every probe's :class:`DPProblem` — the guarantee fix
    of :mod:`repro.core.configurations`; the cap never cuts off a true
    schedule because each long job strictly exceeds ``T/k``.

    ``ctx`` (a :class:`~repro.core.context.SolveContext`) carries every
    cross-cutting concern: ``ctx.warm_start`` selects between the
    paper-faithful search (the standalone default here) and the
    LPT-seeded + rounding-reuse search (module docstring);
    ``ctx.check_deadline`` is invoked before every probe (the expensive
    unit of work) and cancels the solve by raising — typically
    :class:`repro.service.requests.DeadlineExceeded`; ``ctx.tracer``
    receives one ``probe`` span per iteration with a nested ``round``
    span (the solver adds ``enumerate``/``dp``/``level`` spans beneath).
    """
    ctx = ctx if ctx is not None else _FAITHFUL_CONTEXT
    tracer = ctx.tracer
    m = instance.num_machines
    lb = makespan_bounds(instance).lower
    ub = _initial_upper_bound(instance, ctx.warm_start, ctx.ub_hint)
    cache = _RoundingCache(instance, k)
    do_round = cache.round if ctx.warm_start else (
        lambda target: round_instance(instance, target, k)
    )

    def probe(target: int, lower: int, upper: int) -> tuple[RoundedInstance, DPResult, bool]:
        """One traced bisection probe: round, solve, record."""
        with tracer.span("probe", target=target, lower=lower, upper=upper) as sp:
            with tracer.span("round", target=target, k=k):
                rounded = do_round(target)
            problem = DPProblem(
                rounded.class_sizes, rounded.class_counts, target, job_cap=job_cap
            )
            result = solver(problem, m)
            feasible = result.opt is not None and result.opt <= m
            sp.set(
                feasible=feasible,
                opt=result.opt,
                table_size=problem.table_size,
                num_long_jobs=rounded.num_long_jobs,
                num_classes=rounded.num_classes,
            )
        tracer.count("probes")
        trace.append(
            BisectionIteration(
                target=target,
                lower=lower,
                upper=upper,
                feasible=feasible,
                opt=result.opt,
                table_size=problem.table_size,
                num_long_jobs=rounded.num_long_jobs,
                num_classes=rounded.num_classes,
            )
        )
        return rounded, result, feasible

    best: tuple[RoundedInstance, DPResult] | None = None
    trace: list[BisectionIteration] = []
    while lb < ub:
        ctx.check()
        target = (lb + ub) // 2
        rounded, result, feasible = probe(target, lb, ub)
        if feasible:
            ub = target
            best = (rounded, result)
        else:
            lb = target + 1
    if best is None or best[0].target != ub:
        # Either the interval was empty to begin with, or every probe
        # below the final UB was infeasible.  The final UB itself is
        # always feasible (a real schedule — LPT's, or any within Eq. 2's
        # bound — fits, and rounding only shrinks loads), so one more
        # solve certifies it.
        ctx.check()
        rounded, result, feasible = probe(ub, lb, ub)
        if not feasible:  # pragma: no cover - guard
            raise AssertionError(
                f"DP infeasible at the guaranteed-feasible target {ub}"
            )
        best = (rounded, result)
    tracer.count("rounding_reuses", cache.reuses)
    rounded, result = best
    return BisectionOutcome(
        final_target=rounded.target,
        rounded=rounded,
        dp_result=result,
        iterations=trace,
        rounding_reuses=cache.reuses,
    )
