"""Speculative (multi-probe) bisection — an extension beyond the paper.

The paper parallelizes only the DP and leaves the bisection loop
sequential, arguing the DP dominates.  That leaves one axis unexploited:
the ``O(log max t)`` *rounds* of the bisection are themselves a serial
chain.  When more processors are available than one DP can absorb
(narrow tables, ``q_l < P``), they can instead evaluate **several target
makespans concurrently** — classic speculative execution, since all but
one probe's result merely sharpens the interval.

With ``g`` simultaneous probes per round the interval shrinks by a
factor of ``g + 1`` per round instead of 2, so the number of rounds
drops from ``log2 W`` to ``log_{g+1} W``.  The reduction needs no
monotonicity — rounded feasibility is *not* monotone in the target,
because the rounding unit and the long/short split move with it (see
:mod:`repro.core.bisection`).  It needs only that every ``T >= OPT`` is
feasible: an infeasible probe then proves ``T < OPT``, so raising the
lower end past it never passes ``OPT``, and the upper end only moves to
a probe the DP certified.  The search ends on a DP-feasible target
``<= OPT``, which is all the ``(1 + eps)`` guarantee uses.

This module is engine-agnostic — probes are issued through the same
``DecisionSolver`` used by :mod:`repro.core.bisection` — and the
``repro.experiments`` ablation benchmark charges concurrent probes the
cost of the *most expensive* one, which is what a g-way parallel machine
would pay (:func:`simulate_speculative_ptas`).  :func:`speculative_bisect`
itself runs a round's probes one after another on the calling thread.
"""

from __future__ import annotations

from repro.core.bisection import (
    BisectionIteration,
    BisectionOutcome,
    DecisionSolver,
    _initial_upper_bound,
    bisect_target_makespan,
)
from repro.core.bounds import makespan_bounds
from repro.core.context import SolveContext
from repro.core.dp import DPProblem, DPResult
from repro.core.rounding import RoundedInstance, round_instance
from repro.model.instance import Instance

#: Standalone default mirrors :func:`bisect_target_makespan`: the
#: paper-faithful search (no warm start).
_FAITHFUL_CONTEXT = SolveContext(warm_start=False)


def probe_targets(lower: int, upper: int, branching: int) -> list[int]:
    """Evenly spaced probe targets strictly inside ``[lower, upper)``.

    Returns up to ``branching`` distinct integers ``t`` with
    ``lower <= t < upper``, splitting the interval into ``branching + 1``
    near-equal parts (the generalization of the midpoint).

    >>> probe_targets(0, 8, 3)
    [2, 4, 6]
    >>> probe_targets(10, 12, 3)
    [10, 11]
    """
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if lower >= upper:
        return []
    width = upper - lower
    targets = sorted(
        {lower + (width * (i + 1)) // (branching + 1) for i in range(branching)}
    )
    return [t for t in targets if lower <= t < upper] or [lower]


def speculative_bisect(
    instance: Instance,
    k: int,
    solver: DecisionSolver,
    branching: int = 3,
    job_cap: int | None = None,
    *,
    ctx: SolveContext | None = None,
) -> BisectionOutcome:
    """Multi-probe bisection: ``branching`` probe targets per round.

    Like :func:`repro.core.bisection.bisect_target_makespan`, it
    certifies a DP-feasible target ``<= OPT``; only the probe schedule
    differs.  ``branching=1`` is the standard bisection, probe for
    probe.  With more probes per round the two searches may end on
    different targets, because rounded feasibility is not monotone in
    ``T`` (see the module docstring) — each is an equally valid
    ``(1 + eps)`` certificate.

    Parameters
    ----------
    solver:
        The decision solver of every probe; its :class:`DPResult` must
        carry machine configurations, because the outcome's packing
        comes from it.
    ctx:
        Standalone default is the paper-faithful search (no warm start),
        matching :func:`bisect_target_makespan`; ``ctx.warm_start`` seeds
        the upper bound from LPT, ``ctx.check_deadline`` is honoured once
        per round, and the tracer receives one ``spec_round`` span per
        round with the probes nested beneath.  Win/waste accounting goes
        through :meth:`~repro.core.context.SolveContext.record_metric`
        (``speculative.probe_wins`` — probes that moved a bound —
        vs ``speculative.probe_waste``).
    """
    ctx = ctx if ctx is not None else _FAITHFUL_CONTEXT
    m = instance.num_machines
    lb = makespan_bounds(instance).lower
    ub = _initial_upper_bound(instance, ctx.warm_start, ctx.ub_hint)
    best: tuple[RoundedInstance, DPResult] | None = None
    trace: list[BisectionIteration] = []

    def solve_at(target: int) -> tuple[RoundedInstance, DPProblem, DPResult]:
        rounded = round_instance(instance, target, k)
        problem = DPProblem(
            rounded.class_sizes, rounded.class_counts, target, job_cap=job_cap
        )
        return rounded, problem, solver(problem, m)

    while lb < ub:
        ctx.check()
        targets = probe_targets(lb, ub, branching)
        feasible_probes: list[tuple[int, RoundedInstance, DPResult]] = []
        infeasible_targets: list[int] = []
        with ctx.span(
            "spec_round", lower=lb, upper=ub, probes=len(targets)
        ) as round_span:
            for target in targets:
                with ctx.span("probe", target=target, lower=lb, upper=ub) as sp:
                    rounded, problem, result = solve_at(target)
                    feasible = result.opt is not None and result.opt <= m
                    sp.set(
                        feasible=feasible,
                        opt=result.opt,
                        table_size=problem.table_size,
                        num_long_jobs=rounded.num_long_jobs,
                        num_classes=rounded.num_classes,
                    )
                trace.append(
                    BisectionIteration(
                        target=target,
                        lower=lb,
                        upper=ub,
                        feasible=feasible,
                        opt=result.opt,
                        table_size=problem.table_size,
                        num_long_jobs=rounded.num_long_jobs,
                        num_classes=rounded.num_classes,
                    )
                )
                if feasible:
                    feasible_probes.append((target, rounded, result))
                else:
                    infeasible_targets.append(target)
            # New interval: [largest infeasible + 1, smallest feasible].
            # Without monotonicity the two ends may cross; the loop then
            # stops on the smallest feasible probe, still <= OPT.
            wins = 0
            if feasible_probes:
                wins += 1
                ub, rounded, result = min(feasible_probes, key=lambda r: r[0])
                best = (rounded, result)
            if infeasible_targets:
                wins += 1
                lb = max(infeasible_targets) + 1
            round_span.set(new_lower=lb, new_upper=ub, wins=wins)
        ctx.count("probes", len(targets))
        ctx.record_metric("speculative.rounds")
        ctx.record_metric("speculative.probes", len(targets))
        ctx.record_metric("speculative.probe_wins", wins)
        ctx.record_metric("speculative.probe_waste", len(targets) - wins)

    if best is None:
        # No probe was feasible, so the upper end is still the initial
        # bound, at least OPT: one more solve certifies it.
        rounded, problem, result = solve_at(ub)
        if result.opt is None or result.opt > m:  # pragma: no cover - guard
            raise AssertionError(
                f"DP infeasible at the guaranteed-feasible target {ub}"
            )
        trace.append(
            BisectionIteration(
                target=ub,
                lower=lb,
                upper=ub,
                feasible=True,
                opt=result.opt,
                table_size=problem.table_size,
                num_long_jobs=rounded.num_long_jobs,
                num_classes=rounded.num_classes,
            )
        )
        best = (rounded, result)
    rounded, result = best
    return BisectionOutcome(
        final_target=rounded.target,
        rounded=rounded,
        dp_result=result,
        iterations=trace,
    )


def simulate_speculative_ptas(
    instance: Instance,
    eps: float,
    num_workers: int,
    branching: int,
    cost_model=None,
):
    """Simulated end-to-end comparison: speculative vs standard bisection.

    Models a machine of ``P = num_workers`` processors that, each round,
    splits into ``branching`` groups of ``P // branching`` processors;
    every group runs one probe's wavefront DP concurrently, so the round
    costs the *maximum* of the probes' simulated parallel times.  The
    baseline is the standard (single-probe, all-``P``) parallel PTAS on
    the same machine.

    Returns a :class:`SpeculativeStudy` with both parallel-op totals, the
    shared serial-op total (the sequential PTAS's work), and the round
    counts — the data behind the speculative-bisection ablation.
    """
    from repro.core.dp import DPProblem as _DPProblem
    from repro.core.parallel_dp import parallel_dp
    from repro.core.rounding import accuracy_parameter
    from repro.simcore.costmodel import CostModel
    from repro.simcore.machine import SimulatedMachine

    if branching < 1:
        raise ValueError("branching must be >= 1")
    if num_workers < branching:
        raise ValueError(
            "need at least one processor per concurrent probe "
            f"(P={num_workers} < g={branching})"
        )
    model = cost_model if cost_model is not None else CostModel()
    k = accuracy_parameter(eps)

    # Standard parallel PTAS on all P workers (the baseline).
    standard_machine = SimulatedMachine(num_workers, model, record_traces=False)

    def standard_solver(problem: _DPProblem, m: int):
        return parallel_dp(
            problem,
            num_workers,
            "simulated",
            limit=m,
            track_schedule=True,
            machine=standard_machine,
            cost_model=model,
        )

    standard_outcome = bisect_target_makespan(instance, k, standard_solver)

    # Speculative run: each probe gets P // g processors.  A probe's cost
    # is computed by one simulated wavefront on that sub-machine; probes
    # that share a bisection interval ran concurrently, so each round
    # costs the maximum over its probes.
    per_probe_workers = num_workers // branching
    probe_cost_cache: dict[int, float] = {}

    def probe_parallel_ops(target: int) -> float:
        if target not in probe_cost_cache:
            from repro.core.rounding import round_instance

            rounded = round_instance(instance, target, k)
            problem = _DPProblem(
                rounded.class_sizes, rounded.class_counts, target
            )
            machine = SimulatedMachine(
                per_probe_workers, model, record_traces=False
            )
            parallel_dp(
                problem,
                per_probe_workers,
                "simulated",
                limit=instance.num_machines,
                track_schedule=False,
                machine=machine,
                cost_model=model,
            )
            probe_cost_cache[target] = machine.parallel_ops
        return probe_cost_cache[target]

    def plain_solver(problem: _DPProblem, m: int):
        return parallel_dp(
            problem,
            per_probe_workers,
            "simulated",
            limit=m,
            track_schedule=True,
            cost_model=model,
        )

    outcome = speculative_bisect(instance, k, plain_solver, branching)
    per_round: dict[tuple[int, int], float] = {}
    for it in outcome.iterations:
        key = (it.lower, it.upper)
        per_round[key] = max(
            per_round.get(key, 0.0), probe_parallel_ops(it.target)
        )
    speculative_parallel_ops = sum(per_round.values())

    return SpeculativeStudy(
        branching=branching,
        num_workers=num_workers,
        serial_ops=standard_machine.serial_ops,
        standard_parallel_ops=standard_machine.parallel_ops,
        speculative_parallel_ops=speculative_parallel_ops,
        standard_probes=len(standard_outcome.iterations),
        speculative_rounds=len(per_round),
        final_target=outcome.final_target,
        standard_final_target=standard_outcome.final_target,
    )


class SpeculativeStudy:
    """Results of :func:`simulate_speculative_ptas` (plain record)."""

    def __init__(
        self,
        branching: int,
        num_workers: int,
        serial_ops: float,
        standard_parallel_ops: float,
        speculative_parallel_ops: float,
        standard_probes: int,
        speculative_rounds: int,
        final_target: int,
        standard_final_target: int,
    ) -> None:
        self.branching = branching
        self.num_workers = num_workers
        self.serial_ops = serial_ops
        self.standard_parallel_ops = standard_parallel_ops
        self.speculative_parallel_ops = speculative_parallel_ops
        self.standard_probes = standard_probes
        self.speculative_rounds = speculative_rounds
        self.final_target = final_target
        self.standard_final_target = standard_final_target

    @property
    def standard_speedup(self) -> float:
        return self.serial_ops / self.standard_parallel_ops

    @property
    def speculative_speedup(self) -> float:
        return self.serial_ops / self.speculative_parallel_ops


def count_rounds(outcome: BisectionOutcome, branching: int) -> int:
    """Number of *parallel rounds* a g-way speculative run used, counting
    each group of up to ``branching`` consecutive probes sharing a
    (lower, upper) interval as one round."""
    rounds = 0
    seen: set[tuple[int, int]] = set()
    for it in outcome.iterations:
        key = (it.lower, it.upper)
        if key not in seen:
            seen.add(key)
            rounds += 1
    return rounds
