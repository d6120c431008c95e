"""The solver registry — one source of truth for engine names.

Both the CLI (``repro-pcmax solve``) and the service front-end resolve
engine names here, so "which engines exist, what do they guarantee, and
can they be cancelled mid-flight" lives in exactly one place.  Each
:class:`EngineSpec` declares

* ``guarantee(request)`` — the a-priori approximation factor of the
  engine for that request (``1 + eps`` for the PTAS family, Graham's
  bounds for the list heuristics, ``1.0`` for exact methods);
* ``supports_deadline`` — whether the engine honours the context's
  deadline hook between units of work (the PTAS bisection probes);
* ``parallelizable`` — whether the engine fans out onto worker pools;
* ``problems`` — the problem variants the engine can solve
  (``p_cmax`` for everything; the greedy baselines also speak
  ``q_cmax`` through their speed-aware counterparts);
* ``solve(instance, request, ctx)`` — the actual callable, where ``ctx``
  is a :class:`repro.core.context.SolveContext` (or ``None`` for plain
  defaults).  :func:`build_solve_context` is the one place that turns a
  request plus service plumbing (deadline, tracer, metrics) into that
  context.

Unknown names raise :class:`UnknownEngineError` (a ``ValueError``) whose
message lists the valid names — the CLI turns it into a clean non-zero
exit instead of a traceback, the server into a ``status="error"``
response.  Dashes and underscores are interchangeable in names
(``parallel-ptas`` resolves to ``parallel_ptas``).  A known engine asked
for a problem outside its ``problems`` raises
:class:`UnsupportedProblemError` (a subclass, same handling) listing the
valid (engine, problem) pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.algorithms.list_scheduling import (
    list_scheduling,
    list_scheduling_worst_case_ratio,
)
from repro.algorithms.lpt import lpt, lpt_worst_case_ratio
from repro.algorithms.multifit import multifit
from repro.algorithms.related import (
    q_list_scheduling,
    q_list_worst_case_ratio,
    q_lpt,
    q_lpt_worst_case_ratio,
)
from repro.core.context import SolveContext
from repro.core.parallel_dp import BACKENDS
from repro.core.ptas import parallel_ptas
from repro.model.instance import Instance
from repro.model.problem import P_CMAX, Q_CMAX, canonical_problem_name
from repro.model.qinstance import QInstance, QSchedule
from repro.parallel.cpus import resolve_workers
from repro.model.schedule import Schedule
from repro.service.requests import STATUS_OK, SolveResult, deadline_checker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.requests import SolveRequest

SolverFn = Callable[
    ["Instance | QInstance", "SolveRequest", "SolveContext | None"],
    "Schedule | QSchedule",
]


def build_solve_context(
    request: "SolveRequest",
    *,
    deadline_at: float | None = None,
    clock: Callable[[], float] = time.monotonic,
    tracer: Any = None,
    metrics: Any = None,
) -> SolveContext:
    """Construct the per-request :class:`SolveContext` the service hands
    to an engine.

    ``deadline_at`` (absolute, on ``clock``'s timeline) becomes a
    :func:`repro.service.requests.deadline_checker` hook; ``tracer`` and
    ``metrics`` are stored as-is (``tracer=None`` means untraced).  This
    is the single place the service assembles cross-cutting concerns —
    engines never see raw deadlines or registries.
    """
    check = (
        deadline_checker(deadline_at, clock) if deadline_at is not None else None
    )
    kwargs: dict[str, Any] = {"check_deadline": check, "metrics": metrics}
    if tracer is not None:
        kwargs["tracer"] = tracer
    return SolveContext(**kwargs)


class UnknownEngineError(ValueError):
    """An engine (or sub-engine/backend) name that the registry does not
    know; the message enumerates the valid choices."""


class UnsupportedProblemError(UnknownEngineError):
    """A known engine asked to solve a problem variant outside its
    declared ``problems``; the message lists the valid (engine, problem)
    pairs.  Subclasses :class:`UnknownEngineError` so every existing
    catch site (CLI exit 2, server ``status="error"``) handles it."""

    def __init__(self, engine: str, problem: str):
        supported = ", ".join(
            name
            for name in available_engines()
            if problem in _REGISTRY[name].problems
        ) or "none"
        super().__init__(
            f"engine {engine!r} does not support problem {problem!r} "
            f"(it solves: {', '.join(sorted(_REGISTRY[engine].problems))}); "
            f"engines supporting {problem!r}: {supported}"
        )
        self.engine = engine
        self.problem = problem


@dataclass(frozen=True)
class EngineSpec:
    """Declared capabilities and entry point of one engine."""

    name: str
    description: str
    guarantee: Callable[["SolveRequest"], float]
    solve: SolverFn
    supports_deadline: bool = False
    parallelizable: bool = False
    exact: bool = False
    problems: tuple[str, ...] = (P_CMAX,)

    def supports_problem(self, problem: str) -> bool:
        """True iff the engine declares *problem* (normalized) as solvable."""
        return canonical_problem_name(problem) in self.problems


# ---------------------------------------------------------------------------
# Engine adapters: (instance, request, ctx) -> Schedule
# ---------------------------------------------------------------------------

def _solve_ptas(
    instance: Instance,
    request: "SolveRequest",
    ctx: "SolveContext | None",
) -> Schedule:
    # The wavefront kernel on one thread, with probe reuse: the fastest
    # path to the paper's table witness, ``ptas(engine="table")``'s
    # schedule.  Serving one witness keeps answers a function of the
    # cache key.
    return parallel_ptas(
        instance, request.eps, 1, backend="numpy-serial", ctx=ctx
    ).schedule


def _solve_parallel_ptas(
    instance: Instance,
    request: "SolveRequest",
    ctx: "SolveContext | None",
) -> Schedule:
    if request.backend not in BACKENDS:
        raise UnknownEngineError(
            f"unknown wavefront backend {request.backend!r}; available: "
            f"{sorted(BACKENDS)}"
        )
    return parallel_ptas(
        instance,
        request.eps,
        num_workers=resolve_workers(request.workers),
        backend=request.backend,
        ctx=ctx,
    ).schedule


def _solve_exact(method: str) -> SolverFn:
    def run(
        instance: Instance,
        request: "SolveRequest",
        ctx: "SolveContext | None",
    ) -> Schedule:
        from repro.exact.api import solve_exact

        return solve_exact(
            instance, method, time_limit=request.time_limit
        ).schedule

    return run


def _solve_baseline(
    fn: Callable[[Instance], Schedule],
    q_fn: Callable[[QInstance], QSchedule] | None = None,
) -> SolverFn:
    def run(
        instance: "Instance | QInstance",
        request: "SolveRequest",
        ctx: "SolveContext | None",
    ) -> "Schedule | QSchedule":
        if isinstance(instance, QInstance):
            if q_fn is None:  # pragma: no cover - capability check runs first
                raise UnsupportedProblemError(request.engine, Q_CMAX)
            return q_fn(instance)
        return fn(instance)

    return run


def _ptas_guarantee(request: "SolveRequest") -> float:
    return 1.0 + request.eps


def _lpt_guarantee(request: "SolveRequest") -> float:
    if request.problem == Q_CMAX:
        return q_lpt_worst_case_ratio(request.speeds)
    return lpt_worst_case_ratio(request.machines)


def _ls_guarantee(request: "SolveRequest") -> float:
    if request.problem == Q_CMAX:
        return q_list_worst_case_ratio(request.speeds)
    return list_scheduling_worst_case_ratio(request.machines)


_REGISTRY: dict[str, EngineSpec] = {}


def _register(spec: EngineSpec) -> None:
    _REGISTRY[spec.name] = spec


_register(
    EngineSpec(
        name="ptas",
        description="Hochbaum–Shmoys PTAS (Algorithm 1) on one thread of "
        "the wavefront kernel",
        guarantee=_ptas_guarantee,
        solve=_solve_ptas,
        supports_deadline=True,
    )
)
_register(
    EngineSpec(
        name="parallel_ptas",
        description="wavefront parallel PTAS (paper §III, Algorithm 3)",
        guarantee=_ptas_guarantee,
        solve=_solve_parallel_ptas,
        supports_deadline=True,
        parallelizable=True,
    )
)
_register(
    EngineSpec(
        name="lpt",
        description="Longest Processing Time first (4/3 − 1/(3m); "
        "speed-scaled ECT variant for q_cmax)",
        guarantee=_lpt_guarantee,
        solve=_solve_baseline(lpt, q_lpt),
        problems=(P_CMAX, Q_CMAX),
    )
)
_register(
    EngineSpec(
        name="ls",
        description="Graham list scheduling (2 − 1/m; earliest-completion-"
        "time variant for q_cmax)",
        guarantee=_ls_guarantee,
        solve=_solve_baseline(list_scheduling, q_list_scheduling),
        problems=(P_CMAX, Q_CMAX),
    )
)
_register(
    EngineSpec(
        name="multifit",
        description="MULTIFIT binary search over FFD (1.22 + 2^-k)",
        guarantee=lambda req: 1.22,
        solve=_solve_baseline(multifit),
    )
)
_register(
    EngineSpec(
        name="ilp",
        description="assignment MILP via HiGHS (exact, time-limited)",
        guarantee=lambda req: 1.0,
        solve=_solve_exact("ilp"),
        exact=True,
    )
)
_register(
    EngineSpec(
        name="bnb",
        description="branch and bound (exact)",
        guarantee=lambda req: 1.0,
        solve=_solve_exact("bnb"),
        exact=True,
    )
)
_register(
    EngineSpec(
        name="brute",
        description="brute force (exact, tiny instances only)",
        guarantee=lambda req: 1.0,
        solve=_solve_exact("brute"),
        exact=True,
    )
)
_register(
    EngineSpec(
        name="cp",
        description="CP-style propagate-and-branch over machine-assignment "
        "variables, bisecting the makespan target (exact; the qa "
        "cross-check oracle)",
        guarantee=lambda req: 1.0,
        solve=_solve_exact("cp"),
        exact=True,
    )
)


def solve_to_result(
    request: "SolveRequest",
    ctx: "SolveContext | None" = None,
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> SolveResult:
    """Solve *request* synchronously through its registered engine.

    The one blocking solve-to-wire-type path, shared by the service's
    worker threads and the journal replay of
    :mod:`repro.store.recovery`: resolve the engine, run it under *ctx*,
    and wrap the schedule in an ``ok`` :class:`SolveResult` carrying the
    engine's declared guarantee.  Engine errors propagate — callers own
    the degrade/abort policy.
    """
    spec = get_engine(request.engine, problem=request.problem)
    instance = request.instance()
    t0 = clock()
    schedule = spec.solve(instance, request, ctx)
    return SolveResult(
        request_id=request.request_id,
        status=STATUS_OK,
        engine=canonical_engine_name(request.engine),
        makespan=schedule.makespan,
        assignment=schedule.assignment,
        guarantee=spec.guarantee(request),
        elapsed=clock() - t0,
    )


def fallback_result(
    request: "SolveRequest", *, degraded: bool = True
) -> SolveResult:
    """The problem-appropriate cheap fallback for *request*: plain LPT
    for ``p_cmax``, speed-scaled LPT for ``q_cmax``, each tagged with
    its own worst-case guarantee.

    This is the one degrade path shared by the server's deadline
    handling, the pooled front-end's dead-worker replacement, and the
    worker processes — so "what do we answer when the real engine
    can't" stays consistent (and problem-correct) everywhere.
    """
    from repro.model.problem import get_problem

    schedule, guarantee = get_problem(request.problem).baseline(
        request.instance()
    )
    return SolveResult(
        request_id=request.request_id,
        status=STATUS_OK,
        engine="lpt",
        makespan=schedule.makespan,
        assignment=schedule.assignment,
        guarantee=guarantee,
        degraded=degraded,
    )


def canonical_engine_name(name: str) -> str:
    """Normalize an engine name (dashes == underscores, case-folded)."""
    return name.strip().lower().replace("-", "_")


def available_engines() -> tuple[str, ...]:
    """The registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str, problem: str | None = None) -> EngineSpec:
    """Resolve *name* to its :class:`EngineSpec`, optionally checking it
    supports *problem*.

    Raises
    ------
    UnknownEngineError
        If the (normalized) name is not registered; the message lists the
        valid names so callers can surface it verbatim.
    UnsupportedProblemError
        If *problem* is given and outside the engine's declared
        ``problems``; the message lists the valid (engine, problem)
        pairs.
    """
    canonical = canonical_engine_name(name)
    spec = _REGISTRY.get(canonical)
    if spec is None:
        raise UnknownEngineError(
            f"unknown engine {name!r}; available: {', '.join(available_engines())}"
        )
    if problem is not None:
        problem = canonical_problem_name(problem)
        if problem not in spec.problems:
            raise UnsupportedProblemError(canonical, problem)
    return spec


def engine_problem_pairs() -> tuple[tuple[str, str], ...]:
    """Every supported (engine, problem) pair, sorted — the capability
    matrix surfaced by ``op=stats`` and the docs."""
    return tuple(
        (name, problem)
        for name in available_engines()
        for problem in _REGISTRY[name].problems
    )
