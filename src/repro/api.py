"""The ``repro.solve`` facade — the one blessed entry point.

Every solver in the library can be reached three ways: its own function
(:func:`repro.ptas`, :func:`repro.lpt`, …), the service wire path
(:class:`repro.service.SolveRequest`), and this facade.  The facade is
the documented, stable surface: it takes a validated instance of *any*
supported problem variant (:class:`repro.model.Instance` for
``P || Cmax``, :class:`repro.model.QInstance` for ``Q || Cmax``),
resolves the engine through the same registry the service uses —
including its per-problem capability checks — and returns the same
:class:`repro.service.SolveResult` the service would have answered with
(makespan, assignment, a-priori guarantee, elapsed time).

Cross-cutting concerns (deadline hooks, warm starts, tracing, metrics,
shared executors) travel in a single optional
:class:`repro.core.context.SolveContext`, here and on every solver
function (``ctx=``); no solver takes them as separate keyword arguments.

>>> import repro
>>> result = repro.solve(repro.Instance([4, 3, 3, 2], 2), engine="lpt")
>>> result.makespan
6
>>> q = repro.solve(repro.QInstance([6, 4, 3, 2], speeds=(3, 1)), engine="lpt")
>>> q.makespan
4.0
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.model.instance import Instance
from repro.model.problem import problem_of_instance
from repro.model.qinstance import QInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import SolveContext
    from repro.service.requests import SolveResult

__all__ = ["solve"]


def solve(
    instance: Instance | QInstance,
    engine: str = "ptas",
    *,
    eps: float = 0.3,
    ctx: "SolveContext | None" = None,
    workers: int | str = 1,
    backend: str = "numpy-serial",
    mode: str = "wavefront",
    time_limit: float | None = None,
    request_id: str = "",
) -> "SolveResult":
    """Solve *instance* with the registry engine named *engine*.

    Parameters
    ----------
    instance:
        A validated :class:`~repro.model.Instance` (``p_cmax``) or
        :class:`~repro.model.QInstance` (``q_cmax``); the problem
        variant is inferred from the type.
    engine:
        Registry engine name (:func:`repro.service.available_engines`).
        The (engine, problem) pair is capability-checked:
        :class:`repro.service.UnsupportedProblemError` lists the valid
        pairs when the engine cannot solve the instance's variant.
    eps:
        Relative error for the PTAS engines (ignored by baselines).
    ctx:
        Optional :class:`~repro.core.context.SolveContext` carrying
        deadline hook, warm-start policy, tracer, metrics, executor.
    workers / backend / mode / time_limit:
        Engine tuning knobs, identical to their
        :class:`~repro.service.SolveRequest` fields.
    request_id:
        Echoed in the result (useful when feeding results into the
        service's cache/store tooling).

    Returns
    -------
    SolveResult
        ``status="ok"`` with makespan (int for ``p_cmax``, float for
        ``q_cmax``), assignment, and the engine's a-priori guarantee.
        Use :meth:`~repro.service.SolveResult.schedule` to reconstruct
        the validated schedule object.

    Raises
    ------
    repro.service.UnknownEngineError
        Unknown engine name (message lists valid names).
    repro.service.UnsupportedProblemError
        Known engine, unsupported problem variant (message lists valid
        pairs).
    """
    # Imported lazily: `repro.solve` must not drag the whole service
    # stack in at `import repro` time.
    from repro.service.registry import solve_to_result
    from repro.service.requests import SolveRequest

    problem = problem_of_instance(instance)
    speeds = instance.speeds if isinstance(instance, QInstance) else ()
    request = SolveRequest(
        times=instance.processing_times,
        machines=instance.num_machines,
        problem=problem,
        speeds=speeds,
        engine=engine,
        eps=eps,
        workers=workers,
        backend=backend,
        mode=mode,
        time_limit=time_limit,
        request_id=request_id,
    )
    return solve_to_result(request, ctx)
