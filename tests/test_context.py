"""Tests for :mod:`repro.core.context`: the unified SolveContext API,
the removal of the legacy kwargs it replaced, and the service's context
construction."""

from __future__ import annotations

import pytest

from repro.core import SolveContext, parallel_ptas, ptas
from repro.core.bisection import bisect_target_makespan
from repro.core.dp import solve
from repro.model.instance import Instance
from repro.obs import NULL_TRACER, Tracer
from repro.service.registry import build_solve_context, get_engine
from repro.service.requests import DeadlineExceeded, SolveRequest

INSTANCE = Instance([7, 7, 6, 6, 5, 4, 4, 3, 9, 2], num_machines=3)


def _standard_solver(problem, m):
    return solve(problem, "dominance", limit=m, track_schedule=True)


class TestSolveContext:
    def test_defaults(self):
        ctx = SolveContext()
        assert ctx.check_deadline is None
        assert ctx.warm_start is True
        assert ctx.tracer is NULL_TRACER
        assert ctx.metrics is None
        assert ctx.executor is None

    def test_check_without_deadline_is_noop(self):
        SolveContext().check()  # must not raise

    def test_check_invokes_hook(self):
        calls = []
        SolveContext(check_deadline=lambda: calls.append(1)).check()
        assert calls == [1]

    def test_check_propagates_exception(self):
        def boom():
            raise DeadlineExceeded("late")

        with pytest.raises(DeadlineExceeded):
            SolveContext(check_deadline=boom).check()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolveContext().warm_start = False  # type: ignore[misc]

    def test_span_and_count_delegate_to_tracer(self):
        tracer = Tracer()
        ctx = SolveContext(tracer=tracer)
        with ctx.span("probe", target=1):
            ctx.count("probes")
        assert tracer.counters == {"probes": 1}
        assert [s.kind for s in tracer.walk()] == ["probe"]


class TestDeprecationShims:
    """The legacy ``warm_start=`` / ``check_deadline=`` kwargs are gone:
    passing one fails, and ctx-only calls and every internal path run
    without a DeprecationWarning."""

    @pytest.mark.parametrize("kwarg", ["warm_start", "check_deadline"])
    def test_removed_kwargs_are_rejected(self, kwarg):
        value = False if kwarg == "warm_start" else (lambda: None)
        with pytest.raises(TypeError, match=kwarg):
            ptas(INSTANCE, 0.3, **{kwarg: value})
        with pytest.raises(TypeError, match=kwarg):
            parallel_ptas(INSTANCE, 0.3, 2, backend="numpy-serial", **{kwarg: value})
        with pytest.raises(TypeError, match=kwarg):
            bisect_target_makespan(INSTANCE, 4, _standard_solver, **{kwarg: value})

    def test_ctx_only_calls_do_not_warn(self, recwarn):
        ptas(INSTANCE, 0.3, ctx=SolveContext(warm_start=False))
        parallel_ptas(
            INSTANCE, 0.3, 2, backend="numpy-serial", ctx=SolveContext()
        )
        bisect_target_makespan(INSTANCE, 4, _standard_solver, ctx=SolveContext())
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

    def test_no_internal_path_uses_the_shims(self):
        """Deprecation sweep acceptance: every internal caller passes
        ``ctx=``, so the full spread of entry points — the facade, the
        registry, a deadline-bearing service-style solve — runs clean
        with DeprecationWarning escalated to an error."""
        import warnings

        import repro
        from repro.service.registry import build_solve_context, solve_to_result
        from repro.service.requests import SolveRequest

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.solve(INSTANCE, engine="ptas")
            repro.solve(
                repro.QInstance(INSTANCE.processing_times, speeds=(1,) * INSTANCE.num_machines),
                engine="lpt",
            )
            request = SolveRequest(
                times=INSTANCE.processing_times,
                machines=INSTANCE.num_machines,
                engine="parallel_ptas",
                backend="numpy-serial",
                deadline=30.0,
            )
            ctx = build_solve_context(request, deadline_at=None)
            solve_to_result(request, ctx)


class TestContextEquivalence:
    def test_bisect_default_stays_faithful(self):
        """The standalone bisection still defaults to the paper-faithful
        (no warm start) search when no context is given."""
        plain = bisect_target_makespan(INSTANCE, 4, _standard_solver)
        faithful = bisect_target_makespan(
            INSTANCE, 4, _standard_solver, ctx=SolveContext(warm_start=False)
        )
        assert plain.rounding_reuses == 0
        assert [i.target for i in plain.iterations] == [
            i.target for i in faithful.iterations
        ]

    def test_deadline_cancels_via_ctx(self):
        calls = {"n": 0}

        def hook():
            calls["n"] += 1
            raise DeadlineExceeded("over budget")

        with pytest.raises(DeadlineExceeded):
            ptas(INSTANCE, 0.1, ctx=SolveContext(check_deadline=hook))
        assert calls["n"] == 1


class TestBuildSolveContext:
    def _request(self, **kw) -> SolveRequest:
        return SolveRequest(
            times=INSTANCE.processing_times,
            machines=INSTANCE.num_machines,
            engine=kw.pop("engine", "ptas"),
            **kw,
        )

    def test_no_deadline(self):
        ctx = build_solve_context(self._request())
        assert ctx.check_deadline is None
        assert ctx.tracer is NULL_TRACER
        assert ctx.metrics is None

    def test_deadline_checker_fires_on_fake_clock(self):
        now = {"t": 0.0}
        ctx = build_solve_context(
            self._request(), deadline_at=10.0, clock=lambda: now["t"]
        )
        ctx.check()  # before the deadline: fine
        now["t"] = 11.0
        with pytest.raises(DeadlineExceeded):
            ctx.check()

    def test_tracer_and_metrics_are_carried(self):
        tracer = Tracer()
        metrics = object()
        ctx = build_solve_context(self._request(), tracer=tracer, metrics=metrics)
        assert ctx.tracer is tracer
        assert ctx.metrics is metrics


class TestAdapterCoercion:
    def test_adapters_accept_context(self):
        spec = get_engine("ptas")
        request = SolveRequest(
            times=INSTANCE.processing_times,
            machines=INSTANCE.num_machines,
            engine="ptas",
        )
        tracer = Tracer()
        schedule = spec.solve(INSTANCE, request, SolveContext(tracer=tracer))
        assert schedule.makespan >= 1
        assert tracer.find("solve")

    def test_adapters_accept_none(self, recwarn):
        spec = get_engine("parallel_ptas")
        request = SolveRequest(
            times=INSTANCE.processing_times,
            machines=INSTANCE.num_machines,
            engine="parallel_ptas",
            backend="numpy-serial",
            workers=2,
        )
        assert spec.solve(INSTANCE, request, None).makespan >= 1
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

