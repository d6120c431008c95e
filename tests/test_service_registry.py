"""Tests for the solver registry (:mod:`repro.service.registry`)."""

from __future__ import annotations

import pytest

from repro.model.verify import verify_schedule
from repro.service.registry import (
    UnknownEngineError,
    available_engines,
    canonical_engine_name,
    get_engine,
    solve_to_result,
)
from repro.service.requests import SolveRequest, StreamRequest


def _request(engine: str, **kwargs) -> SolveRequest:
    return SolveRequest(
        times=(7, 7, 6, 6, 5, 4, 4, 3), machines=3, engine=engine, **kwargs
    )


class TestLookup:
    def test_required_engines_registered(self):
        names = available_engines()
        for required in ("ptas", "parallel_ptas", "lpt", "ls", "ilp"):
            assert required in names

    def test_dash_and_underscore_equivalent(self):
        assert get_engine("parallel-ptas") is get_engine("parallel_ptas")
        assert canonical_engine_name("Parallel-PTAS") == "parallel_ptas"

    def test_unknown_engine_message_lists_choices(self):
        with pytest.raises(UnknownEngineError, match="ptas"):
            get_engine("nope")

    def test_unknown_is_value_error(self):
        # The CLI and server both catch ValueError-compatible failures.
        with pytest.raises(ValueError):
            get_engine("nope")


class TestCapabilities:
    def test_ptas_family_supports_deadline(self):
        assert get_engine("ptas").supports_deadline
        assert get_engine("parallel_ptas").supports_deadline
        assert get_engine("parallel_ptas").parallelizable

    def test_baselines_do_not_need_deadline(self):
        for name in ("lpt", "ls", "multifit"):
            assert not get_engine(name).supports_deadline

    def test_guarantees(self):
        req = _request("ptas", eps=0.3)
        assert get_engine("ptas").guarantee(req) == pytest.approx(1.3)
        assert get_engine("lpt").guarantee(req) == pytest.approx(4 / 3 - 1 / 9)
        assert get_engine("ls").guarantee(req) == pytest.approx(2 - 1 / 3)
        assert get_engine("ilp").guarantee(req) == 1.0
        assert get_engine("ilp").exact


class TestSolveAdapters:
    @pytest.mark.parametrize(
        "engine", ["ptas", "parallel_ptas", "lpt", "ls", "multifit", "bnb"]
    )
    def test_produces_valid_schedule(self, engine):
        req = _request(engine, workers=2, backend="serial")
        inst = req.instance()
        schedule = get_engine(engine).solve(inst, req, None)
        assert verify_schedule(schedule, inst).ok
        assert schedule.makespan <= get_engine(engine).guarantee(req) * 14 + 1e-9

    def test_ptas_request_rejects_dp_engine_field(self):
        # No wire field may change a ptas answer without entering the
        # cache key, so the removed DP-engine selector is refused.
        wire = {**_request("ptas").to_dict(), "dp_engine": "dominance"}
        with pytest.raises(ValueError, match="dp_engine"):
            SolveRequest.from_dict(wire)
        with pytest.raises(TypeError):
            _request("ptas", dp_engine="dominance")
        stream = {"op": "stream", "action": "open_session", "tenant": "t",
                  "machines": 2, "dp_engine": "dominance"}
        with pytest.raises(ValueError, match="dp_engine"):
            StreamRequest.from_dict(stream)

    def test_ptas_serves_the_table_witness(self):
        from repro.core.ptas import ptas

        req = _request("ptas", eps=0.3)
        inst = req.instance()
        reference = ptas(inst, 0.3, engine="table").schedule
        assert get_engine("ptas").solve(inst, req, None).assignment == (
            reference.assignment
        )

    def test_parallel_ptas_rejects_unknown_backend(self):
        req = _request("parallel_ptas", backend="bogus")
        with pytest.raises(UnknownEngineError, match="bogus"):
            get_engine("parallel_ptas").solve(req.instance(), req, None)


class TestBisectionModes:
    def request(self, **kwargs) -> SolveRequest:
        kwargs.setdefault("workers", 3)
        return SolveRequest(
            times=(9, 8, 7, 6, 5, 5, 4, 3, 2, 1),
            machines=3,
            engine="parallel_ptas",
            backend="serial",
            **kwargs,
        )

    def test_speculative_mode_solves(self):
        request = self.request(mode="speculative")
        result = solve_to_result(request)
        assert result.ok
        report = verify_schedule(result.schedule(request.instance()))
        assert report.ok, report.violations

    def test_speculative_matches_wavefront_guarantee(self):
        wavefront = solve_to_result(self.request(mode="wavefront"))
        speculative = solve_to_result(self.request(mode="speculative"))
        assert wavefront.guarantee == speculative.guarantee
        # Both certify a (1 + eps)-feasible schedule for the same target
        # family; makespans may differ only within the guarantee.
        assert speculative.makespan <= wavefront.guarantee * wavefront.makespan

    def test_auto_mode_solves(self):
        result = solve_to_result(self.request(mode="auto"))
        assert result.ok

    def test_auto_workers_resolve_server_side(self):
        result = solve_to_result(self.request(mode="wavefront", workers="auto"))
        assert result.ok

    def test_unknown_mode_rejected(self):
        with pytest.raises(UnknownEngineError, match="mode"):
            solve_to_result(self.request(mode="bogus"))


class TestProblemVariants:
    def _q_request(self, engine="lpt", **kwargs) -> SolveRequest:
        return SolveRequest(
            times=(37, 21, 18, 95, 42, 7),
            machines=3,
            problem="q_cmax",
            speeds=(4, 2, 1),
            engine=engine,
            **kwargs,
        )

    @pytest.mark.parametrize("engine", ["lpt", "ls"])
    def test_q_solve_to_result(self, engine):
        request = self._q_request(engine)
        result = solve_to_result(request)
        assert result.ok
        inst = request.instance()
        sched = result.schedule(inst)
        assert verify_schedule(sched, inst).ok
        assert isinstance(result.makespan, float)
        spec = get_engine(engine)
        assert result.guarantee == pytest.approx(spec.guarantee(request))
        # Speed-aware trivial lower bound sandwiches the result.
        assert result.makespan <= result.guarantee * inst.trivial_lower_bound() + 1e-9

    def test_q_guarantees_are_speed_aware(self):
        request = self._q_request("lpt")
        # max speed 4, total 7, m=3: list ratio = 1 + 2*4/7; LPT uses
        # the tighter min(2 - 2/(m+1), list ratio) = 1.5 here.
        assert get_engine("ls").guarantee(request) == pytest.approx(1 + 8 / 7)
        assert get_engine("lpt").guarantee(request) == pytest.approx(1.5)

    @pytest.mark.parametrize("problem", ["p_cmax", "q_cmax"])
    def test_fallback_result_is_problem_correct(self, problem):
        if problem == "q_cmax":
            request = self._q_request("ptas")  # engine irrelevant for fallback
        else:
            request = _request("ptas")
        from repro.service.registry import fallback_result

        result = fallback_result(request)
        assert result.ok and result.degraded
        assert result.engine == "lpt"
        inst = request.instance()
        assert verify_schedule(result.schedule(inst), inst).ok

    def test_engine_problem_pairs_matrix(self):
        from repro.service.registry import engine_problem_pairs

        pairs = engine_problem_pairs()
        assert ("lpt", "p_cmax") in pairs
        assert ("lpt", "q_cmax") in pairs
        assert ("ls", "q_cmax") in pairs
        assert ("ptas", "p_cmax") in pairs
        assert ("ptas", "q_cmax") not in pairs
        # Every registered engine appears, sorted by engine name.
        assert [p[0] for p in pairs] == sorted(p[0] for p in pairs)
        assert set(p[0] for p in pairs) == set(available_engines())

    def test_solve_to_result_rejects_unsupported_pair(self):
        # solve_to_result propagates; the server maps this to a typed
        # error response (UnsupportedProblemError is a ValueError).
        with pytest.raises(
            UnknownEngineError, match="does not support problem 'q_cmax'"
        ):
            solve_to_result(self._q_request("ptas"))


class TestSortedErrorMessages:
    """Engine-listing error messages enumerate names in sorted order, so
    the text is stable as engines are added (and diffable in logs)."""

    def test_unknown_engine_lists_sorted_names(self):
        with pytest.raises(UnknownEngineError) as err:
            get_engine("definitely-not-an-engine")
        listed = str(err.value).split("available: ")[1].split(", ")
        assert listed == sorted(listed)
        assert "cp" in listed

    def test_unsupported_problem_lists_sorted_problems(self):
        from repro.service.registry import UnsupportedProblemError

        with pytest.raises(UnsupportedProblemError) as err:
            get_engine("ptas", problem="q_cmax")
        message = str(err.value)
        solves = message.split("it solves: ")[1].split(")")[0].split(", ")
        assert solves == sorted(solves)
        supporting = message.split("supporting 'q_cmax': ")[1].split(", ")
        assert supporting == sorted(supporting)

    def test_exact_api_lists_sorted_methods(self):
        from repro.exact import solve_exact
        from repro.model.instance import Instance

        with pytest.raises(ValueError, match=r"\['bnb', 'brute', 'cp', 'ilp'\]"):
            solve_exact(Instance([1], 1), method="nope")

    def test_ptas_backend_error_lists_sorted_backends(self):
        from repro.core.ptas import BACKENDS, parallel_ptas
        from repro.model.instance import Instance

        with pytest.raises(ValueError) as err:
            parallel_ptas(Instance([1, 2], 1), 0.3, 2, backend="warp")
        assert str(sorted(BACKENDS)) in str(err.value)

    def test_cli_algorithms_listing_is_sorted(self):
        from repro.cli import ALGORITHMS

        assert list(ALGORITHMS) == sorted(ALGORITHMS)
