"""Tests for the service wire types (:mod:`repro.service.requests`)."""

from __future__ import annotations

import pytest

from repro.model.instance import Instance
from repro.model.qinstance import QInstance, QSchedule
from repro.service.requests import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    DeadlineExceeded,
    SolveRequest,
    SolveResult,
    StreamRequest,
    deadline_checker,
)


class TestSolveRequest:
    def test_round_trip_json(self):
        req = SolveRequest(
            times=(5, 4, 3),
            machines=2,
            engine="parallel_ptas",
            eps=0.25,
            deadline=1.5,
            workers=8,
            backend="thread",
            request_id="abc",
        )
        again = SolveRequest.from_json(req.to_json())
        assert again == req

    def test_instance_validation(self):
        req = SolveRequest(times=(5, 4, 3), machines=2)
        inst = req.instance()
        assert inst == Instance((5, 4, 3), 2)
        bad = SolveRequest(times=(0,), machines=1)
        with pytest.raises(ValueError):
            bad.instance()

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="machines"):
            SolveRequest.from_json('{"times": [1, 2]}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            SolveRequest.from_json('{"times": [1], "machines": 1, "bogus": 2}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            SolveRequest.from_json("{not json")

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            SolveRequest(times=(1,), machines=1, deadline=-1.0)

    def test_non_positive_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            SolveRequest(times=(1,), machines=1, eps=0.0)


class TestProtocolVersioning:
    def test_constants(self):
        assert PROTOCOL_VERSION == 2
        assert SUPPORTED_PROTOCOLS == (1, 2)

    def test_wire_request_without_protocol_is_v1(self):
        req = SolveRequest.from_json('{"times": [5, 4], "machines": 2}')
        assert req.protocol == 1
        assert req.problem == "p_cmax"

    def test_internal_constructor_defaults_to_current(self):
        assert SolveRequest(times=(1,), machines=1).protocol == PROTOCOL_VERSION

    def test_v2_q_round_trip(self):
        req = SolveRequest(
            times=(6, 4, 3, 2),
            machines=2,
            problem="q_cmax",
            speeds=(3, 1),
            engine="lpt",
            request_id="q1",
        )
        again = SolveRequest.from_json(req.to_json())
        assert again == req
        assert again.protocol == 2
        inst = again.instance()
        assert isinstance(inst, QInstance)
        assert inst.speeds == (3, 1)

    def test_v1_round_trip_unchanged(self):
        payload = '{"times": [5, 4, 3], "machines": 2, "engine": "ptas"}'
        req = SolveRequest.from_json(payload)
        again = SolveRequest.from_json(req.to_json())
        assert again == req
        assert isinstance(req.instance(), Instance)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="supports versions 1, 2"):
            SolveRequest.from_json(
                '{"times": [1], "machines": 1, "protocol": 3}'
            )

    def test_problem_field_requires_v2(self):
        with pytest.raises(ValueError, match="protocol version 2"):
            SolveRequest.from_json(
                '{"times": [1], "machines": 1, "problem": "q_cmax", "speeds": [1]}'
            )

    def test_q_requires_speeds_matching_machines(self):
        with pytest.raises(ValueError):
            SolveRequest(times=(1,), machines=2, problem="q_cmax", speeds=(1,))
        with pytest.raises(ValueError):
            SolveRequest(times=(1,), machines=1, problem="q_cmax")

    def test_p_forbids_speeds(self):
        with pytest.raises(ValueError, match="speeds"):
            SolveRequest(times=(1,), machines=1, speeds=(1,))

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="r_cmax"):
            SolveRequest(times=(1,), machines=1, problem="r_cmax")

    def test_stream_request_versioning(self):
        req = StreamRequest.from_dict(
            {"op": "stream", "action": "open_session", "tenant": "t", "machines": 2}
        )
        assert req.protocol == 1
        assert req.problem == "p_cmax"
        with pytest.raises(ValueError, match="protocol"):
            StreamRequest.from_dict(
                {
                    "op": "stream",
                    "action": "open_session",
                    "tenant": "t",
                    "machines": 2,
                    "protocol": 99,
                }
            )

    def test_q_result_schedule_dispatches(self):
        req = SolveRequest(
            times=(6, 4, 3, 2),
            machines=2,
            problem="q_cmax",
            speeds=(3, 1),
            engine="lpt",
        )
        result = SolveResult(
            request_id="", makespan=4.0, assignment=((0, 1, 3), (2,)), engine="lpt"
        )
        sched = result.schedule(req.instance())
        assert isinstance(sched, QSchedule)
        assert sched.makespan == 4.0


class TestSolveResult:
    def test_round_trip_json(self):
        res = SolveResult(
            request_id="r1",
            status="ok",
            engine="ptas",
            makespan=14,
            assignment=((0, 1), (2,)),
            guarantee=1.3,
            elapsed=0.01,
        )
        again = SolveResult.from_json(res.to_json())
        assert again == res

    def test_schedule_reconstruction_validates(self):
        inst = Instance((5, 4, 3), 2)
        res = SolveResult(
            status="ok", makespan=8, assignment=((0, 2), (1,)), engine="lpt"
        )
        sched = res.schedule(inst)
        assert sched.makespan == 8
        with pytest.raises(ValueError):
            SolveResult(status="rejected").schedule(inst)

    def test_rejected_round_trip(self):
        res = SolveResult(status="rejected", retry_after=0.5, error="queue full")
        again = SolveResult.from_json(res.to_json())
        assert again.retry_after == 0.5
        assert not again.ok


def _asdict_json(obj, *lists: str) -> str:
    """The wire line as ``dataclasses.asdict`` built it, with the named
    fields turned into (nested) lists — the encoding ``to_json`` pins."""
    import json
    from dataclasses import asdict

    d = asdict(obj)
    for name in lists:
        value = getattr(obj, name)
        if value is not None:
            d[name] = (
                [list(grp) for grp in value] if name == "assignment" else list(value)
            )
    return json.dumps(d, separators=(",", ":"))


class TestWireEncodingPinned:
    """``to_json`` builds its dict field by field instead of through
    ``asdict``; the bytes on the wire must not change."""

    @pytest.mark.parametrize(
        "result",
        [
            SolveResult(
                request_id="r1", engine="parallel_ptas", makespan=14,
                assignment=((0, 1), (2,), ()), guarantee=1.3, elapsed=0.01,
                cached=True,
            ),
            SolveResult(
                request_id="r2", engine="lpt", makespan=9,
                assignment=((2, 0), (1,)), guarantee=4 / 3 - 1 / 6,
                degraded=True, elapsed=0.25,
            ),
            SolveResult(status="rejected", retry_after=0.5, error="queue full"),
            SolveResult(
                request_id="r3", status="error", engine="ptas",
                error="bad request: eps must be positive",
            ),
            SolveResult(
                request_id="q", engine="q_lpt", makespan=17 / 3,
                assignment=((0,), (1, 2)), guarantee=1.5, elapsed=0.002,
            ),
        ],
        ids=["ok", "degraded", "rejected", "error", "q_cmax"],
    )
    def test_result_bytes_match_asdict(self, result):
        assert result.to_json() == _asdict_json(result, "assignment")
        assert SolveResult.from_json(result.to_json()) == result

    @pytest.mark.parametrize(
        "request_",
        [
            SolveRequest(times=(5, 4, 3), machines=2, request_id="a"),
            SolveRequest(
                times=(7, 7, 6), machines=3, problem="q_cmax", speeds=(1, 2, 4),
                engine="q_lpt", deadline=0.5, workers="auto", time_limit=2.0,
            ),
            SolveRequest(
                times=(9, 1), machines=2, protocol=1, engine="parallel_ptas",
                eps=0.1, backend="numpy-serial",
            ),
        ],
        ids=["p_cmax", "q_cmax_speeds", "v1"],
    )
    def test_request_bytes_match_asdict(self, request_):
        assert request_.to_json() == _asdict_json(request_, "times")
        assert SolveRequest.from_json(request_.to_json()) == request_


class TestDeadlineChecker:
    def test_passes_before_and_raises_after(self):
        now = [0.0]
        check = deadline_checker(1.0, clock=lambda: now[0])
        check()  # t=0, fine
        now[0] = 0.999
        check()
        now[0] = 1.001
        with pytest.raises(DeadlineExceeded):
            check()


class TestWorkersAndMode:
    def test_auto_workers_accepted(self):
        req = SolveRequest(times=(3, 2, 1), machines=2, workers="auto")
        assert req.workers == "auto"

    def test_auto_workers_round_trips(self):
        req = SolveRequest(times=(3, 2, 1), machines=2, workers="auto")
        back = SolveRequest.from_json(req.to_json())
        assert back.workers == "auto"

    def test_mode_field_is_rejected(self):
        # The bisection-mode selector is gone: one bisection serves every
        # answer, so no request may carry it.
        line = '{"times": [3, 2, 1], "machines": 2, "mode": "wavefront"}'
        with pytest.raises(ValueError, match="mode"):
            SolveRequest.from_dict({"times": [3, 2, 1], "machines": 2, "mode": "auto"})
        with pytest.raises(ValueError, match="mode"):
            SolveRequest.from_json(line)
        with pytest.raises(TypeError):
            SolveRequest(times=(3, 2, 1), machines=2, mode="wavefront")

    def test_rejects_non_auto_worker_strings(self):
        with pytest.raises(ValueError, match="auto"):
            SolveRequest(times=(1,), machines=1, workers="many")

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match=">= 1"):
            SolveRequest(times=(1,), machines=1, workers=0)
