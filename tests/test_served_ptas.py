"""Tests for the served ``ptas`` answer (:func:`repro.core.ptas._served_ptas`).

The registry's ``ptas`` engine decides each bisection probe by
first-fit-decreasing before the wavefront kernel, and serves the better
of the certified witness and LPT, solved in canonical coordinates.
These tests pin what it promises: the table engine's certified target,
a makespan within ``min(LPT, (1 + 1/k) * final_target)``, an answer that
depends only on the job multiset, a deadline polled before any work, and
a trace naming what decided each probe.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

import repro
from repro.algorithms.lpt import lpt
from repro.core.context import SolveContext
from repro.core.ptas import _served_ptas, ptas
from repro.core.rounding import accuracy_parameter
from repro.model.instance import Instance
from repro.model.verify import verify_schedule
from repro.obs.trace import Tracer
from repro.service.cache import canonicalize_result
from repro.service.registry import solve_to_result
from repro.service.requests import DeadlineExceeded, SolveRequest


def _traced(instance: Instance, eps: float):
    tracer = Tracer()
    schedule = _served_ptas(instance, eps, SolveContext(tracer=tracer))
    return schedule, tracer


def _random_instances(count: int, seed: int = 0):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 5)
        n = rng.randint(1, 14)
        yield Instance([rng.randint(1, 100) for _ in range(n)], m)


class TestCertifiedWitness:
    @pytest.mark.parametrize("eps", [0.3, 0.2])
    def test_table_target_and_witness_bounds(self, eps):
        k = accuracy_parameter(eps)
        for inst in _random_instances(60, seed=int(eps * 10)):
            schedule, tracer = _traced(inst, eps)
            verify_schedule(schedule, inst).raise_if_failed()
            target = tracer.find("solve")[0].attrs["final_target"]
            assert target == ptas(inst, eps, engine="table").final_target
            assert schedule.makespan <= lpt(inst).makespan
            assert schedule.makespan * k <= (k + 1) * target

    def test_lpt_at_the_lower_bound_is_served_without_a_probe(self):
        inst = Instance([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], 3)  # LPT = LB = 17
        schedule, tracer = _traced(inst, 0.3)
        assert schedule.makespan == 17
        assert tracer.find("probe") == []
        assert tracer.find("solve")[0].attrs["final_target"] == 17

    def test_each_probe_names_its_decider(self):
        # FFD packs the first probe, fails the second (the kernel
        # decides), and the third repeats the second's table.
        inst = Instance([57, 35, 36, 52, 21], 3)
        _, tracer = _traced(inst, 0.3)
        deciders = [p.attrs["decider"] for p in tracer.find("probe")]
        assert deciders == ["ffd", "dp", "reuse"]
        assert tracer.counters["probes_ffd"] == 1
        assert tracer.counters["dp_reuses"] == 1
        assert len(tracer.find("dp")) == 1

    def test_deadline_is_polled_before_any_work(self):
        def hook():
            raise DeadlineExceeded("late")

        # LPT is optimal here, so no probe would ever poll the hook.
        inst = Instance([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], 3)
        with pytest.raises(DeadlineExceeded):
            _served_ptas(inst, 0.3, SolveContext(check_deadline=hook))


class TestRegressions:
    def test_every_job_order_gets_one_answer(self):
        # The example of times (92, 87, 94) on two machines: the table
        # witness has makespan 181 in three orders and 179 in the others.
        answers = set()
        for times in itertools.permutations((92, 87, 94)):
            result = repro.solve(Instance(times, 2), engine="ptas")
            request = SolveRequest(times=times, machines=2, engine="ptas")
            answers.add(canonicalize_result(request, result).to_json())
        assert len(answers) == 1
        assert '"makespan":179' in answers.pop()

    def test_small_eps_request_is_answered_undegraded(self):
        # Sixty jobs on five machines at eps 0.05: the table witness
        # would need tables of ~1.6e11 states, and configuration
        # enumeration alone exhausted a 3 GB memory cap.
        request = SolveRequest(
            times=tuple(((i * 37) % 97) + 3 for i in range(60)),
            machines=5,
            engine="ptas",
            eps=0.05,
        )
        t0 = time.monotonic()
        result = solve_to_result(request)
        assert time.monotonic() - t0 < 5.0
        assert result.ok and not result.degraded
        assert result.engine == "ptas"
        inst = request.instance()
        schedule = result.schedule(inst)
        verify_schedule(schedule, inst).raise_if_failed()
        assert schedule.makespan <= lpt(inst).makespan
