"""Tests for the :mod:`repro.qa` differential fuzzing subsystem.

The centerpiece is the acceptance test: a scratch engine with a
deliberately planted off-by-one prune rides the fuzzer via
``FuzzConfig.extra_engines``, the cross-engine oracle catches it, and
ddmin shrinks the find to a handful of jobs.  Around it: unit tests for
the reducer, the corpus format, each oracle class on known-good
engines, and the CLI round trip.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.model.instance import Instance
from repro.model.qinstance import QInstance
from repro.model.schedule import Schedule
from repro.qa import (
    FuzzConfig,
    ReproCase,
    cross_engine_violations,
    ddmin,
    draw_case,
    load_repro,
    metamorphic_violations,
    replay_file,
    run_engines,
    run_fuzz,
    service_equivalence_violations,
    shrink_case,
    write_repro,
)
from repro.qa.oracles import fidelity_violations
from repro.service.registry import EngineSpec, available_engines, get_engine

import numpy as np


def _registry_engines(problem: str) -> list[tuple[str, EngineSpec]]:
    return [
        (name, get_engine(name))
        for name in available_engines()
        if problem in get_engine(name).problems and name != "ilp"
    ]


def _buggy_bnb_solve(instance, request, ctx):
    """Exhaustive search with a planted off-by-one prune: branches whose
    load reaches ``best - 1`` are discarded, so an improvement of
    exactly 1 over the LPT incumbent is never found."""
    times = instance.processing_times
    order = sorted(range(instance.num_jobs), key=lambda j: -times[j])
    m = instance.num_machines
    loads = [0] * m
    assign = [0] * instance.num_jobs
    for j in order:
        i = min(range(m), key=lambda k: (loads[k], k))
        loads[i] += times[j]
        assign[j] = i
    best = [max(loads)]
    best_assign = [list(assign)]
    cur = [0] * m
    cur_assign = [0] * instance.num_jobs

    def dfs(pos: int) -> None:
        if pos == len(order):
            if max(cur) < best[0]:
                best[0] = max(cur)
                best_assign[0] = list(cur_assign)
            return
        j = order[pos]
        seen = set()
        for i in range(m):
            if cur[i] in seen:
                continue
            seen.add(cur[i])
            if cur[i] + times[j] >= best[0] - 1:  # BUG: should be >= best[0]
                continue
            cur[i] += times[j]
            cur_assign[j] = i
            dfs(pos + 1)
            cur[i] -= times[j]

    dfs(0)
    machines = [[] for _ in range(m)]
    for j, i in enumerate(best_assign[0]):
        machines[i].append(j)
    return Schedule(instance, [tuple(ms) for ms in machines])


BUGGY_SPEC = EngineSpec(
    name="buggy_bnb",
    description="scratch engine with a planted off-by-one prune",
    guarantee=lambda req: 1.0,
    solve=_buggy_bnb_solve,
    exact=True,
)


def _dominance_ptas_solve(instance, request, ctx):
    """The ``ptas`` adapter as it was before the kernel served it: the
    dominance DP, which certifies the same target but reconstructs its
    own witness."""
    from repro.core.ptas import ptas

    return ptas(instance, request.eps, engine="dominance", ctx=ctx).schedule


DOMINANCE_PTAS_SPEC = dataclasses.replace(
    get_engine("ptas"), solve=_dominance_ptas_solve
)


class TestDdmin:
    def test_minimizes_to_the_failing_pair(self):
        assert ddmin(
            [1, 2, 3, 4, 5, 6], lambda xs: 4 in xs and 2 in xs
        ) == [2, 4]

    def test_single_failing_element(self):
        assert ddmin(list(range(20)), lambda xs: 13 in xs) == [13]

    def test_everything_needed_stays(self):
        items = [1, 2, 3]
        assert ddmin(items, lambda xs: xs == items) == items


class TestReproCase:
    def test_round_trip(self):
        case = ReproCase(
            problem="q_cmax", times=(3, 1, 2), machines=2, speeds=(2, 1)
        )
        again = ReproCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert again == case
        assert again.fingerprint() == case.fingerprint()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown repro-case fields"):
            ReproCase.from_dict({"problem": "p_cmax", "times": [1],
                                 "machines": 1, "bogus": True})

    def test_q_needs_matching_speeds(self):
        with pytest.raises(ValueError, match="one speed per machine"):
            ReproCase(problem="q_cmax", times=(1,), machines=2, speeds=(1,))

    def test_p_forbids_speeds(self):
        with pytest.raises(ValueError, match="does not take speeds"):
            ReproCase(problem="p_cmax", times=(1,), machines=1, speeds=(1,))

    def test_instance_types(self):
        p = ReproCase(problem="p_cmax", times=(1, 2), machines=2)
        q = ReproCase(
            problem="q_cmax", times=(1, 2), machines=2, speeds=(1, 3)
        )
        assert isinstance(p.instance(), Instance)
        assert isinstance(q.instance(), QInstance)


class TestCorpusFiles:
    def test_write_and_load(self, tmp_path):
        case = ReproCase(problem="p_cmax", times=(5, 5, 4), machines=2)
        original = ReproCase(
            problem="p_cmax", times=(5, 5, 4, 1, 1), machines=2
        )
        path = write_repro(
            tmp_path, case, ["something broke"],
            oracle="cross_engine", original=original, seed=7,
        )
        assert path.name == f"qa-cross_engine-{case.fingerprint()}.json"
        record = load_repro(path)
        assert record["case"] == case
        assert record["original"] == original
        assert record["minimized"] is True
        assert record["seed"] == 7

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="is not a"):
            load_repro(path)


class TestShrinkCase:
    def test_shrinks_job_count_and_times(self):
        case = ReproCase(
            problem="p_cmax",
            times=(33, 89, 30, 1, 68, 15, 3, 91),
            machines=3,
        )
        # Failure: "at least two jobs with time >= 50 are present".
        minimized = shrink_case(
            case,
            lambda c: sum(1 for t in c.times if t >= 50) >= 2,
        )
        assert minimized.num_jobs == 2
        assert all(t >= 50 for t in minimized.times)
        assert minimized.machines == 1

    def test_non_reproducing_case_returned_unchanged(self):
        case = ReproCase(problem="p_cmax", times=(1, 2), machines=2)
        assert shrink_case(case, lambda c: False) == case


class TestOracles:
    def test_cross_engine_clean_on_registry(self):
        inst = Instance([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], 3)
        runs = run_engines(_registry_engines("p_cmax"), inst, 0.3)
        assert cross_engine_violations(inst, runs) == []

    def test_cross_engine_clean_on_q(self):
        inst = QInstance([9, 8, 7, 6, 5], (2, 1, 1))
        runs = run_engines(_registry_engines("q_cmax"), inst, 0.3)
        assert cross_engine_violations(inst, runs) == []

    def test_cross_engine_catches_disagreement(self):
        inst = Instance([3, 3, 2, 2, 2], 2)  # OPT 6; buggy engine says 7
        engines = _registry_engines("p_cmax") + [("buggy_bnb", BUGGY_SPEC)]
        runs = run_engines(engines, inst, 0.3)
        violations = cross_engine_violations(inst, runs)
        assert any(v.check == "exact_disagreement" for v in violations)

    def test_metamorphic_clean_on_registry(self):
        inst = Instance([12, 11, 6, 21, 22, 5], 3)
        violations = metamorphic_violations(
            _registry_engines("p_cmax"), inst, 0.3,
            rng=np.random.default_rng(0),
        )
        assert violations == []

    def test_service_equivalence_clean(self):
        inst = Instance([9, 8, 7, 6, 5], 2)
        assert service_equivalence_violations(inst, "lpt", 0.3) == []

    @pytest.mark.parametrize(
        "times, machines",
        [((7, 7, 6, 6, 5, 4, 4, 3), 3), ((9, 8, 7, 6, 5, 5, 4, 3, 2, 1), 3)],
    )
    def test_fidelity_clean_on_registry(self, times, machines):
        inst = Instance(times, machines)
        assert fidelity_violations(_registry_engines("p_cmax"), inst, 0.3) == []

    def test_fidelity_catches_the_dominance_witness(self):
        # Same certified target, another witness: makespan 14 where the
        # table engine reconstructs 15.
        inst = Instance([7, 7, 6, 6, 5, 4, 4, 3], 3)
        violations = fidelity_violations([("ptas", DOMINANCE_PTAS_SPEC)], inst, 0.3)
        assert [(v.oracle, v.check, v.engine) for v in violations] == [
            ("fidelity", "assignment", "ptas")
        ]

    def test_fidelity_skips_q_cmax(self):
        inst = QInstance([9, 8, 7, 6, 5], (2, 1, 1))
        engines = [("ptas", DOMINANCE_PTAS_SPEC)]
        assert fidelity_violations(engines, inst, 0.3) == []


class TestFuzzer:
    def test_draw_case_is_deterministic(self):
        config = FuzzConfig(seed=11, budget=5)
        assert [draw_case(config, i) for i in range(5)] == [
            draw_case(config, i) for i in range(5)
        ]

    def test_clean_run_on_registry_engines(self, tmp_path):
        config = FuzzConfig(
            seed=0, budget=25, corpus_dir=tmp_path, service_every=12
        )
        report = run_fuzz(config)
        assert report.ok, report.summary()
        assert report.cases == 25
        assert not list(tmp_path.iterdir())
        covered = {engine for engine, _ in report.pairs_covered}
        assert {"lpt", "ls", "bnb", "cp", "multifit"} <= covered

    def test_acceptance_off_by_one_is_caught_and_shrunk(self, tmp_path):
        """The issue's acceptance bar: a planted off-by-one in a scratch
        engine is caught by the differential oracle and ddmin shrinks
        the find to at most 6 jobs."""
        config = FuzzConfig(
            seed=0,
            budget=200,
            problem="p_cmax",
            corpus_dir=tmp_path,
            extra_engines={"buggy_bnb": BUGGY_SPEC},
            service=False,
            max_failures=3,
        )
        report = run_fuzz(config)
        assert not report.ok
        for failure in report.failures:
            assert failure.oracle == "cross_engine"
            assert failure.case.num_jobs <= 6
            assert failure.case.num_jobs <= failure.original.num_jobs
            assert failure.path.exists()
            record = load_repro(failure.path)
            assert record["minimized"] is True
            assert any(
                "buggy_bnb" in line for line in record["violations"]
            )

    def test_fuzzer_catches_a_dominance_served_ptas(self, tmp_path, monkeypatch):
        from repro.service import registry

        monkeypatch.setitem(registry._REGISTRY, "ptas", DOMINANCE_PTAS_SPEC)
        config = FuzzConfig(
            seed=0,
            budget=40,
            problem="p_cmax",
            corpus_dir=tmp_path,
            service=False,
            max_failures=1,
        )
        report = run_fuzz(config)
        assert [f.oracle for f in report.failures] == ["fidelity"]
        assert all(v.engine == "ptas" for v in report.failures[0].violations)

    def test_replay_file_clean_after_fix(self, tmp_path):
        """A repro recorded against a scratch engine no longer fails
        once the engine is gone from the registry — replay reports
        clean, the cue to turn the file into a regression test."""
        config = FuzzConfig(
            seed=0,
            budget=200,
            problem="p_cmax",
            corpus_dir=tmp_path,
            extra_engines={"buggy_bnb": BUGGY_SPEC},
            service=False,
            max_failures=1,
        )
        report = run_fuzz(config)
        assert report.failures
        record, violations = replay_file(report.failures[0].path)
        assert record["oracle"] == "cross_engine"
        assert violations == []


class TestCLI:
    def test_fuzz_exit_zero_when_clean(self, tmp_path, capsys):
        code = main([
            "qa", "fuzz", "--seed", "0", "--budget", "10",
            "--corpus", str(tmp_path), "--no-service",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "10 cases" in out
        assert "0 failure(s)" in out

    def test_replay_cli_round_trip(self, tmp_path, capsys):
        case = ReproCase(problem="p_cmax", times=(5, 5, 4), machines=2)
        path = write_repro(
            tmp_path, case, ["planted"], oracle="cross_engine"
        )
        code = main(["qa", "replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out
