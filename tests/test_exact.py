"""Tests for the exact solvers (:mod:`repro.exact`) — the CPLEX stand-ins."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.exact.api import solve_exact
from repro.exact.branch_and_bound import branch_and_bound
from repro.exact.brute import brute_force
from repro.exact.ilp import ilp_solve
from repro.model.instance import Instance

from conftest import small_instances


class TestBruteForce:
    def test_known_optimum(self):
        assert brute_force(Instance([5, 4, 3, 3, 3], 2)).makespan == 9

    def test_single_machine(self):
        assert brute_force(Instance([1, 2, 3], 1)).makespan == 6

    def test_one_job(self):
        assert brute_force(Instance([42], 5)).makespan == 42

    def test_perfect_split(self):
        assert brute_force(Instance([3, 3, 3, 3], 2)).makespan == 6

    def test_respects_job_limit(self):
        with pytest.raises(ValueError, match="limited"):
            brute_force(Instance([1] * 25, 2))

    def test_returns_valid_schedule(self):
        sched = brute_force(Instance([7, 5, 4, 4, 2], 3))
        assert sched.is_valid()

    def test_lower_bound_attained_when_divisible(self):
        inst = Instance([2, 2, 2, 2, 2, 2], 3)
        assert brute_force(inst).makespan == 4


class TestBranchAndBound:
    def test_matches_brute(self):
        inst = Instance([9, 7, 6, 5, 4, 3, 2], 3)
        assert branch_and_bound(inst).makespan == brute_force(inst).makespan

    def test_reports_optimal(self):
        res = branch_and_bound(Instance([5, 4, 3, 3, 3], 2))
        assert res.optimal
        assert res.makespan == 9
        assert res.lower_bound <= res.makespan

    def test_lpt_optimal_shortcut(self):
        """When LPT hits the lower bound, zero nodes are explored."""
        inst = Instance([4, 4, 4, 4], 2)
        res = branch_and_bound(inst)
        assert res.optimal
        assert res.nodes_explored == 0

    def test_budget_exhaustion_returns_incumbent(self):
        inst = Instance([13, 11, 9, 8, 7, 7, 6, 5, 4, 3, 3, 2], 4)
        res = branch_and_bound(inst, node_budget=1)
        assert res.schedule.is_valid()
        # With one node the incumbent is LPT's schedule (or proven optimal).
        from repro.algorithms.lpt import lpt

        assert res.makespan <= lpt(inst).makespan

    def test_handles_larger_instance(self):
        inst = Instance(list(range(1, 21)), 4)  # 20 jobs
        res = branch_and_bound(inst)
        assert res.optimal
        assert res.makespan == 53  # total 210 / 4 = 52.5 -> 53

    @given(small_instances())
    @settings(max_examples=50)
    def test_property_matches_brute(self, inst: Instance):
        assert branch_and_bound(inst).makespan == brute_force(inst).makespan


class TestILP:
    def test_matches_brute(self):
        inst = Instance([9, 7, 6, 5, 4, 3, 2], 3)
        res = ilp_solve(inst)
        assert res.optimal
        assert res.makespan == brute_force(inst).makespan

    def test_schedule_valid(self):
        res = ilp_solve(Instance([5, 4, 3, 3, 3], 2))
        assert res.schedule.is_valid()
        assert res.makespan == 9

    def test_objective_matches_makespan(self):
        res = ilp_solve(Instance([6, 5, 4], 2))
        assert res.objective == pytest.approx(res.makespan)

    def test_without_symmetry_breaking(self):
        inst = Instance([8, 7, 6, 5], 2)
        a = ilp_solve(inst, symmetry_breaking=True)
        b = ilp_solve(inst, symmetry_breaking=False)
        assert a.makespan == b.makespan == 13

    def test_single_machine(self):
        assert ilp_solve(Instance([3, 4], 1)).makespan == 7

    @given(small_instances(max_jobs=8, max_machines=3, max_time=15))
    @settings(max_examples=25)
    def test_property_matches_brute(self, inst: Instance):
        res = ilp_solve(inst)
        assert res.optimal
        assert res.makespan == brute_force(inst).makespan


class TestSolveExactAPI:
    @pytest.mark.parametrize("method", ["ilp", "bnb", "brute"])
    def test_all_methods_agree(self, method):
        inst = Instance([9, 8, 5, 4, 3, 2], 3)  # total 31 -> LB ceil(31/3)=11
        res = solve_exact(inst, method)
        assert res.makespan == 11
        assert res.optimal
        assert res.method == method

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown exact method"):
            solve_exact(Instance([1], 1), "sat")

    def test_default_is_ilp(self):
        res = solve_exact(Instance([2, 2], 2))
        assert res.method == "ilp"


class TestScipyImportIsLazy:
    """Only the ``ilp`` engine needs scipy (~0.65 s and ~540 modules to
    import), so importing the package, the CLI or the pool worker must
    not load it."""

    @pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.service.worker"])
    def test_fresh_import_leaves_scipy_out(self, module):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"
