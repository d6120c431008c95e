"""Tests for speculative multi-probe bisection (:mod:`repro.core.speculative`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bisection import bisect_target_makespan
from repro.core.dp import DPProblem, DPResult, solve
from repro.core.rounding import round_instance
from repro.core.speculative import count_rounds, probe_targets, speculative_bisect
from repro.exact.brute import brute_force
from repro.model.instance import Instance

from conftest import small_instances


def solver(problem: DPProblem, m: int) -> DPResult:
    return solve(problem, "numpy", limit=m)


class TestProbeTargets:
    def test_three_way_split(self):
        assert probe_targets(0, 8, 3) == [2, 4, 6]

    def test_midpoint_for_branching_one(self):
        assert probe_targets(10, 20, 1) == [15]

    def test_narrow_interval(self):
        assert probe_targets(10, 12, 3) == [10, 11]

    def test_empty_interval(self):
        assert probe_targets(5, 5, 3) == []

    def test_targets_strictly_below_upper(self):
        for lo, hi, g in [(0, 100, 7), (3, 4, 2), (50, 53, 5)]:
            for t in probe_targets(lo, hi, g):
                assert lo <= t < hi

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            probe_targets(0, 10, 0)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=8),
    )
    def test_property_targets_sorted_distinct_in_range(self, lo, width, g):
        hi = lo + width
        targets = probe_targets(lo, hi, g)
        assert targets == sorted(set(targets))
        assert all(lo <= t < hi for t in targets)
        assert len(targets) <= g


class TestSpeculativeBisect:
    @pytest.mark.parametrize("branching", [1, 2, 3, 5])
    def test_same_target_as_standard(self, small_instance, branching):
        standard = bisect_target_makespan(small_instance, 4, solver)
        spec = speculative_bisect(small_instance, 4, solver, branching=branching)
        assert spec.final_target == standard.final_target

    def test_fewer_rounds_with_more_branching(self):
        # A wide interval (large max t) so the round count matters.
        inst = Instance([97, 83, 51, 42, 38, 21, 13, 8, 5, 3], num_machines=3)
        narrow = speculative_bisect(inst, 4, solver, branching=1)
        wide = speculative_bisect(inst, 4, solver, branching=5)
        assert count_rounds(wide, 5) <= count_rounds(narrow, 1)

    def test_branching_one_probe_count_matches_standard(self, small_instance):
        standard = bisect_target_makespan(small_instance, 4, solver)
        spec = speculative_bisect(small_instance, 4, solver, branching=1)
        assert len(spec.iterations) == len(standard.iterations)

    def test_trace_is_complete(self, small_instance):
        spec = speculative_bisect(small_instance, 4, solver, branching=3)
        assert spec.iterations
        # The final entry's target equals the certified target.
        feasible_targets = [it.target for it in spec.iterations if it.feasible]
        assert spec.final_target == min(feasible_targets)

    @given(small_instances(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40)
    def test_property_equivalent_to_standard(self, inst, branching):
        """As valid as the standard search: a DP-feasible target no
        larger than OPT.  Rounded feasibility is not monotone in ``T``,
        so with several probes per round the two searches may certify
        different targets."""
        spec = speculative_bisect(inst, 3, solver, branching=branching)
        target = spec.final_target
        rounded = round_instance(inst, target, 3)
        problem = DPProblem(rounded.class_sizes, rounded.class_counts, target)
        reference = solve(problem, "table", limit=inst.num_machines)
        assert reference.opt is not None
        assert spec.dp_result.opt == reference.opt
        assert target <= brute_force(inst).makespan


class TestSimulatedStudy:
    def make_study(self, branching: int = 4, workers: int = 16):
        from repro.core.speculative import simulate_speculative_ptas

        inst = Instance([97, 83, 51, 42, 38, 21, 13, 8, 5, 3], num_machines=3)
        return simulate_speculative_ptas(inst, 0.3, workers, branching)

    def test_same_answer_both_strategies(self):
        study = self.make_study()
        assert study.final_target == study.standard_final_target

    def test_rounds_fewer_than_probes(self):
        study = self.make_study(branching=4)
        assert study.speculative_rounds <= study.standard_probes

    def test_speedups_positive(self):
        study = self.make_study()
        assert study.standard_speedup > 0
        assert study.speculative_speedup > 0

    def test_branching_one_close_to_standard(self):
        """g=1 uses the same probes on the same machine size, so the two
        strategies cost the same."""
        study = self.make_study(branching=1, workers=8)
        assert study.speculative_parallel_ops == pytest.approx(
            study.standard_parallel_ops, rel=0.01
        )

    def test_rejects_more_probes_than_workers(self):
        from repro.core.speculative import simulate_speculative_ptas

        inst = Instance([5, 4, 3], num_machines=2)
        with pytest.raises(ValueError, match="processor per concurrent probe"):
            simulate_speculative_ptas(inst, 0.3, 2, 4)


class TestConcurrentProbes:
    """A round's probes are accounted for as wins and waste."""

    def test_win_waste_counters_recorded(self):
        from repro.core.context import SolveContext
        from repro.service.metrics import MetricsRegistry

        inst = Instance([97, 83, 51, 42, 38, 21, 13, 8, 5, 3], num_machines=3)
        registry = MetricsRegistry()
        ctx = SolveContext(warm_start=False, metrics=registry)
        outcome = speculative_bisect(inst, 4, solver, branching=3, ctx=ctx)
        counters = registry.snapshot()["counters"]
        assert counters["speculative.rounds"] >= 1
        assert counters["speculative.probes"] >= len(outcome.iterations) - 1
        wins = counters.get("speculative.probe_wins", 0)
        waste = counters.get("speculative.probe_waste", 0)
        assert wins + waste == counters["speculative.probes"]
