"""Tests for LS, LPT and MULTIFIT (:mod:`repro.algorithms`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algorithms.list_scheduling import (
    list_scheduling,
    list_scheduling_worst_case_ratio,
)
from repro.algorithms.lpt import lpt, lpt_worst_case_ratio
from repro.algorithms.multifit import ffd_pack, multifit, multifit_worst_case_ratio
from repro.exact.brute import brute_force
from repro.model.instance import Instance
from repro.workloads.generator import lpt_worst_case_exact

from conftest import small_instances


class TestListScheduling:
    def test_input_order(self):
        inst = Instance([2, 3, 4, 6], num_machines=2)
        assert list_scheduling(inst).machine_loads == (6, 9)

    def test_custom_order(self):
        inst = Instance([2, 3, 4, 6], num_machines=2)
        sched = list_scheduling(inst, order=[3, 2, 1, 0])
        assert sched.makespan == 8  # LPT order

    def test_rejects_bad_order(self):
        inst = Instance([1, 2], num_machines=1)
        with pytest.raises(ValueError, match="permutation"):
            list_scheduling(inst, order=[0, 0])

    def test_single_machine(self):
        inst = Instance([1, 2, 3], num_machines=1)
        assert list_scheduling(inst).makespan == 6

    def test_graham_adversarial(self):
        """The classic LS bad case: many small jobs then one big one."""
        m = 4
        inst = Instance([1] * (m * (m - 1)) + [m], num_machines=m)
        sched = list_scheduling(inst)
        assert sched.makespan == 2 * m - 1  # vs optimal m
        assert brute_force(Instance([1] * 6 + [3], 3)).makespan == 3

    def test_worst_case_ratio_formula(self):
        assert list_scheduling_worst_case_ratio(4) == pytest.approx(1.75)
        with pytest.raises(ValueError):
            list_scheduling_worst_case_ratio(0)

    @given(small_instances())
    @settings(max_examples=60)
    def test_property_two_approximation(self, inst: Instance):
        opt = brute_force(inst).makespan
        ratio = list_scheduling(inst).makespan / opt
        assert ratio <= 2.0 - 1.0 / inst.num_machines + 1e-9


class TestLPT:
    def test_simple(self):
        inst = Instance([2, 3, 4, 6], num_machines=2)
        assert lpt(inst).makespan == 8

    def test_beats_or_ties_ls_usually(self):
        inst = Instance([1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4], 4)
        assert lpt(inst).makespan <= list_scheduling(inst).makespan

    def test_graham_tight_example(self):
        """LPT = 4m-1 vs OPT = 3m on the classical worst case."""
        for m in (2, 3, 4):
            inst = lpt_worst_case_exact(m)
            assert lpt(inst).makespan == 4 * m - 1
            ratio = (4 * m - 1) / (3 * m)
            assert ratio == pytest.approx(lpt_worst_case_ratio(m))

    def test_worst_case_ratio_formula(self):
        assert lpt_worst_case_ratio(1) == pytest.approx(1.0)
        assert lpt_worst_case_ratio(2) == pytest.approx(4 / 3 - 1 / 6)

    @given(small_instances())
    @settings(max_examples=60)
    def test_property_four_thirds_approximation(self, inst: Instance):
        opt = brute_force(inst).makespan
        ratio = lpt(inst).makespan / opt
        assert ratio <= 4 / 3 - 1 / (3 * inst.num_machines) + 1e-9


class TestFFD:
    def test_packs_within_capacity(self):
        inst = Instance([6, 4, 3, 2], num_machines=2)
        bins = ffd_pack(inst.processing_times, 8, inst.num_machines)
        assert bins is not None
        t = inst.processing_times
        for b in bins:
            assert sum(t[j] for j in b) <= 8

    def test_fails_when_over_m_bins(self):
        inst = Instance([6, 6, 6], num_machines=2)
        assert ffd_pack(inst.processing_times, 6, inst.num_machines) is None

    def test_fails_when_job_exceeds_capacity(self):
        inst = Instance([10], num_machines=1)
        assert ffd_pack(inst.processing_times, 9, inst.num_machines) is None

    def test_all_jobs_packed(self):
        inst = Instance([5, 4, 3, 3, 2, 1], num_machines=3)
        bins = ffd_pack(inst.processing_times, 7, inst.num_machines)
        assert bins is not None
        assert sorted(j for b in bins for j in b) == list(range(6))

    def test_item_cap_opens_new_bins(self):
        # Capacity alone packs (3, 3, 3) into one bin; a cap of 2 items
        # per bin needs a second, and a third cap-1 bin is one too many.
        assert ffd_pack([3, 3, 3], 9, 1) == [[0, 1, 2]]
        assert ffd_pack([3, 3, 3], 9, 2, max_items=2) == [[0, 1], [2]]
        assert ffd_pack([3, 3, 3], 9, 2, max_items=1) is None


class TestMultifit:
    def test_simple(self):
        inst = Instance([2, 3, 4, 6], num_machines=2)
        assert multifit(inst).makespan == 8

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            multifit(Instance([1], 1), iterations=0)

    def test_more_iterations_never_worse(self):
        inst = Instance([19, 17, 13, 11, 7, 5, 3, 2], num_machines=3)
        coarse = multifit(inst, iterations=1).makespan
        fine = multifit(inst, iterations=12).makespan
        assert fine <= coarse

    def test_worst_case_ratio_formula(self):
        assert multifit_worst_case_ratio(0) == pytest.approx(2.22)
        assert multifit_worst_case_ratio(10) == pytest.approx(1.22, abs=1e-2)

    @given(small_instances())
    @settings(max_examples=60)
    def test_property_multifit_guarantee(self, inst: Instance):
        opt = brute_force(inst).makespan
        sched = multifit(inst, iterations=10)
        assert sched.is_valid()
        assert sched.makespan / opt <= 1.23 + 2e-3

    @given(small_instances())
    @settings(max_examples=40)
    def test_property_multifit_vs_lpt(self, inst: Instance):
        """Not a theorem, but on tiny instances MULTIFIT should stay
        within LPT's guarantee envelope too."""
        opt = brute_force(inst).makespan
        assert multifit(inst).makespan <= (4 / 3) * opt + 1 + 1e-9
