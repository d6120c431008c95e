"""Regression tests for the integral-rounding guarantee gap.

Found by hypothesis during this reproduction: the algorithm *as printed*
(machine configurations constrained by weight only, Eq. 3) can exceed
its ``(1 + eps)`` guarantee on integer instances, because a long job may
round *below* ``T/k`` (``unit = ceil(T/k^2)`` need not divide ``T/k``),
letting one machine pack ``k`` or more long jobs whose un-rounding
overshoots ``(1 + 1/k) T``.

The fix (``guarantee_fix=True``, the default): cap configurations at
``k - 1`` jobs.  Sound — any true schedule of makespan ``<= T`` has
fewer than ``k`` long jobs per machine since each strictly exceeds
``T/k`` — and sufficient: per-machine un-rounding error is then at most
``(k-1)(unit-1) <= (k-1) T / k^2 < T/k``.

The witness instance below is kept verbatim so the gap (and its closure)
never regresses silently.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ptas import parallel_ptas, ptas
from repro.core.reference import algorithm1
from repro.exact.brute import brute_force
from repro.model.instance import Instance

from conftest import small_instances

#: The hypothesis-found witness: OPT = 25, printed algorithm returns 39
#: at eps = 0.5 (ratio 1.56 > 1.5).  One machine receives three jobs of
#: 13 (each rounds 13 -> 7 at T=25, unit=7; 3x7=21 <= 25 passes the
#: weight check; un-rounded load 39).
WITNESS = Instance([1, 1, 3, 12, 12, 12, 13, 13, 13, 17], num_machines=4)
WITNESS_OPT = 25
WITNESS_EPS = 0.5


class TestTheGap:
    def test_witness_optimum(self):
        assert brute_force(WITNESS).makespan == WITNESS_OPT

    def test_printed_algorithm_violates_guarantee(self):
        """The gap exists — in the verbatim pipeline and the literal
        transcription alike.  If this ever starts passing the guarantee,
        the printed semantics changed: investigate."""
        unfixed = ptas(WITNESS, WITNESS_EPS, engine="table", guarantee_fix=False)
        assert unfixed.makespan > (1 + WITNESS_EPS) * WITNESS_OPT
        reference = algorithm1(WITNESS, WITNESS_EPS)
        assert reference.makespan > (1 + WITNESS_EPS) * WITNESS_OPT

    def test_fix_restores_guarantee_on_witness(self):
        fixed = ptas(WITNESS, WITNESS_EPS, engine="table")
        assert fixed.makespan <= (1 + WITNESS_EPS) * WITNESS_OPT + 1e-9

    def test_fix_applies_to_parallel_pipeline(self):
        fixed = parallel_ptas(WITNESS, WITNESS_EPS, num_workers=4)
        assert fixed.makespan <= (1 + WITNESS_EPS) * WITNESS_OPT + 1e-9

    @pytest.mark.parametrize("engine", ["table", "numpy", "config-ilp"])
    def test_fix_works_on_every_engine(self, engine):
        fixed = ptas(WITNESS, WITNESS_EPS, engine=engine)
        assert fixed.makespan <= (1 + WITNESS_EPS) * WITNESS_OPT + 1e-9


class TestFixedPipelineProperties:
    @given(small_instances(), st.sampled_from([0.2, 0.3, 0.5, 0.8]))
    @settings(max_examples=80)
    def test_property_guarantee_holds_with_fix(self, inst, eps):
        """The tight (1+eps) guarantee across eps values, engines default."""
        opt = brute_force(inst).makespan
        result = ptas(inst, eps)
        assert result.makespan <= (1 + eps) * opt + 1e-9

    @given(small_instances())
    @settings(max_examples=40)
    def test_property_fix_never_worsens_certified_target(self, inst):
        """The cap never cuts off a true schedule: the certified target
        with the fix is still a valid lower bound on OPT."""
        opt = brute_force(inst).makespan
        fixed = ptas(inst, 0.5)
        assert fixed.final_target <= opt

    @given(small_instances())
    @settings(max_examples=40)
    def test_property_parallel_equals_sequential_with_fix(self, inst):
        seq = ptas(inst, 0.5, engine="table")
        par = parallel_ptas(inst, 0.5, num_workers=3, backend="serial")
        assert par.schedule.assignment == seq.schedule.assignment
