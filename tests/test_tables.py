"""Tests for the table experiments (:mod:`repro.experiments.tables`)."""

from __future__ import annotations

import pytest

from repro.experiments.tables import (
    RATIO_POOL,
    RatioRecord,
    TABLE1_PROBLEM,
    TableResult,
    _select,
    run_table1,
)


class TestTable1:
    def test_matches_paper(self):
        """Table I of the paper, verbatim."""
        result = run_table1()
        assert result.opt == 2
        assert result.grid == (
            (0, 1, 1, 2),
            (1, 1, 1, 2),
            (1, 1, 2, 2),
        )
        assert result.level_sizes == (1, 2, 3, 3, 2, 1)

    def test_render_contains_grid(self):
        out = run_table1().render()
        assert "Table I" in out
        assert "v2=3" in out
        assert "anti-diagonal" in out

    def test_problem_constants(self):
        assert TABLE1_PROBLEM.class_sizes == (6, 11)
        assert TABLE1_PROBLEM.counts == (2, 3)
        assert TABLE1_PROBLEM.target == 30


class TestSelection:
    def make_record(self, rid: str, par: float, lpt: float) -> RatioRecord:
        return RatioRecord(
            instance_id=rid,
            family_label="fam",
            m=10,
            n=30,
            ratio_parallel=par,
            ratio_lpt=lpt,
            ratio_ls=lpt + 0.1,
            ip_optimal=True,
        )

    def test_best_sorts_by_gap_descending(self):
        records = [
            self.make_record("a", 1.0, 1.3),   # gap 0.3
            self.make_record("b", 1.05, 1.1),  # gap 0.05
            self.make_record("c", 1.0, 1.5),   # gap 0.5
        ]
        best = _select(records, best=True, count=2)
        assert [r.lpt_gap for r in best] == pytest.approx([0.5, 0.3])
        # Relabeled I1, I2 in rank order.
        assert [r.instance_id for r in best] == ["I1", "I2"]

    def test_worst_sorts_ascending(self):
        records = [
            self.make_record("a", 1.0, 1.3),
            self.make_record("b", 1.2, 1.1),  # gap -0.1 (LPT wins)
        ]
        worst = _select(records, best=False, count=1)
        assert worst[0].lpt_gap == pytest.approx(-0.1)

    def test_render(self):
        result = TableResult("T", [self.make_record("I1", 1.0, 1.2)])
        out = result.render()
        assert "I1" in out and "LPT" in out

    def test_pool_includes_special_families(self):
        kinds = {kind for kind, _, _ in RATIO_POOL}
        assert "lpt_adversarial" in kinds
        assert "u_narrow" in kinds

