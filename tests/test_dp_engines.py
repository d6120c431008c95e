"""Tests for the sequential DP engines (:mod:`repro.core.dp`).

The central invariant: every engine computes the same ``OPT(N)``, and
every witness is a multiset of feasible configurations summing exactly
to ``N`` with ``len == OPT``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import (
    DPProblem,
    SEQUENTIAL_ENGINES,
    solve,
    solve_numpy,
    solve_table,
    unrank,
)

from conftest import dp_problems

ENGINES = sorted(SEQUENTIAL_ENGINES)


def check_witness(problem: DPProblem, opt: int, configs) -> None:
    """A valid witness: one feasible config per machine, exact cover."""
    assert len(configs) == opt
    total = [0] * len(problem.counts)
    for cfg in configs:
        weight = sum(s * c for s, c in zip(problem.class_sizes, cfg))
        assert weight <= problem.target, f"config {cfg} overloads T"
        assert any(cfg), "zero configuration in witness"
        for i, c in enumerate(cfg):
            total[i] += c
    assert tuple(total) == problem.counts, "witness does not cover N exactly"


class TestDPProblem:
    def test_dims_and_sigma(self, paper_example_problem):
        assert paper_example_problem.dims == (3, 4)
        assert paper_example_problem.table_size == 12
        assert paper_example_problem.num_long_jobs == 5

    def test_strides_row_major(self, paper_example_problem):
        assert paper_example_problem.strides() == (4, 1)

    def test_three_dim_strides(self):
        p = DPProblem((2, 3, 5), (1, 2, 3), 20)
        assert p.strides() == (12, 4, 1)
        assert p.table_size == 2 * 3 * 4

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DPProblem((2, 3), (1,), 10)

    def test_rejects_oversized_class(self):
        with pytest.raises(ValueError, match="exceeds target"):
            DPProblem((50,), (1,), 10)

    def test_oversized_class_with_zero_count_ok(self):
        p = DPProblem((50,), (0,), 10)
        assert p.table_size == 1

    def test_unrank_roundtrip(self):
        p = DPProblem((2, 3, 5), (1, 2, 3), 20)
        strides = p.strides()
        for flat in range(p.table_size):
            v = unrank(flat, p.dims, strides)
            assert sum(c * s for c, s in zip(v, strides)) == flat


class TestPaperExample:
    """§III worked example: sizes (6, 11), N = (2, 3), T = 30."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_opt_is_two(self, paper_example_problem, engine):
        result = solve(paper_example_problem, engine)
        assert result.opt == 2
        check_witness(paper_example_problem, 2, result.machine_configs)

    def test_table_i_values(self, paper_example_problem):
        """Every entry of Table I, via sub-problems."""
        expected = {
            (0, 0): 0, (0, 1): 1, (0, 2): 1, (0, 3): 2,
            (1, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 2,
            (2, 0): 1, (2, 1): 1, (2, 2): 2, (2, 3): 2,
        }
        for (v1, v2), want in expected.items():
            sub = DPProblem((6, 11), (v1, v2), 30)
            got = solve_table(sub, track_schedule=False).opt
            assert got == want, f"OPT({v1},{v2}) = {got}, expected {want}"


class TestEdgeCases:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_problem(self, engine):
        result = solve(DPProblem((), (), 10), engine)
        assert result.opt == 0
        assert result.machine_configs == ()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_zero_counts(self, engine):
        result = solve(DPProblem((3, 4), (0, 0), 10), engine)
        assert result.opt == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_job(self, engine):
        result = solve(DPProblem((7,), (1,), 10), engine)
        assert result.opt == 1
        check_witness(DPProblem((7,), (1,), 10), 1, result.machine_configs)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_job_per_machine(self, engine):
        # Size 7, target 10: no two jobs fit together.
        p = DPProblem((7,), (4,), 10)
        assert solve(p, engine).opt == 4

    @pytest.mark.parametrize("engine", ENGINES)
    def test_perfect_packing(self, engine):
        # Two 5s fill a machine of 10 exactly.
        p = DPProblem((5,), (6,), 10)
        assert solve(p, engine).opt == 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_infeasible(self, engine):
        p = DPProblem((7,), (4,), 10)  # OPT = 4
        result = solve(p, engine, limit=3)
        assert result.opt is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_exactly_met(self, engine):
        p = DPProblem((7,), (4,), 10)
        result = solve(p, engine, limit=4)
        assert result.opt == 4

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown DP engine"):
            solve(DPProblem((1,), (1,), 1), "bogus")


class TestStats:
    def test_table_stats(self, paper_example_problem):
        res = solve_table(paper_example_problem, collect_stats=True)
        assert res.stats is not None
        assert res.stats.sigma == 12
        assert res.stats.num_levels == 6
        assert res.stats.level_sizes == (1, 2, 3, 3, 2, 1)
        assert res.stats.states_computed == 12
        assert res.stats.num_configs == 7
        # Full scan: every non-zero state scans all configurations.
        assert res.stats.config_scans == 11 * 7
        assert res.stats.total_ops == res.stats.config_scans

    def test_level_sizes_sum_to_sigma(self):
        p = DPProblem((2, 3, 5), (2, 1, 2), 20)
        res = solve_table(p, collect_stats=True, track_schedule=False)
        assert res.stats is not None
        assert sum(res.stats.level_sizes) == p.table_size
        assert res.stats.num_levels == p.num_long_jobs + 1

    @pytest.mark.parametrize("engine", sorted(SEQUENTIAL_ENGINES))
    def test_every_engine_reports_the_table_levels(self, engine):
        p = DPProblem((2, 3, 5), (2, 1, 2), 20)
        table = solve_table(p, collect_stats=True, track_schedule=False).stats
        stats = solve(p, engine, collect_stats=True, track_schedule=False).stats
        assert stats is not None and table is not None
        assert stats.num_levels == len(stats.level_sizes)
        assert stats.level_sizes == table.level_sizes


@given(dp_problems())
@settings(max_examples=60)
def test_property_engines_agree(problem: DPProblem):
    """The kernel returns the reference table's OPT and its witness."""
    reference = solve_table(problem, track_schedule=True)
    assert reference.opt is not None
    check_witness(problem, reference.opt, reference.machine_configs)
    result = solve_numpy(problem)
    assert result.opt == reference.opt, (
        f"numpy disagrees with table: {result.opt} != {reference.opt}"
    )
    assert result.machine_configs == reference.machine_configs


@given(dp_problems(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_property_engines_agree_under_job_cap(problem: DPProblem, cap: int):
    """The guarantee-fix job cap preserves engine agreement and witness
    validity (witness configs must respect the cap too)."""
    capped = DPProblem(
        problem.class_sizes, problem.counts, problem.target, job_cap=cap
    )
    if capped.num_long_jobs == 0:
        return
    reference = solve_table(capped, track_schedule=True)
    assert reference.opt is not None
    check_witness(capped, reference.opt, reference.machine_configs)
    for cfg in reference.machine_configs:
        assert sum(cfg) <= cap
    result = solve_numpy(capped)
    assert result.opt == reference.opt
    assert result.machine_configs == reference.machine_configs


@given(dp_problems())
@settings(max_examples=30)
def test_property_cap_never_below_uncapped_opt(problem: DPProblem):
    """Capping configurations can only increase the machine count."""
    if problem.num_long_jobs == 0:
        return
    uncapped = solve_table(problem, track_schedule=False).opt
    capped = solve_table(
        DPProblem(problem.class_sizes, problem.counts, problem.target, job_cap=2),
        track_schedule=False,
    ).opt
    assert uncapped is not None and capped is not None
    assert capped >= uncapped


@given(dp_problems())
@settings(max_examples=40)
def test_property_opt_bounds(problem: DPProblem):
    """OPT is between the work bound and the number of jobs."""
    result = solve_table(problem, track_schedule=False)
    n_jobs = problem.num_long_jobs
    assert result.opt is not None
    if n_jobs == 0:
        assert result.opt == 0
        return
    total = sum(s * c for s, c in zip(problem.class_sizes, problem.counts))
    work_bound = -(-total // problem.target) if problem.target > 0 else n_jobs
    assert max(1, work_bound) <= result.opt <= n_jobs


@given(dp_problems())
@settings(max_examples=30)
def test_property_monotone_in_target(problem: DPProblem):
    """A larger target never needs more machines."""
    if not problem.counts or problem.num_long_jobs == 0:
        return
    base = solve_table(problem, track_schedule=False).opt
    bigger = DPProblem(problem.class_sizes, problem.counts, problem.target + 5)
    relaxed = solve_table(bigger, track_schedule=False).opt
    assert relaxed is not None and base is not None
    assert relaxed <= base
