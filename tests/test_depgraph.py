"""Tests for the DP dependency graph (:mod:`repro.core.depgraph`) —
the computable version of the paper's Figure 1."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.depgraph import (
    build_dependency_graph,
    critical_path_length,
    is_valid_wavefront,
    render_figure1,
    topological_levels,
)
from repro.core.dp import DPProblem
from repro.core.kernels import build_level_arrays

from conftest import dp_problems


class TestPaperExample:
    def test_graph_size(self, paper_example_problem):
        graph = build_dependency_graph(paper_example_problem)
        assert graph.number_of_nodes() == 12

    def test_paper_dependency_lists(self, paper_example_problem):
        """Eq. 11 of the paper: the dependencies of the level-2 states."""
        graph = build_dependency_graph(paper_example_problem)
        assert set(graph.successors((2, 0))) == {(1, 0), (0, 0)}
        assert set(graph.successors((1, 1))) == {(1, 0), (0, 1), (0, 0)}
        assert set(graph.successors((0, 2))) == {(0, 1), (0, 0)}

    def test_valid_wavefront(self, paper_example_problem):
        assert is_valid_wavefront(build_dependency_graph(paper_example_problem))

    def test_levels_match_anti_diagonals(self, paper_example_problem):
        graph = build_dependency_graph(paper_example_problem)
        levels = topological_levels(graph)
        assert [len(lv) for lv in levels] == [1, 2, 3, 3, 2, 1]
        for l, states in enumerate(levels):
            assert all(sum(v) == l for v in states)

    def test_critical_path(self, paper_example_problem):
        graph = build_dependency_graph(paper_example_problem)
        assert critical_path_length(graph) == 6  # n' + 1

    def test_render(self, paper_example_problem):
        out = render_figure1(paper_example_problem)
        assert "Level 0" in out and "Level 5" in out
        assert "OPT(2, 3)" in out
        assert "q_2 = 3" in out

    def test_render_caps_size(self):
        big = DPProblem((2,), (200,), 10)
        with pytest.raises(ValueError, match="capped"):
            render_figure1(big, max_states=64)


@given(dp_problems(max_classes=2, max_count=3, max_size=8))
@settings(max_examples=30)
def test_property_generations_equal_level_index(problem: DPProblem):
    """networkx's topological generations coincide with the anti-diagonal
    grouping the parallel DP computes arithmetically."""
    if not problem.counts or problem.table_size > 200:
        return
    graph = build_dependency_graph(problem)
    assert is_valid_wavefront(graph)
    generations = topological_levels(graph)
    from repro.core.dp import unrank

    strides = problem.strides()
    expected = [
        {unrank(flat, problem.dims, strides) for flat in level}
        for level in build_level_arrays(problem.dims)
    ]
    assert generations == expected
    assert critical_path_length(graph) == problem.num_long_jobs + 1
