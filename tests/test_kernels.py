"""Tests for the shared vectorized wavefront kernel (:mod:`repro.core.kernels`).

The contract under test: every backend — serial, numpy-serial, thread,
process — fills a *bit-identical* ``int64`` table (one sentinel
convention, one recurrence implementation), and the results agree with
:func:`repro.core.dp.solve_table` including ``limit``-triggered
infeasible probes and degenerate instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import DPProblem, solve_table
from repro.core.kernels import (
    KERNEL_INFEASIBLE,
    LevelKernel,
    build_level_arrays,
    row_major_strides,
    table_opt,
    table_to_optional,
)
from repro.core.parallel_dp import compute_table, parallel_dp
from repro.parallel.executor import make_executor, shutdown_pools

from conftest import dp_problems

FAST_BACKENDS = ("serial", "numpy-serial", "thread")


def reference_optional_table(problem: DPProblem) -> list[int | None]:
    """Independent row-major sweep oracle (the seed's pure-Python loop)."""
    dims = problem.dims
    strides = problem.strides()
    sigma = problem.table_size
    configs = problem.configurations().configs
    offsets = [sum(s * st for s, st in zip(cfg, strides)) for cfg in configs]
    table: list[int | None] = [None] * sigma
    table[0] = 0
    v = [0] * len(dims)
    for flat in range(1, sigma):
        for c in range(len(dims) - 1, -1, -1):
            if v[c] + 1 < dims[c]:
                v[c] += 1
                break
            v[c] = 0
        best: int | None = None
        for cfg, offset in zip(configs, offsets):
            if all(cfg[c] <= v[c] for c in range(len(cfg))):
                prev = table[flat - offset]
                if prev is not None and (best is None or prev < best):
                    best = prev
        table[flat] = None if best is None else best + 1
    return table


class TestKernelPrimitives:
    def test_strides_match_problem(self, paper_example_problem):
        p = paper_example_problem
        assert row_major_strides(p.dims) == p.strides()

    def test_level_arrays_partition_the_table(self, paper_example_problem):
        p = paper_example_problem
        levels = build_level_arrays(p.dims)
        assert all(lv.dtype == np.int64 for lv in levels)
        seen = np.sort(np.concatenate(levels))
        assert np.array_equal(seen, np.arange(p.table_size))
        assert tuple(len(lv) for lv in levels) == (1, 2, 3, 3, 2, 1)

    def test_layout_shared_per_shape_and_read_only(self, paper_example_problem):
        """Probes of one rounding share their dims, so they share one
        cached layout, which therefore must not be writable."""
        from repro.core.kernels import level_layout

        p = paper_example_problem
        layout = level_layout(p.dims)
        assert level_layout(np.asarray(p.dims)) is layout
        assert LevelKernel.for_problem(p).layout is layout
        for arr in (layout.state_levels, *layout.levels):
            assert not arr.flags.writeable
        assert layout.state_levels.tolist() == [sum(divmod(f, 4)) for f in range(12)]

    def test_empty_dims_single_state(self):
        levels = build_level_arrays(())
        assert len(levels) == 1
        assert levels[0].tolist() == [0]

    def test_allocate_table_sentinel(self, paper_example_problem):
        kernel = LevelKernel.for_problem(paper_example_problem)
        table = kernel.allocate_table(5)
        assert table[0] == 0
        assert (table[1:] == KERNEL_INFEASIBLE).all()
        assert table_opt(table, 0) == 0
        assert table_opt(table, 1) is None

    def test_sweep_matches_reference_on_paper_example(
        self, paper_example_problem
    ):
        p = paper_example_problem
        kernel = LevelKernel.for_problem(p)
        table = kernel.allocate_table(p.table_size)
        kernel.sweep(table, build_level_arrays(p.dims))
        assert table_to_optional(table) == reference_optional_table(p)

    def test_update_counts_applicable_configs(self, paper_example_problem):
        p = paper_example_problem
        kernel = LevelKernel.for_problem(p)
        table = kernel.allocate_table(p.table_size)
        levels = build_level_arrays(p.dims)
        counted = {}
        for flats in levels[1:]:
            counts = kernel.update(table, flats, count_applicable=True)
            counted.update(zip(flats.tolist(), counts.tolist()))
        # |C_v| at the full vector N equals the whole configuration set
        # bounded by N — every configuration is applicable there.
        assert counted[p.table_size - 1] == len(p.configurations())
        # A level-1 state admits exactly its singleton configuration.
        one_hot_flat = int(levels[1][0])
        assert counted[one_hot_flat] == 1

    def test_kernel_is_picklable(self, paper_example_problem):
        import pickle

        kernel = LevelKernel.for_problem(paper_example_problem)
        clone = pickle.loads(pickle.dumps(kernel))
        p = paper_example_problem
        table = clone.allocate_table(p.table_size)
        clone.sweep(table, build_level_arrays(p.dims))
        assert table_to_optional(table) == reference_optional_table(p)


#: Table-size cap for the fused-kernel properties (the pure-Python oracle
#: visits every state once per configuration).
MAX_SIGMA = 1500


@st.composite
def fused_problems(draw: st.DrawFn) -> DPProblem:
    """1-6 classes with counts 0-8 (capped so the table stays at most
    :data:`MAX_SIGMA` states), weight-only or ``k - 1`` job caps."""
    d = draw(st.integers(min_value=1, max_value=6))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=30), min_size=d, max_size=d, unique=True
        )
    )
    counts, sigma = [], 1
    for _ in range(d):
        count = draw(st.integers(min_value=0, max_value=min(8, MAX_SIGMA // sigma - 1)))
        counts.append(count)
        sigma *= count + 1
    target = max(sizes) + draw(st.integers(min_value=0, max_value=60))
    job_cap = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=6).map(lambda k: k - 1)))
    return DPProblem(tuple(sorted(sizes)), tuple(counts), target, job_cap=job_cap)


def fused_block(elements: int | None):
    """Shrink the kernel's row-block size (``None`` keeps the default)."""
    from contextlib import nullcontext
    from unittest import mock

    from repro.core import kernels

    if elements is None:
        return nullcontext()
    return mock.patch.object(kernels, "_FUSED_BLOCK", elements)


def naive_applicable_counts(problem: DPProblem) -> list[int]:
    """Per flat state, the configurations ``s <= v`` (componentwise)."""
    dims, strides = problem.dims, problem.strides()
    configs = problem.configurations().configs
    out = []
    for flat in range(problem.table_size):
        v = [(flat // strides[c]) % dims[c] for c in range(len(dims))]
        out.append(sum(all(s <= x for s, x in zip(cfg, v)) for cfg in configs))
    return out


class TestFusedKernelExactness:
    """The fused pass gathers every configuration's predecessor at once
    and keeps those on anti-diagonal ``level - |s|``; whatever chunking a
    backend sends, the table must equal the per-state oracle."""

    @given(fused_problems(), st.sampled_from([None, 1, 7, 64]))
    @settings(max_examples=60)
    def test_whole_level_sweeps(self, problem: DPProblem, block):
        """Also with tiny row blocks, so wide levels split into many."""
        kernel = LevelKernel.for_problem(problem)
        table = kernel.allocate_table(problem.table_size)
        with fused_block(block):
            kernel.sweep(table, build_level_arrays(problem.dims))
        assert table_to_optional(table) == reference_optional_table(problem)

    @given(fused_problems(), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_random_subchunks_in_random_order(self, problem: DPProblem, rng):
        """Thread and process tiles hand the kernel arbitrary pieces of
        one level, finished in any order."""
        kernel = LevelKernel.for_problem(problem)
        table = kernel.allocate_table(problem.table_size)
        for level, flats in enumerate(build_level_arrays(problem.dims)[1:], start=1):
            states = flats.tolist()
            rng.shuffle(states)
            cuts = sorted(rng.sample(range(1, len(states)), min(3, len(states) - 1)))
            pieces = [states[a:b] for a, b in zip([0, *cuts], [*cuts, len(states)])]
            rng.shuffle(pieces)
            for piece in pieces:
                kernel.update(table, np.asarray(piece, dtype=np.int64), level=level)
        assert table_to_optional(table) == reference_optional_table(problem)

    @given(
        fused_problems(), st.randoms(use_true_random=False),
        st.sampled_from([None, 1, 7, 64]),
    )
    @settings(max_examples=60)
    def test_level_none_chunks_mixing_levels(self, problem: DPProblem, rng, block):
        """Sweep hyperplanes ``sum_c w_c v_c = h`` with random positive
        weights: each is an antichain whose predecessors all lie on lower
        hyperplanes, yet it spans several anti-diagonals, so every chunk
        goes through the per-state (``level=None``) path."""
        dims, strides = problem.dims, problem.strides()
        weights = [rng.randint(1, 3) for _ in dims]
        planes: dict[int, list[int]] = {}
        for flat in range(problem.table_size):
            h = sum(w * ((flat // s) % n) for w, s, n in zip(weights, strides, dims))
            planes.setdefault(h, []).append(flat)
        kernel = LevelKernel.for_problem(problem)
        table = kernel.allocate_table(problem.table_size)
        with fused_block(block):
            for h in sorted(planes):
                kernel.update(table, np.asarray(planes[h], dtype=np.int64))
        assert table_to_optional(table) == reference_optional_table(problem)

    @given(fused_problems(), st.sampled_from([None, 1, 7]))
    @settings(max_examples=40)
    def test_count_applicable_matches_naive_count(self, problem: DPProblem, block):
        kernel = LevelKernel.for_problem(problem)
        expected = naive_applicable_counts(problem)
        levels = build_level_arrays(problem.dims)
        for level_arg in (True, False):
            table = kernel.allocate_table(problem.table_size)
            counted = [0] * problem.table_size
            with fused_block(block):
                for level, flats in enumerate(levels):
                    counts = kernel.update(
                        table, flats, level=level if level_arg else None,
                        count_applicable=True,
                    )
                    for flat, c in zip(flats.tolist(), counts.tolist()):
                        counted[flat] = c
            assert counted == expected, level_arg

    def test_pickled_size_does_not_grow_with_sigma(self):
        """Process tiles ship the kernel in every payload: the per-state
        anti-diagonal array must stay behind and be rebuilt by the worker."""
        import pickle

        # Same configuration set ({(1, 0), (0, 1)}: no two jobs fit in 7),
        # tables of 12 and ~5k states.
        small = DPProblem((5, 7), (2, 3), 7)
        big = DPProblem((5, 7), (60, 80), 7)
        assert small.configurations().configs == big.configurations().configs
        small_bytes = pickle.dumps(LevelKernel.for_problem(small))
        big_bytes = pickle.dumps(LevelKernel.for_problem(big))
        assert big.table_size > 400 * small.table_size
        assert len(big_bytes) <= len(small_bytes) + 64
        clone = pickle.loads(big_bytes)
        table = clone.allocate_table(big.table_size)
        clone.sweep(table, build_level_arrays(big.dims))
        assert np.array_equal(table, compute_table(big, 1, "numpy-serial"))

    def test_out_of_box_configurations_apply_nowhere(self):
        """A configuration exceeding a job count matches no state, but its
        offset can still land on the right anti-diagonal (the borrow
        argument needs ``s <= N``), so the kernel must drop it."""
        # Two jobs of size 6 under T=10 need two machines; the phantom
        # configuration (0, 2) has offset 2, the flat index of v=(2, 0),
        # so a level test alone would read OPT(0) and report one machine.
        p = DPProblem((6, 11), (2, 0), 10)
        assert p.configurations().configs == ((1, 0),)
        kernel = LevelKernel(p.dims, p.strides(), ((1, 0), (0, 2)))
        table = kernel.allocate_table(p.table_size)
        kernel.sweep(table, build_level_arrays(p.dims))
        assert table_to_optional(table) == reference_optional_table(p) == [0, 1, 2]


class TestBackendsBitIdentical:
    @given(dp_problems())
    @settings(max_examples=30)
    def test_property_tables_bit_identical(self, problem: DPProblem):
        if not problem.counts:
            return
        expected = reference_optional_table(problem)
        tables = {
            backend: compute_table(problem, workers, backend)
            for backend, workers in (
                ("numpy-serial", 1),
                ("serial", 3),
                ("thread", 4),
            )
        }
        for backend, table in tables.items():
            assert table.dtype == np.int64, backend
            assert table_to_optional(table) == expected, backend
            assert np.array_equal(table, tables["numpy-serial"]), backend

    @given(dp_problems())
    @settings(max_examples=20)
    def test_property_results_match_solve_table_with_limits(
        self, problem: DPProblem
    ):
        seq = solve_table(problem)
        assert seq.opt is not None
        # None, a passing limit, and a limit that triggers infeasibility.
        for limit in (None, seq.opt, seq.opt - 1):
            ref = solve_table(problem, limit=limit)
            for backend in FAST_BACKENDS:
                par = parallel_dp(problem, 3, backend, limit=limit)
                assert par.opt == ref.opt, (backend, limit)
                assert par.machine_configs == ref.machine_configs, (
                    backend,
                    limit,
                )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_empty_counts_instance(self, backend):
        res = parallel_dp(DPProblem((), (), 7), 3, backend)
        assert res.opt == 0
        assert res.machine_configs == ()

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_all_zero_counts_instance(self, backend):
        res = parallel_dp(DPProblem((5, 9), (0, 0), 11), 3, backend)
        assert res.opt == 0
        assert res.machine_configs == ()

    def test_numpy_serial_registered_backend(self, paper_example_problem):
        res = parallel_dp(paper_example_problem, 1, "numpy-serial")
        assert res.engine == "parallel-numpy-serial"
        assert res.opt == 2


@pytest.mark.slow
class TestProcessBackendKernel:
    """Shared-memory process workers running the same kernel."""

    def test_table_bit_identical(self, paper_example_problem):
        p = paper_example_problem
        ref = compute_table(p, 1, "numpy-serial")
        table = compute_table(p, 2, "process")
        assert np.array_equal(table, ref)

    def test_persistent_pool_across_probes(self):
        """One reusable pool serves consecutive probes (different tables);
        the pool object is identical across probes and the workers'
        cached attachment from the first probe does not leak into the
        second — the lifecycle the bisection driver relies on."""
        shutdown_pools()
        try:
            probes = [
                DPProblem((4, 9), (3, 2), 13),
                DPProblem((6, 11), (2, 3), 30),
                DPProblem((3, 5, 7), (2, 1, 2), 15),
            ]
            ex = make_executor("process", 2, reuse=True)
            pool = ex.pool
            try:
                for problem in probes:
                    par = parallel_dp(problem, 2, "process", executor=ex)
                    seq = solve_table(problem)
                    assert par.opt == seq.opt
                    assert par.machine_configs == seq.machine_configs
            finally:
                ex.close()
            # Reopening with the same shape hands back the same pool.
            again = make_executor("process", 2, reuse=True)
            try:
                assert again.pool is pool
                res = parallel_dp(probes[0], 2, "process", executor=again)
                assert res.opt == solve_table(probes[0]).opt
            finally:
                again.close()
        finally:
            shutdown_pools()
