"""Unit tests for :mod:`repro.parallel.executor`."""

from __future__ import annotations

import threading

import pytest

from repro.core.context import SolveContext
from repro.parallel.executor import (
    ProcessExecutor,
    ReusableExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    shutdown_pools,
)


def square_chunk(chunk):
    return [x * x for x in chunk]


class TestSerialExecutor:
    def test_maps_in_order(self):
        ex = SerialExecutor()
        out = ex.map_chunks(square_chunk, [[1, 2], [3]])
        assert out == [[1, 4], [9]]

    def test_empty_chunks_yield_none(self):
        ex = SerialExecutor()
        assert ex.map_chunks(square_chunk, [[], [2], []]) == [None, [4], None]

    def test_models_worker_count(self):
        assert SerialExecutor(8).num_workers == 8

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SerialExecutor(0)

    def test_context_manager(self):
        with SerialExecutor() as ex:
            assert ex.map_chunks(square_chunk, [[2]]) == [[4]]


class TestThreadExecutor:
    def test_maps_all_chunks(self):
        with ThreadExecutor(3) as ex:
            out = ex.map_chunks(square_chunk, [[1], [2], [3]])
        assert out == [[1], [4], [9]]

    def test_shared_memory_visible(self):
        """Workers write into one shared structure — the property the
        thread backend of the parallel DP relies on."""
        table = [0] * 10
        def write_chunk(chunk):
            for i in chunk:
                table[i] = i + 100
        with ThreadExecutor(4) as ex:
            ex.map_chunks(write_chunk, [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]])
        assert table == [100 + i for i in range(10)]

    def test_runs_concurrently_when_gil_released(self):
        """Barrier-style rendezvous proves two chunks are in flight at
        once (threads block in `wait`, releasing the GIL)."""
        barrier = threading.Barrier(2, timeout=5)
        def rendezvous(chunk):
            barrier.wait()
            return chunk
        with ThreadExecutor(2) as ex:
            out = ex.map_chunks(rendezvous, [[1], [2]])
        assert out == [[1], [2]]

    def test_propagates_exceptions(self):
        def boom(chunk):
            raise RuntimeError("kaput")
        with ThreadExecutor(2) as ex:
            with pytest.raises(RuntimeError, match="kaput"):
                ex.map_chunks(boom, [[1]])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)


@pytest.mark.slow
class TestProcessExecutor:
    def test_maps_all_chunks(self):
        with ProcessExecutor(2) as ex:
            out = ex.map_chunks(square_chunk, [[1, 2], [3]])
        assert out == [[1, 4], [9]]

    def test_empty_chunk_skipped(self):
        with ProcessExecutor(2) as ex:
            assert ex.map_chunks(square_chunk, [[], [5]]) == [None, [25]]


class TestFactory:
    def test_serial(self):
        assert isinstance(make_executor("serial", 2), SerialExecutor)

    def test_thread(self):
        ex = make_executor("thread", 2)
        try:
            assert isinstance(ex, ThreadExecutor)
        finally:
            ex.close()

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_executor("quantum", 2)


class TestReusablePools:
    """Persistent pools (``make_executor(..., reuse=True)``)."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    def test_reuse_returns_wrapper_over_real_pool(self):
        ex = make_executor("thread", 2, reuse=True)
        try:
            assert isinstance(ex, ReusableExecutor)
            assert isinstance(ex.pool, ThreadExecutor)
            assert ex.num_workers == 2
            assert ex.map_chunks(square_chunk, [[2], [3]]) == [[4], [9]]
        finally:
            ex.close()

    def test_pool_identity_survives_release(self):
        """Closing a reusable executor parks the pool; the next acquire of
        the same shape hands back the *same* pool object."""
        first = make_executor("thread", 2, reuse=True)
        inner = first.pool
        first.close()
        second = make_executor("thread", 2, reuse=True)
        try:
            assert second.pool is inner
        finally:
            second.close()

    def test_distinct_shapes_get_distinct_pools(self):
        two = make_executor("thread", 2, reuse=True)
        three = make_executor("thread", 3, reuse=True)
        try:
            assert two.pool is not three.pool
        finally:
            two.close()
            three.close()

    def test_concurrent_acquires_do_not_share(self):
        """Two live executors of the same shape must not share a pool."""
        a = make_executor("thread", 2, reuse=True)
        b = make_executor("thread", 2, reuse=True)
        try:
            assert a.pool is not b.pool
        finally:
            a.close()
            b.close()

    def test_released_executor_rejects_work(self):
        ex = make_executor("thread", 2, reuse=True)
        ex.close()
        with pytest.raises(RuntimeError, match="released"):
            ex.map_chunks(square_chunk, [[1]])

    def test_close_is_idempotent(self):
        ex = make_executor("thread", 2, reuse=True)
        ex.close()
        ex.close()
        assert make_executor("thread", 2, reuse=True).pool is ex.pool

    def test_reuse_rejects_kwargs(self):
        with pytest.raises(TypeError, match="reusable"):
            make_executor("serial", 2, reuse=True, extra=1)

    def test_shutdown_clears_cache(self):
        ex = make_executor("thread", 2, reuse=True)
        inner = ex.pool
        ex.close()
        shutdown_pools()
        fresh = make_executor("thread", 2, reuse=True)
        try:
            assert fresh.pool is not inner
        finally:
            fresh.close()


class TestPtasPoolLifecycle:
    """parallel_ptas must thread ONE pooled executor through every
    bisection probe (the tentpole's cross-probe persistence)."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    def test_thread_backend_single_pool_across_probes(self, monkeypatch):
        import importlib

        from repro.model.instance import Instance

        # repro.core re-exports the ptas *function* under the same name,
        # shadowing the submodule attribute; resolve the module directly.
        ptas_mod = importlib.import_module("repro.core.ptas")

        seen = []
        real_parallel_dp = ptas_mod.parallel_dp

        def spying(problem, num_workers, backend, **kwargs):
            seen.append(kwargs.get("executor"))
            return real_parallel_dp(problem, num_workers, backend, **kwargs)

        monkeypatch.setattr(ptas_mod, "parallel_dp", spying)
        inst = Instance([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], num_machines=3)
        result = ptas_mod.parallel_ptas(
            inst,
            0.3,
            num_workers=2,
            backend="thread",
            ctx=SolveContext(warm_start=False),
        )
        assert result.num_bisection_iterations == len(seen)
        assert len(seen) >= 2  # needs multiple probes to mean anything
        assert all(ex is seen[0] for ex in seen)
        assert isinstance(seen[0], ReusableExecutor)
        # The driver released the pool back to the cache on completion.
        reacquired = make_executor("thread", 2, reuse=True)
        try:
            assert reacquired.pool is seen[0].pool
        finally:
            reacquired.close()
