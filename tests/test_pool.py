"""Tests for the sharded multi-process solver pool
(:mod:`repro.service.supervisor`, :mod:`repro.service.worker`).

The process-spawning e2e tests are marked ``slow``; the
``aggregate_pool_stats`` unit tests run without any worker processes.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.model.schedule import Schedule
from repro.model.verify import verify_schedule
from repro.service.cache import canonical_key
from repro.service.metrics import aggregate_pool_stats
from repro.service.requests import SolveRequest
from repro.service.server import SolveService
from repro.service.sharding import shard_of_request
from repro.store import ResultStore, recover_all


def run(coro):
    return asyncio.run(coro)


def _req(times, machines=3, engine="ptas", eps=0.3, **kwargs) -> SolveRequest:
    return SolveRequest(
        times=tuple(times), machines=machines, engine=engine, eps=eps, **kwargs
    )


#: An instance whose PTAS solve takes long enough (seconds at eps=0.05)
#: that a test can reliably kill or deadline it mid-flight.
SLOW_TIMES = tuple(((i * 37) % 97) + 3 for i in range(60))


def _slow_req(**kwargs) -> SolveRequest:
    return _req(SLOW_TIMES, machines=5, eps=0.05, **kwargs)


class TestAggregatePoolStats:
    def test_namespaces_and_sums_counters(self):
        own = {"counters": {"requests_total": 5}, "gauges": {}, "histograms": {}}
        workers = {
            0: {"counters": {"solves_total": 2}, "gauges": {}, "histograms": {}},
            1: {"counters": {"solves_total": 3}, "gauges": {}, "histograms": {}},
        }
        merged = aggregate_pool_stats(own, workers)
        assert merged["counters"]["requests_total"] == 5
        assert merged["counters"]["worker.0.solves_total"] == 2
        assert merged["counters"]["worker.1.solves_total"] == 3
        assert merged["counters"]["pool.solves_total"] == 5

    def test_histograms_merge_exactly_and_drop_percentiles(self):
        h0 = {"count": 2, "sum": 3.0, "mean": 1.5, "min": 1.0, "max": 2.0,
              "p50": 1.5, "p99": 2.0}
        h1 = {"count": 1, "sum": 0.5, "mean": 0.5, "min": 0.5, "max": 0.5,
              "p50": 0.5, "p99": 0.5}
        merged = aggregate_pool_stats(
            {"counters": {}, "gauges": {}, "histograms": {}},
            {
                0: {"counters": {}, "gauges": {}, "histograms": {"h": h0}},
                1: {"counters": {}, "gauges": {}, "histograms": {"h": h1}},
            },
        )
        pooled = merged["histograms"]["pool.h"]
        assert pooled["count"] == 3
        assert pooled["sum"] == pytest.approx(3.5)
        assert pooled["mean"] == pytest.approx(3.5 / 3)
        assert pooled["min"] == 0.5
        assert pooled["max"] == 2.0
        # Reservoir percentiles don't compose across processes.
        assert pooled["p50"] is None and pooled["p99"] is None
        # The per-worker views keep theirs.
        assert merged["histograms"]["worker.0.h"]["p50"] == 1.5

    def test_unreachable_worker_is_flagged_not_summed(self):
        merged = aggregate_pool_stats(
            {"counters": {}, "gauges": {}, "histograms": {}},
            {
                0: {"counters": {"solves_total": 4}, "gauges": {}, "histograms": {}},
                1: None,
            },
        )
        assert merged["gauges"]["worker.1.unreachable"] == 1.0
        assert merged["gauges"]["pool.workers_unreachable"] == 1.0
        assert merged["counters"]["pool.solves_total"] == 4

    def test_empty_pool_is_just_own_snapshot(self):
        own = {"counters": {"a": 1}, "gauges": {"b": 2.0}, "histograms": {}}
        merged = aggregate_pool_stats(own, {})
        assert merged["counters"] == {"a": 1}
        assert merged["gauges"] == {"b": 2.0, "pool.workers_unreachable": 0.0}


@pytest.mark.slow
class TestPooledService:
    def test_solves_verify_and_twin_hits_shard_cache(self, tmp_path):
        async def scenario():
            svc = SolveService(2, store_root=str(tmp_path), spawn_grace=120)
            try:
                first = await svc.handle(_req([5, 3, 8, 6, 2, 7], request_id="a"))
                assert first.ok and not first.cached
                inst = _req([5, 3, 8, 6, 2, 7]).instance()
                verify_schedule(
                    Schedule(inst, first.assignment), inst
                ).raise_if_failed()
                # Permuted twin: same canonical key, same shard, warm cache.
                twin = await svc.handle(_req([8, 7, 6, 5, 3, 2], request_id="b"))
                assert twin.ok and twin.cached
                assert twin.makespan == first.makespan
                assert twin.request_id == "b"
                stats = await svc.stats()
                assert stats["counters"]["pool.solves_total"] == 1
                assert stats["counters"]["pool.cache_hits"] == 1
                health = await svc.healthcheck()
                assert health["ok"] and health["workers"] == 2
                assert all(d["alive"] for d in health["details"])
            finally:
                await svc.aclose()

        run(scenario())

    def test_invalid_request_is_clean_error(self):
        async def scenario():
            svc = SolveService(1, spawn_grace=120)
            try:
                bad = await svc.handle(_req([5, 3], engine="no-such-engine"))
                assert bad.status == "error"
                assert "no-such-engine" in (bad.error or "")
            finally:
                await svc.aclose()

        run(scenario())

    def test_sigkilled_worker_is_respawned_and_request_answered(self, tmp_path):
        """The acceptance e2e: SIGKILL a worker mid-solve; the supervisor
        must respawn it and answer the in-flight request — re-solved, or
        degraded to a valid LPT schedule — within the deadline."""

        async def scenario():
            deadline = 6.0
            svc = SolveService(2, store_root=str(tmp_path), spawn_grace=120)
            try:
                await svc.start()
                request = _slow_req(deadline=deadline, request_id="victim")
                shard = shard_of_request(request, 2)
                handle = svc.lane.handles[shard]
                old_pid = handle.proc.pid
                t0 = time.monotonic()
                task = asyncio.create_task(svc.handle(request))
                await asyncio.sleep(0.4)  # let the solve get in flight
                os.kill(old_pid, signal.SIGKILL)
                result = await task
                elapsed = time.monotonic() - t0
                assert result.ok, result.error
                assert elapsed < deadline + 1.0
                inst = request.instance()
                verify_schedule(
                    Schedule(inst, result.assignment), inst
                ).raise_if_failed()
                if result.degraded:
                    assert result.engine == "lpt"
                # The shard has a fresh process serving again.
                health = await svc.healthcheck()
                detail = health["details"][shard]
                assert detail["alive"] and detail["responsive"]
                assert detail["pid"] != old_pid
                assert detail["restarts"] >= 1
                follow_up = await svc.handle(
                    _req([4, 4, 4, 4], machines=2, request_id="after")
                )
                assert follow_up.ok
                stats = await svc.stats()
                assert stats["counters"]["pool.worker_deaths"] >= 1
                assert stats["counters"]["pool.worker_restarts"] >= 1
            finally:
                await svc.aclose()
            return str(tmp_path)

        root = run(scenario())
        # The killed worker left an uncommitted journal entry behind;
        # multi-journal recovery replays it into the shared store.
        store = ResultStore(root)
        try:
            from repro.algorithms.lpt import lpt, lpt_worst_case_ratio
            from repro.service.requests import SolveResult

            def stub(request):
                schedule = lpt(request.instance())
                return SolveResult(
                    request_id=request.request_id,
                    status="ok",
                    engine="lpt",
                    makespan=schedule.makespan,
                    assignment=schedule.assignment,
                    guarantee=lpt_worst_case_ratio(request.machines),
                )

            report = recover_all(store, root, solve=stub)
        finally:
            store.close()
        assert report.ok
        assert report.entries >= 1

    def test_deadline_mid_solve_degrades_to_lpt(self):
        async def scenario():
            svc = SolveService(1, spawn_grace=120)
            try:
                result = await svc.handle(
                    _slow_req(deadline=0.4, request_id="tight")
                )
                assert result.ok
                assert result.degraded
                assert result.engine == "lpt"
                inst = _slow_req().instance()
                verify_schedule(
                    Schedule(inst, result.assignment), inst
                ).raise_if_failed()
                stats = await svc.stats()
                assert stats["counters"]["pool.deadline_degradations"] >= 1
            finally:
                await svc.aclose()

        run(scenario())

    def test_write_through_store_and_clean_journals(self, tmp_path):
        async def scenario():
            svc = SolveService(2, store_root=str(tmp_path), spawn_grace=120)
            try:
                reqs = [
                    _req([5, 3, 8, 6], machines=2, request_id="s0"),
                    _req([9, 1, 7, 2, 4], machines=2, request_id="s1"),
                    _req([11, 13, 2, 6, 6, 6], machines=3, request_id="s2"),
                ]
                results = await asyncio.gather(*(svc.handle(r) for r in reqs))
                assert all(r.ok and not r.degraded for r in results)
                return reqs
            finally:
                await svc.aclose()

        reqs = run(scenario())
        # Per-worker journals exist and checkpointed empty on clean exit.
        journals = sorted(
            p.name for p in tmp_path.iterdir() if p.name.startswith("journal")
        )
        assert journals == ["journal-w0.jsonl", "journal-w1.jsonl"]
        for name in journals:
            assert (tmp_path / name).stat().st_size == 0
        # Every result is durably readable through the shared store.
        store = ResultStore(str(tmp_path))
        try:
            for req in reqs:
                stored = store.get(canonical_key(req))
                assert stored is not None
                assert stored.makespan is not None
            report = recover_all(store, str(tmp_path))
        finally:
            store.close()
        assert report.ok and report.entries == 0

    def test_distinct_keys_spread_and_stats_namespace_workers(self, tmp_path):
        async def scenario():
            svc = SolveService(2, store_root=str(tmp_path), spawn_grace=120)
            try:
                reqs = [
                    _req([i + 2, 2 * i + 3, 7, 5], machines=2, request_id=f"d{i}")
                    for i in range(8)
                ]
                results = await asyncio.gather(*(svc.handle(r) for r in reqs))
                assert all(r.ok for r in results)
                stats = await svc.stats()
                counters = stats["counters"]
                assert counters["pool.solves_total"] == 8
                # Both shards did work for this key spread.
                per_worker = [
                    counters.get(f"worker.{i}.solves_total", 0) for i in (0, 1)
                ]
                assert sum(per_worker) == 8
                assert all(n > 0 for n in per_worker)
                assert stats["gauges"]["pool.workers"] == 2.0
                assert "pool.solve_seconds" in stats["histograms"]
            finally:
                await svc.aclose()

        run(scenario())
