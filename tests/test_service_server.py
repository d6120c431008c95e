"""Tests for the asyncio scheduling service (:mod:`repro.service.server`).

The unit tests drive :meth:`SolveService.handle` in-process; the
end-to-end test boots the JSON-lines TCP server and pushes 50+
concurrent mixed requests through real sockets — the acceptance
criterion of the subsystem.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import threading

import pytest

from repro.algorithms.lpt import lpt
from repro.model.instance import Instance
from repro.model.verify import verify_schedule
from repro.online.session import SessionManager
from repro.service import registry
from repro.service.admission import AdmissionController
from repro.service.cache import canonical_key
from repro.service.registry import fallback_result, solve_to_result
from repro.service.requests import SolveRequest, SolveResult, StreamRequest
from repro.service.server import (
    SolveService,
    send_op,
    start_server,
    submit,
)


def run(coro):
    return asyncio.run(coro)


async def _closed(service: SolveService, server=None):
    if server is not None:
        server.close()
        await server.wait_closed()
    await service.aclose()


def _req(times, machines=3, engine="lpt", **kwargs) -> SolveRequest:
    return SolveRequest(times=tuple(times), machines=machines, engine=engine, **kwargs)


def _blocking_engine(monkeypatch) -> tuple[threading.Event, threading.Event]:
    """Register a ``blocking`` engine that answers LPT once released;
    returns its ``(started, release)`` events."""
    started, release = threading.Event(), threading.Event()

    def solve(instance, request, ctx):
        started.set()
        release.wait(30.0)
        return lpt(instance)

    spec = registry.EngineSpec(
        name="blocking",
        description="test engine: blocks until released, then LPT",
        guarantee=lambda request: 4 / 3,
        solve=solve,
    )
    monkeypatch.setitem(registry._REGISTRY, "blocking", spec)
    return started, release


class TestHandle:
    def test_solves_and_reports_guarantee(self):
        async def scenario():
            svc = SolveService(max_workers=2)
            try:
                res = await svc.handle(
                    _req([7, 7, 6, 6, 5, 4, 4, 3], engine="ptas", request_id="x")
                )
            finally:
                await _closed(svc)
            return res

        res = run(scenario())
        assert res.ok and not res.degraded
        assert res.request_id == "x"
        assert res.guarantee == pytest.approx(1.3)
        inst = Instance((7, 7, 6, 6, 5, 4, 4, 3), 3)
        assert verify_schedule(res.schedule(inst), inst).ok

    def test_unknown_engine_is_clean_error(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(_req([1, 2, 3], engine="nope"))
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "error"
        assert "unknown engine" in res.error

    def test_invalid_instance_is_clean_error(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(
                    SolveRequest(times=(), machines=2, engine="lpt")
                )
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "error"

    def test_repeat_request_served_from_cache(self):
        async def scenario():
            svc = SolveService()
            try:
                first = await svc.handle(_req([5, 4, 3, 2, 1], engine="ptas"))
                second = await svc.handle(_req([5, 4, 3, 2, 1], engine="ptas"))
                permuted = await svc.handle(_req([1, 2, 3, 4, 5], engine="ptas"))
            finally:
                await _closed(svc)
            return first, second, permuted, svc.lane.shard.cache.stats()

        first, second, permuted, stats = run(scenario())
        assert not first.cached and second.cached and permuted.cached
        assert first.makespan == second.makespan == permuted.makespan
        assert stats["hits"] == 2

    def test_q_cmax_request_end_to_end(self):
        async def scenario():
            svc = SolveService()
            try:
                res = await svc.handle(
                    SolveRequest(
                        times=(37, 21, 18, 95, 42, 7),
                        machines=3,
                        problem="q_cmax",
                        speeds=(4, 2, 1),
                        engine="lpt",
                        request_id="q1",
                    )
                )
                counted = svc.metrics.counter("requests.problem.q_cmax").value
            finally:
                await _closed(svc)
            return res, counted

        res, counted = run(scenario())
        assert res.ok and not res.degraded
        assert counted == 1
        from repro.model.qinstance import QInstance

        inst = QInstance((37, 21, 18, 95, 42, 7), speeds=(4, 2, 1))
        sched = res.schedule(inst)
        assert verify_schedule(sched, inst).ok
        assert res.makespan == sched.makespan
        assert res.makespan <= res.guarantee * inst.trivial_lower_bound() + 1e-9

    def test_q_unsupported_engine_pair_is_clean_error(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(
                    SolveRequest(
                        times=(5, 4),
                        machines=2,
                        problem="q_cmax",
                        speeds=(2, 1),
                        engine="ptas",
                    )
                )
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "error"
        assert "does not support problem 'q_cmax'" in res.error
        assert "lpt" in res.error

    def test_deadline_degrades_to_lpt(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(
                    _req(
                        range(1, 120),
                        machines=5,
                        engine="ptas",
                        eps=0.05,
                        deadline=0.0,
                    )
                )
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.ok and res.degraded
        assert res.engine == "lpt"
        m = 5
        assert res.guarantee == pytest.approx(4 / 3 - 1 / (3 * m))
        inst = Instance(tuple(range(1, 120)), m)
        assert verify_schedule(res.schedule(inst), inst).ok

    def test_degraded_results_are_not_cached(self):
        async def scenario():
            svc = SolveService()
            try:
                await svc.handle(
                    _req(range(1, 80), engine="ptas", eps=0.1, deadline=0.0)
                )
                return await svc.handle(_req(range(1, 80), engine="ptas", eps=0.1))
            finally:
                await _closed(svc)

        res = run(scenario())
        assert not res.cached and not res.degraded

    def test_non_cancellable_engine_degrades_from_event_loop(self):
        async def scenario():
            svc = SolveService()
            try:
                return await svc.handle(
                    _req([9, 8, 7, 6, 5, 4], engine="bnb", deadline=0.0)
                )
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.ok and res.degraded and res.engine == "lpt"

    def test_load_shedding_reports_retry_after(self):
        async def scenario():
            gate = AdmissionController(max_queue_depth=1)
            # Occupy the only slot so the real request is shed.
            gate.try_admit(_req([1, 2, 3]))
            svc = SolveService(admission=gate)
            try:
                return await svc.handle(_req([4, 5, 6]))
            finally:
                await _closed(svc)

        res = run(scenario())
        assert res.status == "rejected"
        assert res.retry_after > 0
        assert "queue full" in res.error

    def test_lone_requests_start_without_waiting(self):
        """With the defaults, a lone cold request goes to a worker thread
        at once: no window holds it back waiting for companions."""

        async def scenario():
            svc = SolveService()
            try:
                for i in range(10):
                    res = await svc.handle(_req([i + 1, 2 * i + 3, 5, 7]))
                    assert res.ok and not res.cached
                return await svc.stats()
            finally:
                await _closed(svc)

        snap = run(scenario())
        waits = snap["histograms"]["queue_wait_seconds"]
        assert waits["count"] == 10
        assert waits["p50"] < 0.005
        assert snap["histograms"]["batch_size"]["max"] == 1

    def test_stats_exposes_every_subsystem(self):
        async def scenario():
            svc = SolveService()
            try:
                await svc.handle(_req([3, 1, 2], engine="ptas"))
                return await svc.stats()
            finally:
                await _closed(svc)

        snap = run(scenario())
        assert snap["counters"]["requests_total"] == 1
        assert "result_cache.hits" in snap["gauges"]
        assert "admission.queue_depth" in snap["gauges"]
        assert "dp_config_cache.hits" in snap["gauges"]
        assert "pool_utilization" in snap["gauges"]
        assert "request_latency_seconds" in snap["histograms"]

    def test_stats_exposes_trace_phase_summary(self):
        """Every solve runs under a per-request tracer whose per-phase
        breakdown lands in the metrics snapshot (``op=stats``)."""

        async def scenario():
            svc = SolveService()
            try:
                await svc.handle(_req([7, 7, 6, 6, 5, 4, 4, 3], engine="ptas"))
                return await svc.stats()
            finally:
                await _closed(svc)

        snap = run(scenario())
        assert snap["counters"]["trace.spans.solve"] == 1
        assert snap["counters"]["trace.spans.probe"] >= 1
        assert snap["counters"]["trace.counters.probes"] >= 1
        assert snap["histograms"]["trace.phase.dp.seconds"]["count"] >= 1


class TestProtocol:
    def test_ping_stats_malformed_and_shutdown(self):
        async def scenario():
            svc = SolveService()
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pong = await send_op("127.0.0.1", port, "ping")
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"{broken\n")
            await writer.drain()
            broken = SolveResult.from_json((await reader.readline()).decode())
            writer.write(json.dumps({"op": "wat"}).encode() + b"\n")
            await writer.drain()
            unknown_op = SolveResult.from_json((await reader.readline()).decode())
            writer.write(json.dumps({"times": [1], "machines": 0}).encode() + b"\n")
            await writer.drain()
            bad_req = SolveResult.from_json((await reader.readline()).decode())
            writer.close()
            await writer.wait_closed()
            stats = await send_op("127.0.0.1", port, "stats")
            bye = await send_op("127.0.0.1", port, "shutdown")
            await _closed(svc, server)
            return pong, broken, unknown_op, bad_req, stats, bye, svc

        pong, broken, unknown_op, bad_req, stats, bye, svc = run(scenario())
        assert pong == {"op": "pong"}
        assert broken.status == "error" and "malformed" in broken.error
        assert unknown_op.status == "error" and "unknown op" in unknown_op.error
        assert bad_req.status == "error"
        assert stats["op"] == "stats" and "counters" in stats["stats"]
        assert bye == {"op": "bye"}
        assert svc._shutdown_event.is_set()


    def test_engine_error_is_answered_and_aborted(self, tmp_path):
        """An engine that raises answers ``status="error"`` on the wire,
        the connection keeps serving, and the request's journal entry is
        aborted rather than left pending for a restart to replay."""

        async def scenario():
            svc = SolveService(store_root=tmp_path)
            journal = svc.lane.shard.journal
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def ask(payload: dict) -> SolveResult:
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 5.0)
                return SolveResult.from_json(line.decode())

            try:
                # brute force refuses more than 18 jobs by raising.
                failed = await ask(
                    {"times": [1] * 19, "machines": 2, "engine": "brute"}
                )
                served = await ask({"times": [4, 3, 2], "machines": 2})
                return failed, served, journal.stats(), await svc.stats()
            finally:
                writer.close()
                await writer.wait_closed()
                await _closed(svc, server)

        failed, served, journal_stats, stats = run(scenario())
        assert failed.status == "error"
        assert failed.error.startswith("ValueError: brute force limited")
        assert served.ok
        assert journal_stats["uncommitted"] == 0
        assert journal_stats["aborts"] == 1
        assert journal_stats["commits"] == 1
        assert stats["counters"]["errors_total"] == 1


class TestLocalLaneDurability:
    def test_aclose_waits_for_a_running_solve(self, tmp_path, monkeypatch):
        """A clean shutdown lets a solve already running finish: its
        answer is ok and written through, and the journal ends empty."""
        from repro.store import ResultStore
        from repro.store.journal import JOURNAL_NAME

        started, release = _blocking_engine(monkeypatch)
        request = _req([5, 4, 3, 3, 3], machines=2, engine="blocking")

        async def scenario():
            svc = SolveService(store_root=tmp_path)
            solving = asyncio.create_task(svc.handle(request))
            assert await asyncio.to_thread(started.wait, 10.0)
            closing = asyncio.create_task(svc.aclose())
            await asyncio.sleep(0.2)
            waited = not closing.done()
            release.set()
            result = await solving
            await closing
            return waited, result

        waited, result = run(scenario())
        assert waited
        assert result.ok and not result.degraded
        assert (tmp_path / JOURNAL_NAME).read_bytes() == b""
        with ResultStore(tmp_path) as store:
            assert store.get(canonical_key(request)) is not None

    def test_fsyncs_stay_off_the_event_loop(self, tmp_path, monkeypatch):
        """The journal begin, the store put and the commit of a cold solve
        fsync on the lane's solve thread, never on the event loop."""
        real_fsync = os.fsync
        fsync_threads: list[int] = []

        def spy(fd):
            fsync_threads.append(threading.get_ident())
            return real_fsync(fd)

        async def scenario():
            svc = SolveService(store_root=tmp_path)
            try:
                monkeypatch.setattr(os, "fsync", spy)
                result = await svc.handle(
                    _req([7, 7, 6, 6, 5, 4, 4, 3], engine="ptas")
                )
                monkeypatch.setattr(os, "fsync", real_fsync)
            finally:
                await svc.aclose()
            return result, threading.get_ident()

        result, loop_thread = run(scenario())
        assert result.ok and not result.cached
        assert len(fsync_threads) >= 3  # begin, store put, commit
        assert loop_thread not in fsync_threads


PARITY_TIMES = (13, 11, 9, 8, 7, 7, 5, 4, 3)


class TestLaneParity:
    """The in-process lane and the worker pool answer one sequence alike."""

    @pytest.mark.parametrize(
        "pool_workers", [0, pytest.param(1, marks=pytest.mark.slow)]
    )
    def test_lanes_answer_alike(self, pool_workers):
        requests = [
            _req(PARITY_TIMES, engine="ptas", request_id="cold"),
            _req(PARITY_TIMES[::-1], engine="ptas", request_id="twin"),
            _req(
                (20, 19, 17, 15, 14, 12, 11, 10, 9, 8, 6, 5),
                engine="ptas",
                deadline=0.0,
                request_id="late",
            ),
            _req(PARITY_TIMES, engine="no-such-engine", request_id="unknown"),
        ]
        events = [
            StreamRequest(action="open_session", tenant="acme", machines=2),
            StreamRequest(
                action="add_jobs", tenant="acme", jobs=(("a", 5), ("b", 4), ("c", 3))
            ),
            StreamRequest(action="close", tenant="acme"),
        ]

        async def scenario():
            svc = SolveService(pool_workers, spawn_grace=120)
            try:
                answers = [await svc.handle(r) for r in requests]
                streamed = [await svc.handle_stream(e) for e in events]
            finally:
                await svc.aclose()
            return answers, streamed

        answers, streamed = run(scenario())
        cold = solve_to_result(requests[0]).makespan
        late = fallback_result(requests[2]).makespan
        assert [(a.status, a.makespan, a.cached, a.degraded) for a in answers] == [
            ("ok", cold, False, False),
            ("ok", cold, True, False),
            ("ok", late, False, True),
            ("error", None, False, False),
        ]
        sessions = SessionManager()
        expected = [sessions.apply(e) for e in events]
        assert [(r.status, r.makespan, r.num_jobs) for r in streamed] == [
            (r.status, r.makespan, r.num_jobs) for r in expected
        ]


class TestEndToEnd:
    """The subsystem acceptance run: ≥50 concurrent requests, mixed
    engines and deadlines, over real sockets."""

    def test_fifty_concurrent_mixed_requests(self):
        rng = random.Random(1234)
        requests: list[SolveRequest] = []

        # 1) PTAS traffic over a handful of base instances, resubmitted
        #    shuffled — the permuted repeats must hit the cache.
        bases = [
            tuple(rng.randint(1, 40) for _ in range(rng.randint(8, 14)))
            for _ in range(5)
        ]
        for i in range(15):
            times = list(bases[i % len(bases)])
            rng.shuffle(times)
            requests.append(
                _req(times, machines=3, engine="ptas", request_id=f"ptas-{i}")
            )
        # 2) Parallel PTAS on both pooled and serial wavefront backends.
        for i in range(8):
            times = [rng.randint(1, 30) for _ in range(10)]
            requests.append(
                _req(
                    times,
                    machines=3,
                    engine="parallel-ptas",
                    backend="thread" if i % 2 else "serial",
                    workers=2,
                    request_id=f"par-{i}",
                )
            )
        # 3) Cheap baseline traffic.
        for i, engine in enumerate(
            ["lpt"] * 10 + ["ls"] * 6 + ["multifit"] * 6
        ):
            times = [rng.randint(1, 50) for _ in range(rng.randint(5, 20))]
            requests.append(
                _req(times, machines=4, engine=engine, request_id=f"{engine}-{i}")
            )
        # 4) A little exact traffic.
        for i in range(3):
            times = [rng.randint(1, 9) for _ in range(7)]
            requests.append(
                _req(times, machines=2, engine="bnb", request_id=f"bnb-{i}")
            )
        # 5) Deadline-bound heavy PTAS solves that must degrade to LPT
        #    rather than time the client out.
        for i in range(3):
            times = [rng.randint(1, 400) for _ in range(150)]
            requests.append(
                _req(
                    times,
                    machines=6,
                    engine="ptas",
                    eps=0.04,
                    deadline=0.0 if i == 0 else 1e-4,
                    request_id=f"deadline-{i}",
                )
            )
        assert len(requests) >= 50

        async def scenario():
            svc = SolveService(
                max_workers=4,
                cache_size=256,
                admission=AdmissionController(
                    max_queue_depth=len(requests) + 8, max_inflight_ops=1e18
                ),
            )
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            results = await asyncio.gather(
                *(submit("127.0.0.1", port, r, timeout=120.0) for r in requests)
            )
            stats = await send_op("127.0.0.1", port, "stats")
            await _closed(svc, server)
            return results, stats

        results, stats = run(scenario())

        by_id = {r.request_id: r for r in results}
        assert len(by_id) == len(requests)
        for request in requests:
            result = by_id[request.request_id]
            assert result.ok, (request.request_id, result.error)
            inst = request.instance()
            schedule = result.schedule(inst)
            report = verify_schedule(schedule, inst)
            assert report.ok, (request.request_id, report.violations)
            assert schedule.makespan == result.makespan

        gauges = stats["stats"]["gauges"]
        counters = stats["stats"]["counters"]
        # Permuted/repeated PTAS instances were served from the cache.
        assert gauges["result_cache.hits"] > 0
        # At least one deadline-bound request degraded to LPT.
        degraded = [r for r in results if r.degraded]
        assert degraded
        assert all(r.engine == "lpt" for r in degraded)
        assert counters["degradations_total"] >= len(degraded)
        assert counters["requests_total"] == len(requests)
