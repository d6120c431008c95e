"""Tests for the ``op=stream`` wire protocol and per-tenant sessions.

Covers the wire types (:class:`StreamRequest` / :class:`StreamResult`),
the :class:`repro.online.session.SessionManager` both services embed,
tenant-to-shard routing, the single-process server end to end over real
sockets, and the sharded pool end to end (slow-marked, like the other
pool tests).
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.model.verify import verify_schedule
from repro.online import LiveSchedule, StreamEvent
from repro.online.session import SessionManager, snapshot_name
from repro.service.requests import StreamRequest, StreamResult
from repro.service.server import SolveService, start_server, stream_events
from repro.service.sharding import tenant_shard
from repro.store import ResultStore


def run(coro):
    return asyncio.run(coro)


def _open(tenant, machines=2, **kwargs) -> StreamRequest:
    return StreamRequest(
        action="open_session", tenant=tenant, machines=machines, **kwargs
    )


def _add(tenant, jobs, **kwargs) -> StreamRequest:
    return StreamRequest(
        action="add_jobs", tenant=tenant, jobs=tuple(jobs), **kwargs
    )


class TestStreamWire:
    def test_request_round_trips_through_json(self):
        req = StreamRequest(
            action="add_jobs",
            tenant="acme",
            jobs=(("a", 3), ("b", 7)),
            request_id="r1",
        )
        decoded = StreamRequest.from_json(req.to_json())
        assert decoded == req
        assert req.to_dict()["op"] == "stream"

    def test_request_validation(self):
        with pytest.raises(ValueError, match="action"):
            StreamRequest(action="explode", tenant="t")
        with pytest.raises(ValueError, match="tenant"):
            StreamRequest(action="close", tenant="")
        with pytest.raises(ValueError, match=">= 1"):
            _add("t", [("a", 0)])
        with pytest.raises(ValueError, match="machines"):
            StreamRequest(action="open_session", tenant="t", machines=0)
        with pytest.raises(ValueError, match="drift_threshold"):
            _open("t", drift_threshold=0.5)

    def test_numeric_fields_are_coerced_not_trusted(self):
        # JSON clients send floats/strings; they must become real ints
        # (or clean ValueErrors) at the wire boundary, never TypeErrors
        # deep inside LiveSchedule.
        assert _open("t", machines=4.0).machines == 4
        assert _open("t", machines="4").machines == 4
        assert isinstance(_open("t", machines=4.0).machines, int)
        with pytest.raises(ValueError, match="machines"):
            _open("t", machines=4.5)
        with pytest.raises(ValueError, match="machines"):
            _open("t", machines="four")
        with pytest.raises(ValueError, match="machines"):
            _open("t", machines=None)
        assert _open("t", eps="0.25").eps == pytest.approx(0.25)
        with pytest.raises(ValueError, match="eps"):
            _open("t", eps="tiny")
        assert _open("t", drift_threshold="1.5").drift_threshold == 1.5
        with pytest.raises(ValueError, match="drift_threshold"):
            _open("t", drift_threshold="lots")
        with pytest.raises(ValueError, match="jobs"):
            _add("t", [("a", ["not", "a", "time"])])

    def test_from_dict_is_strict(self):
        with pytest.raises(ValueError, match="missing"):
            StreamRequest.from_dict({"op": "stream", "action": "close"})
        with pytest.raises(ValueError, match="unknown stream request field"):
            StreamRequest.from_dict(
                {"op": "stream", "action": "close", "tenant": "t", "wat": 1}
            )
        with pytest.raises(ValueError, match="op="):
            StreamRequest.from_dict(
                {"op": "solve", "action": "close", "tenant": "t"}
            )

    def test_result_round_trips_through_json(self):
        res = StreamResult(
            request_id="r1",
            tenant="acme",
            action="snapshot",
            makespan=12,
            ratio=1.05,
            resolves=2,
            repairs=9,
            num_jobs=4,
            snapshot={"version": 1},
        )
        decoded = StreamResult.from_json(res.to_json())
        assert decoded == res and decoded.ok

    def test_stream_event_converts_to_requests(self):
        add = StreamEvent(kind="add", jobs=(("a", 4),))
        req = add.to_stream_request("t7")
        assert req.action == "add_jobs" and req.jobs == (("a", 4),)
        rem = StreamEvent(kind="remove", job_ids=("a",))
        assert rem.to_stream_request("t7").action == "remove_jobs"


class TestTenantShard:
    def test_deterministic_and_in_range(self):
        for tenant in ("acme", "zebra", "tenant-42", "日本語"):
            shard = tenant_shard(tenant, 4)
            assert shard == tenant_shard(tenant, 4)
            assert 0 <= shard < 4
        assert tenant_shard("anything", 1) == 0

    def test_spreads_tenants(self):
        shards = {tenant_shard(f"tenant-{i}", 8) for i in range(64)}
        assert len(shards) > 4  # sha256 spreads well past half the shards

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            tenant_shard("t", 0)
        with pytest.raises(ValueError):
            tenant_shard("", 4)


class TestSessionManager:
    def test_session_lifecycle(self):
        mgr = SessionManager()
        opened = mgr.apply(_open("t", machines=2))
        assert opened.ok and not opened.restored and mgr.num_sessions == 1
        added = mgr.apply(_add("t", [("a", 5), ("b", 9), ("c", 7)]))
        assert added.ok and added.num_jobs == 3 and added.makespan == 12
        removed = mgr.apply(
            StreamRequest(action="remove_jobs", tenant="t", job_ids=("a",))
        )
        assert removed.ok and removed.num_jobs == 2
        snap = mgr.apply(StreamRequest(action="snapshot", tenant="t"))
        assert snap.ok and snap.snapshot is not None
        restored = LiveSchedule.restore(snap.snapshot)
        assert verify_schedule(restored.schedule()).ok
        closed = mgr.apply(StreamRequest(action="close", tenant="t"))
        assert closed.ok and mgr.num_sessions == 0

    def test_event_errors_do_not_kill_the_session(self):
        mgr = SessionManager()
        mgr.apply(_open("t"))
        mgr.apply(_add("t", [("a", 5)]))
        dup = mgr.apply(_add("t", [("a", 5)]))
        assert not dup.ok and "already" in (dup.error or "")
        ghost = mgr.apply(
            StreamRequest(action="remove_jobs", tenant="t", job_ids=("zz",))
        )
        assert not ghost.ok
        orphan = mgr.apply(_add("other", [("x", 1)]))
        assert not orphan.ok and "no open session" in (orphan.error or "")
        batch_dup = mgr.apply(_add("t", [("b", 5), ("b", 3)]))
        assert not batch_dup.ok and "duplicated" in (batch_dup.error or "")
        remove_dup = mgr.apply(
            StreamRequest(action="remove_jobs", tenant="t", job_ids=("a", "a"))
        )
        assert not remove_dup.ok and "duplicated" in (remove_dup.error or "")
        still = mgr.apply(StreamRequest(action="snapshot", tenant="t"))
        assert still.ok and still.num_jobs == 1

    def test_apply_contains_arbitrary_event_exceptions(self, monkeypatch):
        # apply is the wire boundary both services and every pool worker
        # stand behind: nothing an event provokes may escape it, or one
        # malformed line kills a worker and every session on its shard.
        mgr = SessionManager()
        mgr.apply(_open("t"))
        mgr.apply(_add("t", [("a", 5)]))
        monkeypatch.setattr(
            LiveSchedule,
            "add_jobs",
            lambda self, jobs: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        hurt = mgr.apply(_add("t", [("b", 3)]))
        assert not hurt.ok and "RuntimeError: boom" in (hurt.error or "")
        monkeypatch.undo()
        still = mgr.apply(StreamRequest(action="snapshot", tenant="t"))
        assert still.ok and still.num_jobs == 1

    def test_independent_tenants_do_not_serialize_behind_one_lock(self):
        # One tenant's slow event (think: drift-triggered re-solve) must
        # not block another tenant's stream — only the session table
        # lock is shared, and it is never held across an event.
        import threading
        import time as time_mod

        mgr = SessionManager()
        mgr.apply(_open("slow"))
        mgr.apply(_open("fast"))
        slow_live = mgr.get("slow")
        started = threading.Event()
        original = LiveSchedule.add_jobs

        def stalled_add(self, jobs):
            if self is slow_live:
                started.set()
                time_mod.sleep(0.5)
            return original(self, jobs)

        LiveSchedule.add_jobs = stalled_add
        try:
            slow_thread = threading.Thread(
                target=mgr.apply, args=(_add("slow", [("s", 5)]),)
            )
            slow_thread.start()
            assert started.wait(5.0)
            t0 = time_mod.monotonic()
            fast = mgr.apply(_add("fast", [("f", 3)]))
            elapsed = time_mod.monotonic() - t0
            slow_thread.join(5.0)
        finally:
            LiveSchedule.add_jobs = original
        assert fast.ok and fast.num_jobs == 1
        assert elapsed < 0.4  # did not wait out the slow tenant's event
        assert mgr.get("slow").num_jobs == 1

    def test_close_retires_tenant_gauges(self):
        from repro.service.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        mgr = SessionManager(metrics=metrics)
        mgr.apply(_open("t"))
        mgr.apply(_add("t", [("a", 5)]))
        assert any(
            name.startswith("tenant.t.")
            for name in metrics.snapshot()["gauges"]
        )
        mgr.apply(StreamRequest(action="close", tenant="t"))
        assert not any(
            name.startswith("tenant.t.")
            for name in metrics.snapshot()["gauges"]
        )

    def test_open_is_idempotent(self):
        mgr = SessionManager()
        mgr.apply(_open("t"))
        mgr.apply(_add("t", [("a", 5)]))
        again = mgr.apply(_open("t"))
        assert again.ok and again.num_jobs == 1

    def test_durable_snapshot_restores_across_managers(self, tmp_path):
        with ResultStore(tmp_path) as store:
            first = SessionManager(store=store)
            first.apply(_open("t", machines=3))
            first.apply(_add("t", [(f"j{i}", 2 + i) for i in range(6)]))
            closed = first.apply(StreamRequest(action="close", tenant="t"))
            assert closed.ok
            assert snapshot_name("t") in store.trace_names()
            # A fresh manager (fresh process, same store) restores it.
            second = SessionManager(store=store)
            reopened = second.apply(_open("t", machines=3))
            assert reopened.ok and reopened.restored
            assert reopened.num_jobs == 6
            assert reopened.makespan == closed.makespan
            live = second.get("t")
            assert verify_schedule(live.schedule()).ok

    def test_close_without_persist_leaves_no_snapshot(self, tmp_path):
        with ResultStore(tmp_path) as store:
            mgr = SessionManager(store=store)
            mgr.apply(_open("t", persist=False))
            mgr.apply(_add("t", [("a", 5)], persist=False))
            mgr.apply(
                StreamRequest(action="close", tenant="t", persist=False)
            )
            assert snapshot_name("t") not in store.trace_names()


class TestServerStream:
    def test_streamed_session_over_sockets(self):
        async def scenario():
            svc = SolveService()
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                requests = [
                    _open("acme", machines=2, eps=0.2),
                    _add("acme", [("a", 5)], request_id="e1"),
                    _add("acme", [("b", 5)], request_id="e2"),
                    _add("acme", [("c", 5)], request_id="e3"),
                    _add("acme", [("a", 1)], request_id="dup"),
                    StreamRequest(action="snapshot", tenant="acme"),
                    StreamRequest(action="close", tenant="acme"),
                ]
                results = await stream_events("127.0.0.1", port, requests)
                stats = await svc.stats()
            finally:
                server.close()
                await server.wait_closed()
                await svc.aclose()
            return results, stats

        results, stats = run(scenario())
        opened, e1, e2, e3, dup, snap, closed = results
        assert opened.ok and e1.ok and e2.ok and e3.ok
        # Three equal jobs on two machines drift past 1.2 → a re-solve
        # fired inside the third event, so the session stays certified.
        assert e3.resolves >= 1 and e3.ratio <= 1.2 + 1e-6
        assert not dup.ok and "already" in (dup.error or "")
        assert snap.ok and snap.snapshot is not None
        restored = LiveSchedule.restore(snap.snapshot)
        assert verify_schedule(restored.schedule()).ok
        assert closed.ok
        assert stats["counters"]["stream_events_total"] == 7
        assert stats["counters"]["stream_errors"] == 1
        assert stats["gauges"]["stream_sessions"] == 0.0

    def test_malformed_stream_request_is_clean_error(self):
        async def scenario():
            svc = SolveService()
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b'{"op":"stream","action":"warp"}\n')
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await svc.aclose()
            return StreamResult.from_json(line.decode())

        result = run(scenario())
        assert not result.ok and result.error

    def test_unparseable_stream_payloads_keep_connection_alive(self):
        # Payload shapes that used to raise TypeError past the old
        # ValueError-only guard (e.g. jobs=42 makes from_dict iterate an
        # int) must come back as error results on a live connection.
        async def scenario():
            svc = SolveService()
            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                bad_lines = [
                    b'{"op":"stream","action":"add_jobs","tenant":"t","jobs":42}\n',
                    b'{"op":"stream","action":"open_session","tenant":"t","machines":"four"}\n',
                    b'{"op":"stream","action":"open_session","tenant":"t","machines":4.5}\n',
                ]
                errors = []
                for line in bad_lines:
                    writer.write(line)
                    await writer.drain()
                    errors.append(
                        StreamResult.from_json((await reader.readline()).decode())
                    )
                # The same connection still serves a well-formed session.
                writer.write(_open("t", machines=2).to_json().encode() + b"\n")
                await writer.drain()
                opened = StreamResult.from_json(
                    (await reader.readline()).decode()
                )
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await svc.aclose()
            return errors, opened

        errors, opened = run(scenario())
        assert all(not e.ok and e.error for e in errors)
        assert opened.ok

    def test_handle_stream_crash_becomes_error_result(self, monkeypatch):
        # A failure inside handle_stream itself (past parsing) must be
        # reported on the open connection, not tear it down.
        async def scenario():
            svc = SolveService()

            async def explode(request):
                raise RuntimeError("kaboom")

            server = await start_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                monkeypatch.setattr(svc, "handle_stream", explode)
                writer.write(_open("t", machines=2).to_json().encode() + b"\n")
                await writer.drain()
                crashed = StreamResult.from_json(
                    (await reader.readline()).decode()
                )
                monkeypatch.undo()
                writer.write(_open("t", machines=2).to_json().encode() + b"\n")
                await writer.drain()
                opened = StreamResult.from_json(
                    (await reader.readline()).decode()
                )
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await svc.aclose()
            return crashed, opened

        crashed, opened = run(scenario())
        assert not crashed.ok and "RuntimeError: kaboom" in (crashed.error or "")
        assert crashed.tenant == "t" and crashed.action == "open_session"
        assert opened.ok


@pytest.mark.slow
class TestPooledStream:
    def test_pinned_session_with_durable_reopen(self, tmp_path):
        async def scenario():
            svc = SolveService(
                2, store_root=str(tmp_path), spawn_grace=120
            )
            try:
                opened = await svc.handle_stream(_open("acme", machines=2))
                assert opened.ok and not opened.restored
                for i, t in enumerate((5, 5, 5)):
                    last = await svc.handle_stream(
                        _add("acme", [(f"j{i}", t)])
                    )
                assert last.ok and last.num_jobs == 3
                assert last.resolves >= 1  # drift fired on the worker
                closed = await svc.handle_stream(
                    StreamRequest(action="close", tenant="acme")
                )
                assert closed.ok
                reopened = await svc.handle_stream(_open("acme", machines=2))
                assert reopened.ok and reopened.restored
                assert reopened.num_jobs == 3
                assert reopened.makespan == closed.makespan
                stats = await svc.stats()
            finally:
                await svc.aclose()
            return stats

        stats = run(scenario())
        assert stats["counters"]["pool.stream_dispatched"] == 6.0
        shard = tenant_shard("acme", 2)
        assert (
            stats["counters"][f"pool.shard.{shard}.stream_dispatched"] == 6.0
        )
        # Tenant gauges are lifted to the top level un-prefixed (a tenant
        # lives on exactly one worker).
        assert stats["gauges"]["tenant.acme.jobs"] == 3.0

    def test_inf_threshold_session_never_resolves(self, tmp_path):
        async def scenario():
            svc = SolveService(
                1, store_root=str(tmp_path), spawn_grace=120
            )
            try:
                await svc.handle_stream(
                    _open("lazy", machines=2, drift_threshold=math.inf)
                )
                for i in range(6):
                    last = await svc.handle_stream(
                        _add("lazy", [(f"j{i}", 5)])
                    )
                await svc.handle_stream(
                    StreamRequest(action="close", tenant="lazy")
                )
            finally:
                await svc.aclose()
            return last

        last = run(scenario())
        assert last.ok and last.resolves == 0 and last.num_jobs == 6
