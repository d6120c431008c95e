"""The asyncio scheduling service: JSON-lines front-end over the solvers.

Architecture (see ``docs/service.md`` for the full reference)::

    client ──JSON line──▶ connection handler ──▶ SolveService.handle
                                                   │ 1. lane.lookup (hit → reply)
                                                   │ 2. coalesce, admission gate
                                                   │ 3. lane.submit, deadline
                                                   ▼
                       LocalLane: one Shard on a ThreadPoolExecutor
                  or SupervisorPool: one Shard per worker process

:class:`SolveService` is the one front end: it validates, answers
cache hits, single-flights concurrent twins, admits, and enforces
deadlines, then hands the request to its lane.  Both lanes run the same
:class:`~repro.service.worker.Shard`, so the journal, the solve, the
write-through and the trace archive exist once.  In process, a memory
or disk hit is answered on the event loop without an await; everything
that blocks — the journal's fsyncs, the engine, the store put — runs on
a lane thread.  An engine that raises answers ``status="error"``
instead of leaving the client without a reply.

Graceful degradation: at a request's ``deadline`` the lane answers the
LPT schedule for the same instance tagged ``degraded=true`` with
Graham's ``4/3 - 1/(3m)`` guarantee — a worse bound, never a timeout.
A solve that is late when it would start never starts, and a running
PTAS solve stops at its next probe (the deadline hook is threaded into
the bisection through its :class:`~repro.core.context.SolveContext`).

Observability: every solve runs under a fresh :class:`repro.obs.Tracer`
whose per-phase summary is folded into the metrics registry, so
``{"op": "stats"}`` exposes ``trace.phase.<kind>.seconds`` histograms
alongside the service counters.

Durability (opt-in, ``store_root``, see ``docs/persistence.md``): the
cache reads and writes through to disk, every solve is journaled when
it starts and committed after it answers, and SIGTERM / SIGINT shut
down through the same graceful path as the ``shutdown`` op.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.service.admission import AdmissionController
from repro.service.cache import CacheKey, canonical_key
from repro.service.metrics import MetricsRegistry
from repro.service.registry import (
    UnknownEngineError,
    fallback_result,
    get_engine,
)
from repro.service.requests import (
    STATUS_ERROR,
    STATUS_REJECTED,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
    deadline_checker,
)
from repro.service.supervisor import DEFAULT_SPAWN_GRACE, SupervisorPool
from repro.service.worker import Shard

#: Default TCP port (no registered meaning; "Cmax" on a phone keypad-ish).
DEFAULT_PORT = 8357


class LocalLane:
    """One in-process :class:`~repro.service.worker.Shard` solved on a
    thread pool: the lane of ``SolveService(pool_workers=0)``.

    It shares the front end's metrics registry.  Each solve is one
    executor call (``batch_size`` observes 1 per call, and
    ``queue_wait_seconds`` times the wait for a free thread), so the
    journal, the solve and the write-through all run off the event loop.
    """

    def __init__(
        self,
        *,
        max_workers: int,
        metrics: MetricsRegistry,
        clock: Callable[[], float],
        **shard_options: Any,
    ) -> None:
        self.max_workers = max_workers
        self.metrics = metrics
        self._clock = clock
        self.shard = Shard(metrics=metrics, clock=clock, **shard_options)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-solve"
        )
        self._busy = 0

    async def start(self) -> None:
        """Nothing to spawn: the threads start on demand."""

    def lookup(self, request: SolveRequest) -> SolveResult | None:
        """Answer a memory or disk hit on the caller's thread."""
        return self.shard.lookup(request)

    def _run(self, func: Callable[..., Any], *args: Any) -> "asyncio.Future[Any]":
        future = asyncio.get_running_loop().run_in_executor(self._executor, func, *args)
        self._busy += 1
        self.metrics.gauge("executor_busy").set(self._busy)
        future.add_done_callback(self._release)
        return future

    def _release(self, _future: "asyncio.Future[Any]") -> None:
        self._busy -= 1
        self.metrics.gauge("executor_busy").set(self._busy)

    async def submit(
        self, request: SolveRequest, *, deadline_at: float | None = None
    ) -> SolveResult:
        """Solve *request* on a lane thread; at *deadline_at* answer the
        LPT fallback.  The wait is shielded: a solve left behind (by the
        deadline, or by a client that hung up) runs to its end or to its
        engine's next deadline check."""
        queued_at = self._clock()
        check = None if deadline_at is None else deadline_checker(deadline_at, self._clock)

        def solve() -> SolveResult:
            self.metrics.histogram("queue_wait_seconds").observe(self._clock() - queued_at)
            return self.shard.solve(request, check)

        self.metrics.histogram("batch_size").observe(1)
        future = self._run(solve)
        if deadline_at is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), max(0.0, deadline_at - self._clock())
            )
        except asyncio.TimeoutError:
            future.add_done_callback(lambda f: f.exception())  # reap quietly
            return fallback_result(request)

    async def submit_stream(self, request: StreamRequest) -> StreamResult:
        """Apply one live-schedule event on a lane thread (the session
        manager orders each tenant's events)."""
        return await self._run(self.shard.apply_stream, request)

    async def stats(self) -> dict[str, Any]:
        """The shared registry's snapshot, with the shard's gauges."""
        self.metrics.gauge("pool_utilization").set(self._busy / self.max_workers)
        return self.shard.stats()

    async def healthcheck(self) -> dict[str, Any]:
        """Alive iff we got here."""
        return {"ok": True, "mode": "single", "workers": 1, "executor_busy": self._busy}

    async def aclose(self) -> None:
        """Wait for the solves already running (queued ones are
        cancelled), then close the shard, all off the event loop."""

        def close() -> None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self.shard.close()

        await asyncio.get_running_loop().run_in_executor(None, close)


class SolveService:
    """Request orchestrator: validate → cache → coalesce → admit → lane.

    One front end for both deployment shapes.  With ``pool_workers=0``
    the lane is a :class:`LocalLane` (one shard on *max_workers*
    threads); with ``pool_workers >= 1`` it is a
    :class:`~repro.service.supervisor.SupervisorPool` of that many worker
    processes, each running one shard (*start_method* and *spawn_grace*
    apply to it).  ``store_root`` adds the durable tier and the
    write-ahead journal to every shard.

    The service is transport-agnostic — :meth:`handle` takes a
    :class:`SolveRequest` and returns a :class:`SolveResult`; the
    JSON-lines TCP front-end (:func:`start_server` / :func:`serve`) is
    one thin consumer, and tests or in-process callers are another.
    """

    def __init__(
        self,
        pool_workers: int = 0,
        *,
        max_workers: int = 4,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        default_deadline: float | None = None,
        store_root: str | None = None,
        store_ttl: float | None = None,
        cache_size: int = 1024,
        cache_ttl: float | None = None,
        archive_traces: bool = False,
        clock: Callable[[], float] = time.monotonic,
        start_method: str = "spawn",
        spawn_grace: float = DEFAULT_SPAWN_GRACE,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.admission = admission if admission is not None else AdmissionController()
        self.default_deadline = default_deadline
        self._clock = clock
        shard_options = dict(
            store_root=store_root,
            store_ttl=store_ttl,
            cache_size=cache_size,
            cache_ttl=cache_ttl,
            archive_traces=archive_traces,
        )
        self.lane: LocalLane | SupervisorPool
        if pool_workers >= 1:
            self.lane = SupervisorPool(
                pool_workers,
                metrics=self.metrics,
                clock=clock,
                start_method=start_method,
                spawn_grace=spawn_grace,
                **shard_options,
            )
        else:
            self.lane = LocalLane(
                max_workers=max_workers, metrics=self.metrics, clock=clock, **shard_options
            )
        self._inflight: dict[CacheKey, asyncio.Future[None]] = {}
        self._started = False
        self._start_lock = asyncio.Lock()
        self._shutdown_event: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the lane (idempotent; the first request also calls it):
        a pool spawns its workers and waits until each is ready."""
        async with self._start_lock:
            await self.lane.start()
        self._started = True

    def request_shutdown(self) -> None:
        """Ask :func:`serve` to wind down (set by the ``shutdown`` op)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def aclose(self) -> None:
        """Shut the lane down cleanly: solves already running finish, and
        a clean exit leaves every journal empty and every segment closed."""
        await self.lane.aclose()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def handle(self, request: SolveRequest) -> SolveResult:
        """Serve one request end to end (cache → admission → solve)."""
        if not self._started:
            await self.start()
        t0 = self._clock()
        self.metrics.counter("requests_total").inc()
        self.metrics.counter(f"requests.problem.{request.problem}").inc()
        try:
            request.instance()  # eager structural validation
            get_engine(request.engine, problem=request.problem)
        except (UnknownEngineError, ValueError, TypeError) as exc:
            self.metrics.counter("requests_invalid").inc()
            return SolveResult(
                request_id=request.request_id,
                status=STATUS_ERROR,
                engine=request.engine,
                error=str(exc),
            )

        # In process, a memory or disk hit is answered right here on the
        # event loop; the pool's lookup is None and its worker answers.
        hit = self.lane.lookup(request)
        if hit is not None:
            self.metrics.histogram("request_latency_seconds").observe(
                self._clock() - t0
            )
            return hit

        # Single-flight coalescing: a concurrent duplicate (same
        # canonical key — a thundering herd of permuted twins) waits for
        # the leader instead of burning a solve on identical work, then
        # reads the freshly populated cache.  If the leader's answer was
        # not cacheable (degraded / failed), fall through and solve.
        key = canonical_key(request)
        leader = key not in self._inflight
        if leader:
            self._inflight[key] = asyncio.get_running_loop().create_future()
        else:
            self.metrics.counter("requests_coalesced").inc()
            await asyncio.shield(self._inflight[key])
            hit = self.lane.lookup(request)
            if hit is not None:
                self.metrics.histogram("request_latency_seconds").observe(
                    self._clock() - t0
                )
                return hit

        try:
            return await self._admit_and_solve(request, t0)
        finally:
            if leader:
                waiters = self._inflight.pop(key)
                if not waiters.done():
                    waiters.set_result(None)

    async def _admit_and_solve(
        self, request: SolveRequest, t0: float
    ) -> SolveResult:
        decision = self.admission.try_admit(request)
        if not decision.admitted:
            self.metrics.counter("requests_shed").inc()
            return SolveResult(
                request_id=request.request_id,
                status=STATUS_REJECTED,
                engine=request.engine,
                retry_after=decision.retry_after,
                error=decision.reason,
            )
        deadline = (
            request.deadline if request.deadline is not None else self.default_deadline
        )
        deadline_at = None if deadline is None else t0 + deadline
        try:
            result = await self.lane.submit(request, deadline_at=deadline_at)
        finally:
            self.admission.release(decision)
        if result.degraded:
            self.metrics.counter("degradations_total").inc()
        self.metrics.histogram("request_latency_seconds").observe(self._clock() - t0)
        return result

    async def handle_stream(self, request: StreamRequest) -> StreamResult:
        """Serve one live-schedule event (``op=stream``): in process on a
        lane thread, pooled on the tenant's pinned worker."""
        if not self._started:
            await self.start()
        self.metrics.counter("stream_events_total").inc()
        result = await self.lane.submit_stream(request)
        if not result.ok:
            self.metrics.counter("stream_errors").inc()
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def stats(self) -> dict[str, Any]:
        """The ``{"op": "stats"}`` payload: every subsystem's counters
        (pooled: each worker's namespaced ``worker.<i>.*`` and summed
        ``pool.*``)."""
        self.metrics.set_many(
            "admission", {k: float(v) for k, v in self.admission.stats().items()}
        )
        return await self.lane.stats()

    async def healthcheck(self) -> dict[str, Any]:
        """The ``{"op": "healthcheck"}`` payload (pooled: every worker's
        liveness and responsiveness)."""
        if not self._started:
            await self.start()
        return await self.lane.healthcheck()


# ---------------------------------------------------------------------------
# JSON-lines TCP front-end
# ---------------------------------------------------------------------------

async def _write_line(
    writer: asyncio.StreamWriter, lock: asyncio.Lock, payload: str
) -> None:
    async with lock:
        writer.write(payload.encode("utf-8") + b"\n")
        await writer.drain()


async def _handle_connection(
    service: SolveService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: requests in, responses out (possibly out of
    order — correlate via ``request_id``).  Control ops: ``ping``,
    ``stats``, ``healthcheck``, ``shutdown``."""
    lock = asyncio.Lock()
    pending: set[asyncio.Task[None]] = set()

    async def respond(request: SolveRequest) -> None:
        result = await service.handle(request)
        await _write_line(writer, lock, result.to_json())

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                await _write_line(
                    writer,
                    lock,
                    SolveResult(
                        status=STATUS_ERROR, error=f"malformed JSON: {exc}"
                    ).to_json(),
                )
                continue
            if isinstance(data, dict) and "op" in data:
                op = data["op"]
                if op == "ping":
                    await _write_line(writer, lock, json.dumps({"op": "pong"}))
                elif op == "stats":
                    stats = await service.stats()
                    await _write_line(
                        writer, lock, json.dumps({"op": "stats", "stats": stats})
                    )
                elif op == "healthcheck":
                    health = await service.healthcheck()
                    await _write_line(
                        writer,
                        lock,
                        json.dumps({"op": "healthcheck", **health}),
                    )
                elif op == "stream":
                    # Handled inline (awaited before the next readline):
                    # stream events are stateful, and per-connection
                    # arrival order is the ordering contract a tenant's
                    # session relies on.
                    try:
                        stream_request = StreamRequest.from_dict(data)
                    except (ValueError, TypeError, KeyError) as exc:
                        await _write_line(
                            writer,
                            lock,
                            StreamResult(
                                status=STATUS_ERROR, error=str(exc)
                            ).to_json(),
                        )
                        continue
                    try:
                        stream_result = await service.handle_stream(
                            stream_request
                        )
                    except Exception as exc:  # noqa: BLE001 — keep the
                        # connection (and its other tenants' sessions)
                        # alive; the event itself is reported failed.
                        stream_result = StreamResult(
                            request_id=stream_request.request_id,
                            tenant=stream_request.tenant,
                            action=stream_request.action,
                            status=STATUS_ERROR,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    await _write_line(writer, lock, stream_result.to_json())
                elif op == "shutdown":
                    await _write_line(writer, lock, json.dumps({"op": "bye"}))
                    service.request_shutdown()
                    break
                else:
                    await _write_line(
                        writer,
                        lock,
                        SolveResult(
                            status=STATUS_ERROR, error=f"unknown op {op!r}"
                        ).to_json(),
                    )
                continue
            try:
                request = SolveRequest.from_dict(data)
            except ValueError as exc:
                await _write_line(
                    writer,
                    lock,
                    SolveResult(status=STATUS_ERROR, error=str(exc)).to_json(),
                )
                continue
            task = asyncio.create_task(respond(request))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    except asyncio.CancelledError:
        # Loop/server teardown cancels live connection tasks.  Exiting
        # cleanly (after the finally's close below) keeps
        # asyncio.streams' done-callback from logging every shutdown as
        # "Exception in callback ... CancelledError".
        pass
    finally:
        for task in pending:
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass


async def start_server(
    service: SolveService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
) -> asyncio.AbstractServer:
    """Bind the JSON-lines front-end; the caller owns the returned
    server's lifetime (tests use ``port=0`` for an ephemeral port)."""
    service._shutdown_event = asyncio.Event()
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port
    )


async def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    service: SolveService | None = None,
    log_interval: float | None = None,
    on_ready: Callable[[str, int], None] | None = None,
) -> None:
    """Run the service until a ``shutdown`` op, SIGTERM/SIGINT, or
    cancellation.

    ``log_interval`` enables the periodic metrics heartbeat line;
    ``on_ready`` receives the bound ``(host, port)`` once listening.
    SIGTERM and SIGINT trigger the same graceful path as the
    ``shutdown`` op: stop accepting, then :meth:`SolveService.aclose`
    flushes the journal and closes segments, so a signal-terminated
    server leaves no uncommitted entries behind for work it answered.
    """
    svc = service if service is not None else SolveService()
    # A pool spawns its workers before accepting traffic, so the first
    # request never pays the pool's cold start.
    await svc.start()
    server = await start_server(svc, host, port)
    bound = server.sockets[0].getsockname()[:2] if server.sockets else (host, port)
    loop = asyncio.get_running_loop()
    handled_signals: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, svc.request_shutdown)
            handled_signals.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop; Ctrl-C still raises KeyboardInterrupt
    if on_ready is not None:
        on_ready(bound[0], bound[1])

    async def heartbeat() -> None:
        assert log_interval is not None
        while True:
            await asyncio.sleep(log_interval)
            await svc.stats()
            print(svc.metrics.render_line(), flush=True)

    beat = (
        asyncio.get_running_loop().create_task(heartbeat())
        if log_interval is not None and log_interval > 0
        else None
    )
    try:
        assert svc._shutdown_event is not None
        await svc._shutdown_event.wait()
    finally:
        if beat is not None:
            beat.cancel()
        for sig in handled_signals:
            loop.remove_signal_handler(sig)
        server.close()
        await server.wait_closed()
        await svc.aclose()


# ---------------------------------------------------------------------------
# Client helpers (used by ``repro-pcmax submit`` and the tests)
# ---------------------------------------------------------------------------

async def submit(
    host: str, port: int, request: SolveRequest, *, timeout: float | None = 60.0
) -> SolveResult:
    """Submit one request over a fresh connection and await its result."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request.to_json().encode("utf-8") + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ConnectionError("server closed the connection without replying")
        return SolveResult.from_json(line.decode("utf-8"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def replay(
    host: str,
    port: int,
    requests: "list[SolveRequest]",
    *,
    concurrency: int = 8,
    timeout: float | None = 120.0,
) -> list[tuple[SolveResult, float]]:
    """Replay *requests* against a running server over *concurrency*
    persistent connections and return ``(result, latency_seconds)`` in
    submission order.

    Each connection drains a shared queue serially (one request in
    flight per connection — latencies stay honest), so total load on
    the server is exactly *concurrency*-way.  Used by
    ``benchmarks/bench_service.py`` and ``repro-pcmax submit --repeat``.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    queue: asyncio.Queue[tuple[int, SolveRequest]] = asyncio.Queue()
    for item in enumerate(requests):
        queue.put_nowait(item)
    out: list[tuple[SolveResult, float] | None] = [None] * len(requests)

    async def lane() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                try:
                    index, request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                t0 = time.monotonic()
                writer.write(request.to_json().encode("utf-8") + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout)
                if not line:
                    raise ConnectionError(
                        "server closed the connection mid-replay"
                    )
                out[index] = (
                    SolveResult.from_json(line.decode("utf-8")),
                    time.monotonic() - t0,
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    await asyncio.gather(*(lane() for _ in range(min(concurrency, len(requests)) or 1)))
    return [item for item in out if item is not None]


async def stream_events(
    host: str,
    port: int,
    requests: "list[StreamRequest]",
    *,
    timeout: float | None = 120.0,
) -> "list[StreamResult]":
    """Send a tenant's stream events over one connection, strictly in
    order (each result is awaited before the next event is written —
    the ordering the session protocol promises)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        results: list[StreamResult] = []
        for request in requests:
            writer.write(request.to_json().encode("utf-8") + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                raise ConnectionError(
                    "server closed the connection mid-stream"
                )
            results.append(StreamResult.from_json(line.decode("utf-8")))
        return results
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def send_op(
    host: str, port: int, op: str, *, timeout: float | None = 10.0
) -> dict:
    """Send a control op (``ping`` / ``stats`` / ``healthcheck`` /
    ``shutdown``)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps({"op": op}).encode("utf-8") + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            raise ConnectionError("server closed the connection without replying")
        return json.loads(line.decode("utf-8"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
