"""The asyncio scheduling service: JSON-lines front-end over the solvers.

Architecture (see ``docs/service.md`` for the full reference)::

    client ──JSON line──▶ connection handler ──▶ SolveService.handle
                                                   │ 1. result cache
                                                   │ 2. admission gate
                                                   │ 3. dispatch: one
                                                   │    executor call per job
                                                   ▼
                                        ThreadPoolExecutor workers
                                          └─ registry engines; parallel
                                             PTAS draws its wavefront
                                             workers from the persistent
                                             reusable pools of
                                             repro.parallel.executor

Requests are solved off the event loop via ``run_in_executor``; the
event loop only parses, admits, and enforces deadlines.  Each admitted
request starts on a worker thread as soon as one is free: a cold PTAS
solve costs about half a millisecond, so holding it back to wait for
companions would cost more than it could save.  An engine that raises
answers ``status="error"`` instead of leaving the client without a reply.

Graceful degradation: a request with a ``deadline`` gets a deadline hook
threaded into the PTAS bisection through its per-request
:class:`~repro.core.context.SolveContext` (probes abort mid-solve); when
the deadline fires, the service returns the LPT schedule for the same
instance tagged ``degraded=true`` with Graham's ``4/3 - 1/(3m)``
guarantee — a worse bound, never a timeout.  Engines that cannot be
cancelled (the exact solvers) are abandoned in their worker thread and
degraded from the event loop.

Observability: every deadline-capable solve runs under a fresh
:class:`repro.obs.Tracer`; its per-phase summary (probe / dp / level /
… wall time and counters) is folded into the metrics registry after each
request, so ``{"op": "stats"}`` exposes ``trace.phase.<kind>.seconds``
histograms alongside the service counters.

Durability (opt-in, see ``docs/persistence.md``): with a
:class:`repro.store.ResultStore` and :class:`repro.store.WriteAheadJournal`
attached, the cache reads/writes through to disk, every admitted request
is journaled before solving and committed after answering, SIGTERM /
SIGINT shut down through the same graceful path as the ``shutdown`` op,
and traces can be archived next to the results they explain.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.service.admission import AdmissionController
from repro.service.cache import CacheKey, ResultCache, canonical_key
from repro.service.metrics import (
    MetricsRegistry,
    record_dp_cache,
    record_stats_source,
)
from repro.obs import Tracer, publish_phase_summary, trace_to_payload
from repro.service.registry import (
    EngineSpec,
    UnknownEngineError,
    build_solve_context,
    canonical_engine_name,
    fallback_result,
    get_engine,
    solve_to_result,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.service.supervisor import PooledSolveService
    from repro.store.journal import WriteAheadJournal
    from repro.store.resultstore import ResultStore
from repro.online.session import SessionManager
from repro.service.requests import (
    STATUS_ERROR,
    STATUS_REJECTED,
    DeadlineExceeded,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
)

#: Default TCP port (no registered meaning; "Cmax" on a phone keypad-ish).
DEFAULT_PORT = 8357


@dataclass
class _Job:
    """One admitted request on its way to a worker thread."""

    request: SolveRequest
    spec: EngineSpec
    deadline_at: float | None
    admitted_at: float


class SolveService:
    """Request orchestrator: cache → admission → dispatch → degrade.

    The service is transport-agnostic — :meth:`handle` takes a
    :class:`SolveRequest` and returns a :class:`SolveResult`; the
    JSON-lines TCP front-end (:func:`start_server` / :func:`serve`) is
    one thin consumer, and tests or in-process callers are another.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        max_workers: int = 4,
        default_deadline: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        store: "ResultStore | None" = None,
        journal: "WriteAheadJournal | None" = None,
        archive_traces: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.cache = cache if cache is not None else ResultCache()
        self.store = store
        self.journal = journal
        self.archive_traces = archive_traces
        if store is not None and self.cache.store is None:
            # Wire the durable tier under the memory cache so hits flow
            # memory → disk → solve without the caller doing it by hand.
            self.cache.store = store
        self.admission = admission if admission is not None else AdmissionController()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_workers = max_workers
        self.default_deadline = default_deadline
        self._clock = clock
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-solve"
        )
        self._shutdown_event: asyncio.Event | None = None
        self._busy_workers = 0
        self._inflight: dict[CacheKey, asyncio.Future[None]] = {}
        #: Live-schedule sessions behind ``op=stream`` — share the
        #: service's cache (tenant re-solves and one-shot requests
        #: answer each other), store (durable snapshots), and metrics
        #: (``tenant.<id>.*`` gauges).
        self.sessions = SessionManager(
            store=self.store, cache=self.cache, metrics=self.metrics, clock=clock
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def handle(self, request: SolveRequest) -> SolveResult:
        """Serve one request end to end (cache → admission → solve)."""
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

        hit = self.cache.get(request)
        if hit is not None:
            self.metrics.counter("cache_hits").inc()
            self.metrics.histogram("request_latency_seconds").observe(
                self._clock() - t0
            )
            return hit
        self.metrics.counter("cache_misses").inc()

        # Single-flight coalescing: a concurrent duplicate (same
        # canonical key — a thundering herd of permuted twins) waits for
        # the leader instead of burning a worker on identical work, then
        # reads the freshly populated cache.  If the leader's answer was
        # not cacheable (degraded / failed), fall through and solve.
        key = canonical_key(request)
        leader = key not in self._inflight
        if leader:
            self._inflight[key] = asyncio.get_running_loop().create_future()
        else:
            self.metrics.counter("requests_coalesced").inc()
            try:
                await asyncio.shield(self._inflight[key])
            except asyncio.CancelledError:
                raise
            except Exception:
                pass
            hit = self.cache.get(request)
            if hit is not None:
                self.metrics.counter("cache_hits").inc()
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

    async def handle_stream(self, request: StreamRequest) -> StreamResult:
        """Serve one live-schedule event (``op=stream``).

        The session manager serializes events internally; running
        ``apply`` in the executor keeps any drift-triggered PTAS
        re-solve off the event loop, exactly like a one-shot solve.
        """
        self.metrics.counter("stream_events_total").inc()
        result = await asyncio.get_running_loop().run_in_executor(
            self._executor, self.sessions.apply, request
        )
        if not result.ok:
            self.metrics.counter("stream_errors").inc()
        return result

    async def _admit_and_solve(
        self, request: SolveRequest, t0: float
    ) -> SolveResult:
        spec = get_engine(request.engine, problem=request.problem)
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
        job = _Job(
            request=request,
            spec=spec,
            deadline_at=deadline_at,
            admitted_at=self._clock(),
        )
        # Write-ahead: an admitted request is journaled before its solve
        # starts, and marked committed only after a response exists and
        # any cacheable answer has reached the store — so a crash at any
        # point in between is replayed on restart (docs/persistence.md).
        # A solve that raised is aborted instead: replaying it would
        # only raise again.
        entry = self.journal.begin(request) if self.journal is not None else None
        try:
            result = await self._await_with_deadline(job, self._dispatch(job))
        finally:
            self.admission.release(decision)
        if result.ok and not result.degraded:
            self.cache.put(request, result)
        if entry is not None:
            if result.status == STATUS_ERROR:
                self.journal.abort(entry)
            else:
                self.journal.commit(entry)
        self.metrics.histogram("request_latency_seconds").observe(self._clock() - t0)
        return result

    async def _await_with_deadline(
        self, job: _Job, future: "asyncio.Future[SolveResult]"
    ) -> SolveResult:
        """Wait for the job; degrade from the event loop if a deadline
        passes on an engine that cannot cancel itself (its worker thread
        is abandoned — it still occupies a slot until it finishes).

        The wait is shielded: a request cancelled while it waits (its
        client hung up) leaves the solve to finish, so the worker is
        released when its thread is, not before.
        """
        if job.deadline_at is None or job.spec.supports_deadline:
            return await asyncio.shield(future)
        remaining = max(0.0, job.deadline_at - self._clock())
        try:
            return await asyncio.wait_for(asyncio.shield(future), remaining)
        except asyncio.TimeoutError:
            self.metrics.counter("solves_abandoned").inc()
            future.add_done_callback(lambda f: f.exception())  # reap quietly
            return self._degrade(job)

    def _dispatch(self, job: _Job) -> "asyncio.Future[SolveResult]":
        """Start *job* on a worker thread: one executor call per job.

        ``batch_size`` observes 1 per call; it stays in ``op=stats`` for
        the consumers that read it.
        """
        self._busy_workers += 1
        self.metrics.gauge("executor_busy").set(self._busy_workers)
        self.metrics.histogram("batch_size").observe(1)
        future = asyncio.get_running_loop().run_in_executor(
            self._executor, self._solve_one, job
        )
        future.add_done_callback(self._release_worker)
        return future

    def _release_worker(self, _future: "asyncio.Future[SolveResult]") -> None:
        self._busy_workers -= 1
        self.metrics.gauge("executor_busy").set(self._busy_workers)

    # ------------------------------------------------------------------
    # Worker-side solve (runs in an executor thread)
    # ------------------------------------------------------------------
    def _solve_one(self, job: _Job) -> SolveResult:
        self.metrics.histogram("queue_wait_seconds").observe(
            self._clock() - job.admitted_at
        )
        request, spec = job.request, job.spec
        if job.deadline_at is not None and self._clock() > job.deadline_at:
            return self._degrade(job)
        tracer = Tracer()
        ctx = build_solve_context(
            request,
            deadline_at=(
                job.deadline_at
                if job.deadline_at is not None and spec.supports_deadline
                else None
            ),
            clock=self._clock,
            tracer=tracer,
            metrics=self.metrics,
        )
        try:
            result = solve_to_result(request, ctx, clock=self._clock)
        except DeadlineExceeded:
            publish_phase_summary(tracer, self.metrics)
            return self._degrade(job)
        except Exception as exc:  # noqa: BLE001 - every request gets a reply
            self.metrics.counter("errors_total").inc()
            return SolveResult(
                request_id=request.request_id,
                status=STATUS_ERROR,
                engine=canonical_engine_name(request.engine),
                error=f"{type(exc).__name__}: {exc}",
            )
        publish_phase_summary(tracer, self.metrics)
        self._archive_trace(request, tracer)
        return result

    def _archive_trace(self, request: SolveRequest, tracer: Tracer) -> None:
        """Persist this solve's trace into the durable store (opt-in)."""
        if self.store is None or not self.archive_traces:
            return
        name = request.request_id or canonical_key(request)
        try:
            self.store.archive_trace(str(name), trace_to_payload(tracer))
            self.metrics.counter("traces_archived").inc()
        except OSError:
            pass  # archival is best-effort; never fail the solve

    def _degrade(self, job: _Job) -> SolveResult:
        """The anytime fallback: problem-appropriate LPT in O(n log n),
        tagged ``degraded`` (:func:`repro.service.registry.fallback_result`)."""
        self.metrics.counter("degradations_total").inc()
        return fallback_result(job.request)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``{"op": "stats"}`` payload: every subsystem's counters."""
        self.metrics.set_many(
            "result_cache", {k: float(v) for k, v in self.cache.stats().items()}
        )
        self.metrics.set_many(
            "admission", {k: float(v) for k, v in self.admission.stats().items()}
        )
        if self.store is not None:
            record_stats_source(self.metrics, "store", self.store)
        if self.journal is not None:
            record_stats_source(self.metrics, "journal", self.journal)
        record_dp_cache(self.metrics)
        self.metrics.gauge("pool_utilization").set(
            self._busy_workers / self.max_workers
        )
        self.metrics.gauge("stream_sessions").set(float(self.sessions.num_sessions))
        return self.metrics.snapshot()

    def healthcheck(self) -> dict[str, Any]:
        """The ``{"op": "healthcheck"}`` payload for the single-process
        service: alive iff we got here (the pooled service's coroutine
        counterpart in :mod:`repro.service.supervisor` probes workers)."""
        return {
            "ok": True,
            "mode": "single",
            "workers": 1,
            "executor_busy": self._busy_workers,
        }

    def request_shutdown(self) -> None:
        """Ask :func:`serve` to wind down (set by the ``shutdown`` op)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def aclose(self) -> None:
        """Release the worker pool and flush the persistence layer — a
        clean exit leaves the journal empty and every segment closed."""
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.close()


# ---------------------------------------------------------------------------
# JSON-lines TCP front-end
# ---------------------------------------------------------------------------

async def _write_line(
    writer: asyncio.StreamWriter, lock: asyncio.Lock, payload: str
) -> None:
    async with lock:
        writer.write(payload.encode("utf-8") + b"\n")
        await writer.drain()


async def _maybe_await(value):
    """Normalize sync/async service methods: ``SolveService.stats`` is a
    plain call, ``PooledSolveService.stats`` is a coroutine (it
    round-trips to worker processes).  The front-end serves both."""
    if inspect.isawaitable(value):
        return await value
    return value


async def _handle_connection(
    service: "SolveService | PooledSolveService",
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
                    stats = await _maybe_await(service.stats())
                    await _write_line(
                        writer, lock, json.dumps({"op": "stats", "stats": stats})
                    )
                elif op == "healthcheck":
                    health = await _maybe_await(service.healthcheck())
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
    service: "SolveService | PooledSolveService",
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
    service: "SolveService | PooledSolveService | None" = None,
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
    starter = getattr(svc, "start", None)
    if starter is not None:
        # Pooled service: spawn the workers before accepting traffic so
        # the first request never pays the pool's cold start.
        await starter()
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
            await _maybe_await(svc.stats())
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
