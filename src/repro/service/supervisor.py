"""Sharded multi-process solver pool: the supervisor side.

``repro-pcmax serve --pool-workers N`` gives the one front end,
:class:`~repro.service.server.SolveService`, a :class:`SupervisorPool`
as its lane instead of the in-process one: validation, admission
control, single-flight coalescing and deadline bookkeeping stay in the
supervisor process, while every solve runs on the
:class:`~repro.service.worker.Shard` of one of N
:mod:`repro.service.worker` processes — aggregate throughput scales
with the machine instead of saturating one core's GIL.

Routing is by the canonical sorted-multiset instance key
(:mod:`repro.service.sharding`) — the same key space the result cache
and the durable store already share — so permuted duplicates always hit
the same worker's warm memory cache, and one canonical key never solves
on two workers at once.

Failure semantics (pinned by the worker-kill e2e test):

* a worker death (crash, OOM-kill, SIGKILL) is detected as EOF on its
  pipe; the supervisor respawns the process immediately;
* each in-flight request of the dead worker is re-sent **once** to the
  respawned worker if its deadline still has room, otherwise (or on a
  second death) it degrades to the LPT schedule tagged
  ``degraded=true`` — the same anytime fallback the deadline path uses,
  so a crash costs a client at most the 4/3 guarantee, never an error;
* a request whose deadline fires while queued or solving is cancelled
  on the worker (a ``cancel`` frame trips the solve's ``check_deadline``
  hook between probes) and answered with LPT from the supervisor.

Durability: workers write through to the *shared* store root with
per-worker segment tags and journal their own admissions
(``journal-w<i>.jsonl``) — one writer per file keeps the fsync
guarantees intact; startup recovery replays every journal
(:func:`repro.store.recovery.recover_all`).

See ``docs/scaling.md`` for the full architecture reference.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

from repro.service.metrics import MetricsRegistry, aggregate_pool_stats
from repro.service.registry import fallback_result
from repro.service.requests import (
    STATUS_ERROR,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
)
from repro.service.sharding import shard_index, shard_key, tenant_shard
from repro.service.worker import send_frame, worker_main

__all__ = ["SupervisorPool", "WorkerHandle"]

#: Seconds to wait for a worker's ``ready`` frame at pool start.
DEFAULT_SPAWN_GRACE = 60.0
#: Seconds a control round-trip (ping/stats) may take before the worker
#: is reported unreachable.
CONTROL_TIMEOUT = 5.0


@dataclass
class _PoolJob:
    """One request travelling through the pool."""

    job_id: str
    request: SolveRequest
    deadline_at: float | None
    future: "asyncio.Future[SolveResult]"
    retried: bool = False


@dataclass
class _StreamJob:
    """One live-schedule event in flight to a tenant's pinned worker.

    No retry on worker death: the session's in-memory state died with
    the worker, so replaying a single event against a fresh (empty)
    session would corrupt rather than recover.  The client gets an
    error result and re-opens the session — ``open_session`` restores
    the last durable snapshot from the shared store.
    """

    job_id: str
    request: StreamRequest
    future: "asyncio.Future[StreamResult]"


class WorkerHandle:
    """Supervisor-side bookkeeping for one worker process."""

    def __init__(self, worker_id: int, config: dict[str, Any], mp_ctx) -> None:
        self.worker_id = worker_id
        self.config = config
        self._mp_ctx = mp_ctx
        self.conn = None
        self.proc = None
        self.ready = False
        self.restarts = 0
        self.inflight: dict[str, _PoolJob] = {}
        self.stream_inflight: dict[str, _StreamJob] = {}
        self.send_lock = threading.Lock()

    def spawn(self) -> None:
        """Start (or restart) the worker process.  Blocking — run it off
        the event loop."""
        parent_conn, child_conn = self._mp_ctx.Pipe()
        proc = self._mp_ctx.Process(
            target=worker_main,
            args=(child_conn, self.worker_id, self.config),
            name=f"repro-pool-w{self.worker_id}",
            daemon=True,
        )
        proc.start()
        # Close our copy of the child's end: otherwise the pipe never
        # EOFs when the worker dies and crash detection goes blind.
        child_conn.close()
        self.conn = parent_conn
        self.proc = proc
        self.ready = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def reap(self, timeout: float = 2.0) -> None:
        """Join (then terminate, then kill) the current process."""
        if self.proc is None:
            return
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(1.0)
        if self.proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            self.proc.kill()
            self.proc.join(1.0)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass


class SupervisorPool:
    """Owns N worker processes and the frame traffic to them: the pooled
    lane of :class:`~repro.service.server.SolveService`, with the same
    methods as :class:`~repro.service.server.LocalLane` (``start``,
    ``lookup``, ``submit``, ``submit_stream``, ``stats``,
    ``healthcheck``, ``aclose``)."""

    def __init__(
        self,
        num_workers: int,
        *,
        store_root: str | None = None,
        store_ttl: float | None = None,
        cache_size: int = 1024,
        cache_ttl: float | None = None,
        archive_traces: bool = False,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        start_method: str = "spawn",
        spawn_grace: float = DEFAULT_SPAWN_GRACE,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._spawn_grace = spawn_grace
        # "spawn" (not fork) on purpose: the supervisor runs an event
        # loop plus IO threads, and forking a threaded process can
        # deadlock the child on inherited lock state.
        self._mp_ctx = multiprocessing.get_context(start_method)
        config = {
            "store_root": store_root,
            "store_ttl": store_ttl,
            "cache_size": cache_size,
            "cache_ttl": cache_ttl,
            "archive_traces": archive_traces,
        }
        self.handles = [
            WorkerHandle(i, config, self._mp_ctx) for i in range(num_workers)
        ]
        # One thread per worker sits blocked in recv_bytes (the pump);
        # the spare threads carry sends, control frames, and respawns.
        self._io = ThreadPoolExecutor(
            max_workers=num_workers + 4, thread_name_prefix="pool-io"
        )
        self._pumps: list[asyncio.Task[None]] = []
        self._seq = itertools.count(1)
        self._pending_control: dict[str, asyncio.Future[dict]] = {}
        self._ready_events: dict[int, asyncio.Event] = {}
        self._closing = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker and wait until each reports ``ready``."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        for handle in self.handles:
            self._ready_events[handle.worker_id] = asyncio.Event()
        await asyncio.gather(
            *(loop.run_in_executor(self._io, h.spawn) for h in self.handles)
        )
        for handle in self.handles:
            self._pumps.append(loop.create_task(self._pump(handle)))
        await asyncio.wait_for(
            asyncio.gather(*(e.wait() for e in self._ready_events.values())),
            timeout=self._spawn_grace,
        )

    async def aclose(self) -> None:
        """Shut the workers down cleanly (journals checkpoint empty)."""
        if not self._started or self._closing:
            self._closing = True
            self._io.shutdown(wait=False, cancel_futures=True)
            return
        self._closing = True
        for handle in self.handles:
            await self._send(handle, {"kind": "shutdown"})
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(loop.run_in_executor(None, h.reap) for h in self.handles)
        )
        for task in self._pumps:
            task.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps.clear()
        self._io.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Frame traffic
    # ------------------------------------------------------------------
    async def _send(self, handle: WorkerHandle, frame: dict[str, Any]) -> bool:
        """Write one frame to a worker off-loop; False if the pipe is
        gone (the pump notices the death independently)."""
        conn = handle.conn
        if conn is None:
            return False

        def write() -> None:
            with handle.send_lock:
                send_frame(conn, frame)

        try:
            await asyncio.get_running_loop().run_in_executor(self._io, write)
        except (OSError, ValueError, BrokenPipeError):
            return False
        return True

    async def _pump(self, handle: WorkerHandle) -> None:
        """Drain one worker's frames until EOF; EOF outside shutdown is
        a death — respawn and re-route its in-flight work."""
        loop = asyncio.get_running_loop()
        conn = handle.conn
        while True:
            try:
                data = await loop.run_in_executor(self._io, conn.recv_bytes)
            except (EOFError, OSError):
                break
            try:
                msg = json.loads(data.decode("utf-8"))
            except ValueError:
                continue
            if isinstance(msg, dict):
                self._on_frame(handle, msg)
        if not self._closing:
            self.metrics.counter("pool.worker_deaths").inc()
            await self._respawn(handle)

    def _on_frame(self, handle: WorkerHandle, msg: dict[str, Any]) -> None:
        kind = msg.get("kind")
        if kind == "ready":
            handle.ready = True
            event = self._ready_events.get(handle.worker_id)
            if event is not None:
                event.set()
            self.metrics.gauge(f"pool.worker.{handle.worker_id}.pid").set(
                float(msg.get("pid") or 0)
            )
        elif kind == "result":
            job = handle.inflight.pop(str(msg.get("id")), None)
            if job is None or job.future.done():
                self.metrics.counter("pool.late_results_dropped").inc()
                return
            try:
                result = SolveResult.from_dict(msg["result"])
            except (KeyError, ValueError, TypeError) as exc:
                result = SolveResult(
                    request_id=job.request.request_id,
                    status=STATUS_ERROR,
                    error=f"malformed worker result: {exc}",
                )
            job.future.set_result(result)
        elif kind == "stream_result":
            job = handle.stream_inflight.pop(str(msg.get("id")), None)
            if job is None or job.future.done():
                self.metrics.counter("pool.late_results_dropped").inc()
                return
            try:
                result = StreamResult.from_dict(msg["result"])
            except (KeyError, ValueError, TypeError) as exc:
                result = StreamResult(
                    request_id=job.request.request_id,
                    tenant=job.request.tenant,
                    action=job.request.action,
                    status=STATUS_ERROR,
                    error=f"malformed worker stream result: {exc}",
                )
            job.future.set_result(result)
        elif kind in ("pong", "stats"):
            fut = self._pending_control.pop(str(msg.get("id")), None)
            if fut is not None and not fut.done():
                fut.set_result(msg)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    async def _respawn(self, handle: WorkerHandle) -> None:
        handle.restarts += 1
        self.metrics.counter("pool.worker_restarts").inc()
        stranded = list(handle.inflight.values())
        handle.inflight.clear()
        stream_stranded = list(handle.stream_inflight.values())
        handle.stream_inflight.clear()
        loop = asyncio.get_running_loop()
        respawned = False
        for attempt in range(3):
            try:
                await loop.run_in_executor(self._io, handle.reap)
                await loop.run_in_executor(self._io, handle.spawn)
                respawned = True
                break
            except OSError:  # pragma: no cover - resource exhaustion
                await asyncio.sleep(0.5 * (attempt + 1))
        if respawned:
            self._pumps.append(loop.create_task(self._pump(handle)))
        for job in stranded:
            if job.future.done():
                continue
            retryable = (
                respawned
                and not job.retried
                and (job.deadline_at is None or self._clock() < job.deadline_at)
            )
            if retryable:
                job.retried = True
                self.metrics.counter("pool.retries").inc()
                await self._send_job(handle, job)
            else:
                self.metrics.counter("pool.crash_degradations").inc()
                job.future.set_result(fallback_result(job.request))
        for sjob in stream_stranded:
            # Never retried — see _StreamJob.  The error tells the
            # client to reopen (which restores the durable snapshot).
            if not sjob.future.done():
                self.metrics.counter("pool.stream_session_losses").inc()
                sjob.future.set_result(self._stream_crash_result(sjob.request))

    @staticmethod
    def _stream_crash_result(request: StreamRequest) -> StreamResult:
        return StreamResult(
            request_id=request.request_id,
            tenant=request.tenant,
            action=request.action,
            status=STATUS_ERROR,
            error=(
                "worker died mid-session; reopen the session "
                "(open_session restores the last durable snapshot)"
            ),
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def _send_job(self, handle: WorkerHandle, job: _PoolJob) -> None:
        handle.inflight[job.job_id] = job
        deadline = (
            None
            if job.deadline_at is None
            else max(0.0, job.deadline_at - self._clock())
        )
        sent = await self._send(
            handle,
            {
                "kind": "solve",
                "id": job.job_id,
                "request": job.request.to_dict(),
                "deadline": deadline,
            },
        )
        if not sent and handle.inflight.pop(job.job_id, None) is not None:
            # Pipe already gone and the pump's respawn missed this job:
            # answer now rather than strand the client.
            if not job.future.done():
                self.metrics.counter("pool.crash_degradations").inc()
                job.future.set_result(fallback_result(job.request))

    def lookup(self, request: SolveRequest) -> None:
        """Always ``None``: hits are answered by the request's worker."""
        return None

    async def submit(
        self, request: SolveRequest, *, deadline_at: float | None = None
    ) -> SolveResult:
        """Route *request* to its shard's worker and await the answer,
        degrading supervisor-side if the deadline fires first."""
        shard = shard_index(shard_key(request), self.num_workers)
        job = _PoolJob(
            job_id=f"{next(self._seq):08d}",
            request=request,
            deadline_at=deadline_at,
            future=asyncio.get_running_loop().create_future(),
        )
        handle = self.handles[shard]
        self.metrics.counter("pool.dispatched").inc()
        self.metrics.counter(f"pool.shard.{shard}.dispatched").inc()
        await self._send_job(handle, job)
        if job.deadline_at is None:
            return await job.future
        remaining = max(0.0, job.deadline_at - self._clock())
        try:
            return await asyncio.wait_for(asyncio.shield(job.future), remaining)
        except asyncio.TimeoutError:
            handle.inflight.pop(job.job_id, None)
            # Best-effort cancel: trips the solve's check_deadline hook
            # between probes so the shard lane frees up.
            asyncio.get_running_loop().create_task(
                self._send(handle, {"kind": "cancel", "id": job.job_id})
            )
            self.metrics.counter("pool.deadline_degradations").inc()
            return fallback_result(job.request)

    async def submit_stream(self, request: StreamRequest) -> StreamResult:
        """Route one live-schedule event to its tenant's pinned worker.

        Routing is by *tenant*, not instance content
        (:func:`repro.service.sharding.tenant_shard`): stream events
        are stateful, and the worker's FIFO solve lane then keeps one
        tenant's events in arrival order.
        """
        shard = tenant_shard(request.tenant, self.num_workers)
        job = _StreamJob(
            job_id=f"s{next(self._seq):08d}",
            request=request,
            future=asyncio.get_running_loop().create_future(),
        )
        handle = self.handles[shard]
        handle.stream_inflight[job.job_id] = job
        self.metrics.counter("pool.stream_dispatched").inc()
        self.metrics.counter(f"pool.shard.{shard}.stream_dispatched").inc()
        sent = await self._send(
            handle,
            {
                "kind": "stream",
                "id": job.job_id,
                "request": request.to_dict(),
            },
        )
        if not sent and handle.stream_inflight.pop(job.job_id, None) is not None:
            if not job.future.done():
                self.metrics.counter("pool.stream_session_losses").inc()
                job.future.set_result(self._stream_crash_result(request))
        return await job.future

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    async def _control(
        self, handle: WorkerHandle, kind: str, timeout: float = CONTROL_TIMEOUT
    ) -> dict[str, Any] | None:
        """One ping/stats round trip; ``None`` if the worker is gone or
        does not answer in time."""
        if handle.conn is None:
            return None
        cid = f"c{next(self._seq):08d}"
        fut: asyncio.Future[dict] = asyncio.get_running_loop().create_future()
        self._pending_control[cid] = fut
        if not await self._send(handle, {"kind": kind, "id": cid}):
            self._pending_control.pop(cid, None)
            return None
        try:
            return await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            self._pending_control.pop(cid, None)
            return None

    async def stats(self) -> dict[str, Any]:
        """The pooled ``op=stats`` payload: the supervisor's registry,
        each worker's snapshot namespaced ``worker.<i>.*``, and ``pool.*``
        totals summed across workers (:func:`aggregate_pool_stats`)."""
        self.metrics.gauge("pool.workers").set(float(self.num_workers))
        self.metrics.gauge("pool.worker_restarts_total").set(
            float(sum(h.restarts for h in self.handles))
        )
        workers: dict[int, dict[str, Any] | None] = {}
        if self._started and not self._closing:
            replies = await asyncio.gather(
                *(self._control(h, "stats") for h in self.handles)
            )
            workers = {
                h.worker_id: (r.get("stats") if r is not None else None)
                for h, r in zip(self.handles, replies)
            }
        return aggregate_pool_stats(self.metrics.snapshot(), workers)

    async def healthcheck(self) -> dict[str, Any]:
        """Liveness + responsiveness of every worker."""
        replies = await asyncio.gather(
            *(self._control(h, "ping", timeout=2.0) for h in self.handles)
        )
        details = []
        for handle, reply in zip(self.handles, replies):
            details.append(
                {
                    "worker": handle.worker_id,
                    "alive": handle.alive,
                    "responsive": reply is not None,
                    "pid": handle.proc.pid if handle.proc is not None else None,
                    "restarts": handle.restarts,
                    "inflight": len(handle.inflight),
                }
            )
        healthy = sum(1 for d in details if d["alive"] and d["responsive"])
        return {
            "ok": healthy == self.num_workers,
            "mode": "pool",
            "workers": self.num_workers,
            "healthy": healthy,
            "details": details,
        }
