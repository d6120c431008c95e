"""The service :class:`Shard` (cache, journal, sessions, the one solve
path), and the solver worker process of the sharded pool around it.

One worker owns one shard of the canonical key space: it runs the
registry engines for every request the supervisor routes to it, with
its *own* memory result cache (duplicates of its shard hit warm), its
own writer-tagged view of the shared durable store (one writer per
segment file), and its own write-ahead journal (``journal-w<i>.jsonl``
— begin is fsync'd before the solve starts, in this process, so the
crash-consistency guarantee never crosses a process boundary).

Protocol: length-prefixed frames of UTF-8 JSON over the inherited
duplex pipe — ``multiprocessing.Connection.send_bytes`` /
``recv_bytes`` provide the 4-byte length prefix; the payload is always
JSON, never pickle, so a malicious or corrupt peer can at worst produce
a ``ValueError``.

Supervisor → worker frames::

    {"kind": "solve",  "id": str, "request": {...}, "deadline": s|null}
    {"kind": "stream", "id": str, "request": {...}}   # live-schedule event
    {"kind": "cancel", "id": str}          # per-request cancellation
    {"kind": "ping",   "id": str}
    {"kind": "stats",  "id": str}
    {"kind": "shutdown"}

Worker → supervisor frames::

    {"kind": "ready",  "worker": i, "pid": ...}
    {"kind": "result", "id": str, "result": {...}}
    {"kind": "stream_result", "id": str, "result": {...}}
    {"kind": "pong",   "id": str, "pid": ..., "solves": ...}
    {"kind": "stats",  "id": str, "stats": {counters, gauges, histograms}}

Stream events (``op=stream``) ride the same serial solve lane as
solves: the supervisor pins each tenant to one worker
(:func:`repro.service.sharding.tenant_shard`), and the FIFO job queue
then guarantees a tenant's events apply in arrival order.  The shard's
:class:`repro.online.session.SessionManager` shares its result
cache and store, so drift-triggered re-solves hit the same warm state
as routed one-shot requests, and session snapshots persist durably next
to the results.

Threading: a daemon reader thread drains incoming frames so ``cancel``
/ ``ping`` / ``stats`` are handled *while* a solve is running; solves
themselves execute one at a time on the main thread (a shard is a
serial lane — cross-shard parallelism is the pool's job).  Cancellation
rides the same ``check_deadline`` hook the deadline uses: the PTAS
bisection polls it between probes, so a cancelled solve aborts
mid-flight and the worker degrades to LPT.  Engines that never poll
(the exact solvers) cannot be cancelled; the supervisor degrades on its
side and drops the eventual late reply.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import threading
import time
from typing import Any, Callable

from repro.core.context import SolveContext
from repro.obs import Tracer, publish_phase_summary, trace_to_payload
from repro.online.session import SessionManager
from repro.service.cache import ResultCache, canonical_key
from repro.service.metrics import (
    MetricsRegistry,
    record_dp_cache,
    record_stats_source,
)
from repro.service.registry import (
    UnknownEngineError,
    canonical_engine_name,
    fallback_result,
    get_engine,
    solve_to_result,
)
from repro.service.requests import (
    STATUS_ERROR,
    DeadlineExceeded,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
)

__all__ = ["Shard", "send_frame", "recv_frame", "worker_main"]


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------

def send_frame(conn, payload: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame to *conn*."""
    conn.send_bytes(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def recv_frame(conn) -> dict[str, Any]:
    """Read one length-prefixed JSON frame from *conn*.

    Raises :class:`EOFError` when the peer is gone and
    :class:`ValueError` on a non-JSON-object payload.
    """
    data = conn.recv_bytes()
    payload = json.loads(data.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# ---------------------------------------------------------------------------
# Shard: the state and solve path both lanes run
# ---------------------------------------------------------------------------

class Shard:
    """One shard of the canonical key space: the result cache (with its
    disk tier), the write-ahead journal, the live-schedule sessions and
    the one solve path.

    The in-process lane (:class:`repro.service.server.LocalLane`) runs
    one shard on its solve threads; each pool worker process runs one
    with ``worker_id`` set, which tags its store segments ``w<i>`` and
    names its journal ``journal-w<i>.jsonl`` (one writer per file).  An
    untagged shard writes untagged segments and ``journal.jsonl``.

    *metrics* is shared with whoever hosts the shard; the shard counts
    only its own events (cache hits and misses, solves, errors, trace
    phases), so a registry shared with the front end counts each event
    once.
    """

    def __init__(
        self,
        *,
        metrics: MetricsRegistry,
        worker_id: int | None = None,
        store_root: str | None = None,
        store_ttl: float | None = None,
        cache_size: int = 1024,
        cache_ttl: float | None = None,
        archive_traces: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.metrics = metrics
        self.archive_traces = archive_traces
        self._clock = clock
        self.store = None
        self.journal = None
        if store_root:
            from repro.store import ResultStore, WriteAheadJournal, worker_journal_name
            from repro.store.journal import JOURNAL_NAME

            tagged = worker_id is not None
            self.store = ResultStore(
                store_root,
                ttl=store_ttl,
                writer_tag=f"w{worker_id}" if tagged else None,
            )
            self.journal = WriteAheadJournal(
                store_root,
                name=worker_journal_name(worker_id) if tagged else JOURNAL_NAME,
            )
        self.cache = ResultCache(max_entries=cache_size, ttl=cache_ttl, store=self.store)
        self.sessions = SessionManager(
            store=self.store, cache=self.cache, metrics=self.metrics, clock=clock
        )

    def lookup(self, request: SolveRequest) -> SolveResult | None:
        """A memory or disk hit for *request*, or ``None``."""
        hit = self.cache.get(request)
        self.metrics.counter("cache_hits" if hit is not None else "cache_misses").inc()
        return hit

    def solve(
        self,
        request: SolveRequest,
        check_deadline: Callable[[], None] | None = None,
    ) -> SolveResult:
        """Solve *request* on the calling thread and write it through.

        *check_deadline* raises :class:`DeadlineExceeded` once the
        request is late or cancelled; it is checked before anything
        starts (late work never starts) and then polled by the engine,
        and either way the answer is the LPT fallback.  The journal
        ``begin`` is written here, when the solve starts; the entry is
        committed once the answer exists and any cacheable result is in
        the store, or aborted if the engine raised.
        """
        t0 = self._clock()
        if check_deadline is not None:
            try:
                check_deadline()
            except DeadlineExceeded:
                return fallback_result(request)
        entry = self.journal.begin(request) if self.journal is not None else None
        tracer = Tracer()
        ctx = SolveContext(
            check_deadline=check_deadline, tracer=tracer, metrics=self.metrics
        )
        try:
            result = solve_to_result(request, ctx, clock=self._clock)
        except DeadlineExceeded:
            result = fallback_result(request)
        except Exception as exc:  # noqa: BLE001 - every request gets a reply
            self.metrics.counter("errors_total").inc()
            if entry is not None:
                self.journal.abort(entry)
                entry = None
            result = SolveResult(
                request_id=request.request_id,
                status=STATUS_ERROR,
                engine=canonical_engine_name(request.engine),
                error=f"{type(exc).__name__}: {exc}",
            )
        publish_phase_summary(tracer, self.metrics)
        if result.ok and not result.degraded:
            self.cache.put(request, result)  # write-through to the store
            if self.store is not None and self.archive_traces:
                name = request.request_id or str(canonical_key(request))
                try:  # best-effort: archival never fails the solve
                    self.store.archive_trace(name, trace_to_payload(tracer))
                    self.metrics.counter("traces_archived").inc()
                except OSError:
                    pass
        if entry is not None:
            self.journal.commit(entry)
        self.metrics.counter("solves_total").inc()
        self.metrics.histogram("solve_seconds").observe(self._clock() - t0)
        return result

    def apply_stream(self, request: StreamRequest) -> StreamResult:
        """Apply one live-schedule event; a failure becomes an error
        result, never an exception."""
        try:
            return self.sessions.apply(request)
        except Exception as exc:  # noqa: BLE001 - the shard must survive any event
            return StreamResult(
                request_id=request.request_id,
                tenant=request.tenant,
                action=request.action,
                status=STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
            )

    def stats(self) -> dict[str, Any]:
        """Publish the cache, store, journal, DP-cache and session gauges
        and return the registry's snapshot."""
        self.metrics.set_many(
            "result_cache", {k: float(v) for k, v in self.cache.stats().items()}
        )
        if self.store is not None:
            record_stats_source(self.metrics, "store", self.store)
        if self.journal is not None:
            record_stats_source(self.metrics, "journal", self.journal)
        record_dp_cache(self.metrics)
        self.metrics.gauge("stream_sessions").set(float(self.sessions.num_sessions))
        return self.metrics.snapshot()

    def close(self) -> None:
        """Checkpoint the journal and close the store: a clean exit
        leaves the journal empty and every segment closed."""
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.close()


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

class _Worker:
    """The pipe, reader thread and cancel set around one :class:`Shard`
    (see module docstring)."""

    def __init__(self, conn, worker_id: int, config: dict[str, Any]) -> None:
        self.conn = conn
        self.worker_id = worker_id
        self.metrics = MetricsRegistry()
        self.metrics.gauge("worker_pid").set(float(os.getpid()))
        self.shard = Shard(metrics=self.metrics, worker_id=worker_id, **config)
        self._clock = time.monotonic
        self._write_lock = threading.Lock()  # reader + main thread both reply
        self._cancel_lock = threading.Lock()
        self._cancelled: set[str] = set()
        self._jobs: "queue.Queue[dict[str, Any] | None]" = queue.Queue()

    # -- plumbing --------------------------------------------------------
    def _reply(self, payload: dict[str, Any]) -> None:
        with self._write_lock:
            send_frame(self.conn, payload)

    def _is_cancelled(self, request_id: str) -> bool:
        with self._cancel_lock:
            return request_id in self._cancelled

    # -- reader thread ---------------------------------------------------
    def _read_loop(self) -> None:
        """Drain incoming frames; control frames are answered inline so
        they never queue behind a long solve."""
        while True:
            try:
                msg = recv_frame(self.conn)
            except (EOFError, OSError):
                # Supervisor is gone: finish nothing, exit cleanly.
                self._jobs.put(None)
                return
            except ValueError:
                continue  # unparseable frame: drop, keep serving
            kind = msg.get("kind")
            if kind in ("solve", "stream"):
                # Both run on the main thread's serial lane — stream
                # events of a pinned tenant stay in arrival order.
                self._jobs.put(msg)
            elif kind == "cancel":
                with self._cancel_lock:
                    self._cancelled.add(str(msg.get("id")))
                self.metrics.counter("cancellations").inc()
            elif kind == "ping":
                self._reply(
                    {
                        "kind": "pong",
                        "id": msg.get("id"),
                        "pid": os.getpid(),
                        "solves": self.metrics.counter("solves_total").value,
                    }
                )
            elif kind == "stats":
                self._reply(
                    {"kind": "stats", "id": msg.get("id"), "stats": self.shard.stats()}
                )
            elif kind == "shutdown":
                self._jobs.put(None)
                return

    # -- solve path ------------------------------------------------------
    def _check_hook(self, request_id: str, deadline_at: float | None):
        def check() -> None:
            if self._is_cancelled(request_id):
                raise DeadlineExceeded(f"request {request_id} cancelled")
            if deadline_at is not None and self._clock() > deadline_at:
                raise DeadlineExceeded(f"deadline passed at t={deadline_at:.6f}")

        return check

    def _solve(self, msg: dict[str, Any]) -> None:
        rid = str(msg.get("id"))
        if self._is_cancelled(rid):
            # The supervisor already answered the client (deadline or
            # crash-degrade); solving now would be pure waste.
            with self._cancel_lock:
                self._cancelled.discard(rid)
            return
        try:
            request = SolveRequest.from_dict(msg["request"])
            get_engine(request.engine, problem=request.problem)
        except (KeyError, ValueError, TypeError, UnknownEngineError) as exc:
            self.metrics.counter("errors_total").inc()
            self._reply(
                {
                    "kind": "result",
                    "id": rid,
                    "result": SolveResult(
                        request_id=str(msg.get("request", {}).get("request_id", "")),
                        status=STATUS_ERROR,
                        error=str(exc),
                    ).to_dict(),
                }
            )
            return
        result = self.shard.lookup(request)
        if result is None:
            deadline = msg.get("deadline")
            deadline_at = None if deadline is None else self._clock() + float(deadline)
            result = self.shard.solve(request, self._check_hook(rid, deadline_at))
        with self._cancel_lock:
            self._cancelled.discard(rid)
        self._reply({"kind": "result", "id": rid, "result": result.to_dict()})

    def _stream(self, msg: dict[str, Any]) -> None:
        """Apply one live-schedule event on the serial lane."""
        try:
            request = StreamRequest.from_dict(msg["request"])
        except (KeyError, ValueError, TypeError) as exc:
            self.metrics.counter("errors_total").inc()
            result = StreamResult(status=STATUS_ERROR, error=str(exc))
        else:
            result = self.shard.apply_stream(request)
        self._reply(
            {"kind": "stream_result", "id": str(msg.get("id")), "result": result.to_dict()}
        )

    # -- lifecycle -------------------------------------------------------
    def run(self) -> None:
        reader = threading.Thread(
            target=self._read_loop, name=f"pool-w{self.worker_id}-reader", daemon=True
        )
        reader.start()
        self._reply(
            {"kind": "ready", "worker": self.worker_id, "pid": os.getpid()}
        )
        try:
            while True:
                msg = self._jobs.get()
                if msg is None:
                    break
                if msg.get("kind") == "stream":
                    self._stream(msg)
                else:
                    self._solve(msg)
        finally:
            self.shard.close()
            try:
                self.conn.close()
            except OSError:
                pass


def worker_main(conn, worker_id: int, config: dict[str, Any]) -> None:
    """Process entry point (the ``target`` of the supervisor's spawn).

    SIGINT is ignored — a Ctrl-C at the terminal hits the whole process
    group, and shutdown must flow through the supervisor (a ``shutdown``
    frame or pipe EOF) so the journal and store close cleanly.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread / exotic
        pass
    _Worker(conn, worker_id, config).run()
