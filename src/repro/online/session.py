"""Per-tenant session hosting behind the ``op=stream`` wire protocol.

:class:`SessionManager` is the single entry point both service lanes
share: every :class:`repro.service.worker.Shard` holds one — the
in-process lane's shard, and each pool worker's own (a tenant is pinned
to one worker by :func:`repro.service.sharding.tenant_shard`, so two
workers never race on the same session).  ``apply`` serializes events
*per tenant* — the ordering contract the protocol promises — behind a
short-held manager lock guarding only the session table, so one
tenant's drift-triggered re-solve never blocks another tenant's
events.

Durable snapshots ride the result store's content-addressed trace
archive under the name ``online:<tenant>`` — ``open_session`` restores
from it when present, ``snapshot`` and ``close`` rewrite it.  Errors in
an event (duplicate job id, unknown tenant, ...) come back as
``status="error"`` stream results; the session survives them.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.online.live import LiveSchedule
from repro.service.requests import STATUS_ERROR, StreamRequest, StreamResult

__all__ = ["SessionManager", "snapshot_name"]


def snapshot_name(tenant: str) -> str:
    """The store trace-archive name of *tenant*'s durable snapshot."""
    return f"online:{tenant}"


class SessionManager:
    """Owns the live schedules of every open tenant session.

    Parameters mirror what the hosting service already has: *store*
    (durable snapshots — optional, sessions are memory-only without it),
    *cache* (shared permutation-invariant result cache, so tenant
    re-solves and one-shot requests answer each other), *metrics*
    (per-tenant gauges).
    """

    def __init__(
        self,
        *,
        store: Any = None,
        cache: Any = None,
        metrics: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.cache = cache
        self.metrics = metrics
        self._clock = clock
        self._sessions: dict[str, LiveSchedule] = {}
        #: Guards the session/lock tables only — never held across an
        #: event (a drift-triggered re-solve can be seconds long).
        self._lock = threading.Lock()
        #: One lock per tenant ever seen, kept for the manager's
        #: lifetime so waiters and re-openers always contend on the
        #: same object (the tables themselves are tiny).
        self._tenant_locks: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_sessions(self) -> int:
        return len(self._sessions)

    def tenants(self) -> tuple[str, ...]:
        """Sorted ids of the currently open sessions."""
        with self._lock:
            return tuple(sorted(self._sessions))

    def get(self, tenant: str) -> LiveSchedule | None:
        """The live schedule of *tenant*, or ``None`` if not open."""
        with self._lock:
            return self._sessions.get(tenant)

    # ------------------------------------------------------------------
    # The single entry point
    # ------------------------------------------------------------------
    def apply(self, request: StreamRequest) -> StreamResult:
        """Apply one stream event and report the post-event state.

        Never raises for per-event problems — *any* exception an event
        provokes becomes a ``status="error"`` result so the connection,
        the session, and (in the pool) the hosting worker stay usable.
        """
        with self._tenant_lock(request.tenant):
            try:
                return self._dispatch(request)
            except ValueError as exc:
                return self._error(request, str(exc))
            except Exception as exc:  # noqa: BLE001 — wire boundary
                return self._error(request, f"{type(exc).__name__}: {exc}")

    def _tenant_lock(self, tenant: str) -> threading.Lock:
        with self._lock:
            return self._tenant_locks.setdefault(tenant, threading.Lock())

    def _dispatch(self, request: StreamRequest) -> StreamResult:
        action = request.action
        if request.problem != "p_cmax":
            # Live schedules are built on the identical-machine
            # incremental-repair machinery; other variants are one-shot
            # only for now.  Reject with the supported set, mirroring
            # the registry's capability errors.
            return self._error(
                request,
                f"live sessions do not support problem {request.problem!r}; "
                "supported problems: p_cmax",
            )
        if action == "open_session":
            return self._open(request)
        with self._lock:
            live = self._sessions.get(request.tenant)
        if live is None:
            return self._error(
                request, f"no open session for tenant {request.tenant!r}"
            )
        if action == "add_jobs":
            live.add_jobs(request.jobs)
            return self._state(request, live)
        if action == "remove_jobs":
            live.remove_jobs(request.job_ids)
            return self._state(request, live)
        if action == "snapshot":
            snap = live.snapshot()
            if request.persist:
                self._persist(request.tenant, snap)
            return self._state(request, live, snapshot=snap)
        if action == "close":
            if request.persist:
                self._persist(request.tenant, live.snapshot())
            result = self._state(request, live)
            with self._lock:
                self._sessions.pop(request.tenant, None)
            self._retire_metrics(request.tenant)
            return result
        raise ValueError(f"unhandled stream action {action!r}")

    def _open(self, request: StreamRequest) -> StreamResult:
        with self._lock:
            live = self._sessions.get(request.tenant)
        if live is not None:
            # Idempotent: reopening an open session reports its state.
            return self._state(request, live)
        restored = False
        snap = self._load_snapshot(request.tenant) if request.persist else None
        if snap is not None:
            live = LiveSchedule.restore(
                snap, cache=self.cache, metrics=self.metrics, clock=self._clock
            )
            restored = True
        else:
            live = LiveSchedule(
                request.tenant,
                request.machines,
                eps=request.eps,
                engine=request.engine,
                drift_threshold=request.drift_threshold,
                cache=self.cache,
                metrics=self.metrics,
                clock=self._clock,
            )
        with self._lock:
            self._sessions[request.tenant] = live
        return self._state(request, live, restored=restored)

    def _retire_metrics(self, tenant: str) -> None:
        """Drop the closed tenant's gauges so ``op=stats`` stops
        reporting them (best-effort — the registry is duck-typed)."""
        remove = getattr(self.metrics, "remove_prefix", None)
        if callable(remove):
            remove(f"tenant.{tenant}.")

    # ------------------------------------------------------------------
    # Durable snapshots (store trace archive)
    # ------------------------------------------------------------------
    def _persist(self, tenant: str, snap: dict) -> None:
        if self.store is not None:
            self.store.archive_trace(snapshot_name(tenant), snap)

    def _load_snapshot(self, tenant: str) -> dict | None:
        if self.store is None:
            return None
        name = snapshot_name(tenant)
        if name not in self.store.trace_names():
            return None
        return self.store.load_archived_trace(name)

    # ------------------------------------------------------------------
    # Result builders
    # ------------------------------------------------------------------
    @staticmethod
    def _state(
        request: StreamRequest,
        live: LiveSchedule,
        *,
        snapshot: dict | None = None,
        restored: bool = False,
    ) -> StreamResult:
        return StreamResult(
            request_id=request.request_id,
            tenant=request.tenant,
            action=request.action,
            makespan=live.makespan,
            ratio=round(live.tracked_ratio(), 6),
            resolves=live.resolves,
            repairs=live.repairs,
            num_jobs=live.num_jobs,
            restored=restored,
            snapshot=snapshot,
        )

    @staticmethod
    def _error(request: StreamRequest, message: str) -> StreamResult:
        return StreamResult(
            request_id=request.request_id,
            tenant=request.tenant,
            action=request.action,
            status=STATUS_ERROR,
            error=message,
        )
