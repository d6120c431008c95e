"""One tenant's live schedule: incremental repair + drift-triggered re-solves.

The invariant this module maintains (property-tested with hypothesis in
``tests/test_online.py``): **after every applied event, the tracked
approximation ratio is at most the drift threshold** — by default the
Della Croce–Scatamacchia LPT bound
(:func:`repro.algorithms.lpt.dcs_lpt_bound`), floored at the PTAS
guarantee ``1 + eps`` (a threshold below what a re-solve can certify
would re-solve on every event).  Whenever an event pushes the ratio past
the threshold, a full warm-started PTAS re-solve fires *inside* that
event, so callers never observe a drifted schedule.

The tracked ratio is ``makespan / max(trivial LB, certified LB)``:

* the *trivial* lower bound is ``max(ceil(total/m), max t)``
  (:meth:`repro.model.instance.Instance.trivial_lower_bound`);
* the *certified* lower bound is stamped at each re-solve: a PTAS
  makespan ``C`` with guarantee ``1 + eps`` proves ``OPT >= C/(1+eps)``.
  Arrivals keep it valid (adding jobs never shrinks the optimum);
  departures reset it (the optimum may drop), leaving the trivial bound.

Re-solves reuse everything the service already has: the
permutation-invariant :class:`repro.service.cache.ResultCache` key
space (a tenant whose multiset of times recurs — or matches another
tenant's — is answered from cache without solving), and the previous
round's knowledge through the bisection's ``ub_hint`` — the live
makespan is a real schedule's makespan, hence a feasible rounded-DP
target, so the search starts below both Eq. 2 and a fresh LPT run.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Iterable

from repro.algorithms.lpt import dcs_lpt_bound
from repro.core.context import SolveContext
from repro.model.instance import Instance
from repro.model.schedule import Schedule
from repro.service.cache import ResultCache
from repro.service.registry import solve_to_result
from repro.service.requests import SolveRequest

__all__ = ["LiveSchedule"]

#: Tolerance for the drift comparison (ratios are float quotients).
_EPS = 1e-9

#: Snapshot format version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1


class LiveSchedule:
    """A mutable schedule absorbing arrival/departure events for one tenant.

    Parameters
    ----------
    tenant:
        Opaque tenant id — namespaces the per-tenant metrics
        (``tenant.<id>.resolves/repairs/ratio``) and the durable
        snapshot name.
    machines:
        Number of identical machines ``m``.
    eps:
        PTAS relative error of the re-solve engine.
    engine:
        Registry engine for re-solves (``ptas`` by default).
    drift_threshold:
        Re-solve when the tracked ratio exceeds this.  ``None`` (the
        default) means :func:`~repro.algorithms.lpt.dcs_lpt_bound`; the
        effective threshold is always floored at ``1 + eps`` (the best a
        re-solve can certify), and ``math.inf`` disables automatic
        re-solves entirely (the replay harness's from-scratch baseline
        forces its own).
    cache:
        Optional :class:`~repro.service.cache.ResultCache` shared with
        the service — re-solves read and write the same
        permutation-invariant key space as one-shot requests.
    metrics:
        Optional metrics registry (duck-typed); per-event gauges land
        under ``tenant.<id>.*``.
    """

    def __init__(
        self,
        tenant: str,
        machines: int,
        *,
        eps: float = 0.2,
        engine: str = "ptas",
        drift_threshold: float | None = None,
        cache: ResultCache | None = None,
        metrics: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if drift_threshold is not None and drift_threshold < 1.0:
            raise ValueError(
                f"drift_threshold must be >= 1, got {drift_threshold}"
            )
        self.tenant = tenant
        self.machines = machines
        self.eps = eps
        self.engine = engine
        self.drift_threshold = drift_threshold
        self.cache = cache
        self.metrics = metrics
        self._clock = clock

        self._times: dict[str, int] = {}
        self._machine_of: dict[str, int] = {}
        self._loads: list[int] = [0] * machines
        self._heap: list[tuple[int, int]] = [(0, i) for i in range(machines)]
        #: ``OPT >= cert_lb``, certified by the last re-solve (0 = none).
        self._cert_lb = 0.0
        self.events = 0
        self.repairs = 0
        self.resolves = 0
        self.cached_resolves = 0
        #: One record per re-solve: the drift that fired it and the
        #: certified state after it — the bench's quality audit trail.
        self.resolve_log: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self._times)

    @property
    def makespan(self) -> int:
        return max(self._loads) if self._times else 0

    @property
    def machine_loads(self) -> tuple[int, ...]:
        return tuple(self._loads)

    def trivial_lower_bound(self) -> int:
        """``max(ceil(total/m), max t)`` over the live job set (0 if empty)."""
        if not self._times:
            return 0
        total = sum(self._times.values())
        return max(-(-total // self.machines), max(self._times.values()))

    def tracked_ratio(self) -> float:
        """``makespan / max(trivial LB, certified LB)`` (1.0 when empty)."""
        if not self._times:
            return 1.0
        lower = max(float(self.trivial_lower_bound()), self._cert_lb)
        return self.makespan / lower if lower > 0 else 1.0

    @property
    def threshold(self) -> float:
        """The effective drift threshold (see class docstring)."""
        base = (
            self.drift_threshold
            if self.drift_threshold is not None
            else dcs_lpt_bound(self.machines)
        )
        return max(base, 1.0 + self.eps)

    def instance(self) -> Instance:
        """The live job multiset as an :class:`Instance` (canonical job
        order: ids sorted lexicographically)."""
        if not self._times:
            raise ValueError("empty live schedule has no instance")
        order = sorted(self._times)
        return Instance([self._times[j] for j in order], self.machines)

    def schedule(self) -> Schedule:
        """The current assignment as a validated :class:`Schedule`."""
        instance = self.instance()  # raises when empty
        order = sorted(self._times)
        index_of = {job_id: i for i, job_id in enumerate(order)}
        groups: list[list[int]] = [[] for _ in range(self.machines)]
        for job_id, machine in self._machine_of.items():
            groups[machine].append(index_of[job_id])
        return Schedule(instance, tuple(tuple(sorted(g)) for g in groups))

    def job_machine(self, job_id: str) -> int:
        """The machine currently hosting *job_id*."""
        return self._machine_of[job_id]

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def add_jobs(self, jobs: Iterable[tuple[str, int]]) -> int:
        """Apply one arrival event: place each job on the least-loaded
        machine (O(log m) each, longest first within the batch — the LPT
        order), then run the drift policy.  Returns the number of
        re-solves the event triggered (0 or 1)."""
        batch = [(str(job_id), int(t)) for job_id, t in jobs]
        seen: set[str] = set()
        for job_id, t in batch:
            if t < 1:
                raise ValueError(
                    f"job {job_id!r}: processing time must be >= 1, got {t}"
                )
            if job_id in self._times:
                raise ValueError(f"job {job_id!r} already in live schedule")
            if job_id in seen:
                raise ValueError(f"job {job_id!r} duplicated within the batch")
            seen.add(job_id)
        for job_id, t in sorted(batch, key=lambda item: (-item[1], item[0])):
            machine = self._pop_least_loaded()
            self._times[job_id] = t
            self._machine_of[job_id] = machine
            self._loads[machine] += t
            heapq.heappush(self._heap, (self._loads[machine], machine))
            self.repairs += 1
        self.events += 1
        return self._after_event()

    def remove_jobs(self, job_ids: Iterable[str]) -> int:
        """Apply one departure event; the certified lower bound is
        invalidated (the optimum may shrink).  Returns the number of
        re-solves the event triggered (0 or 1)."""
        ids = [str(job_id) for job_id in job_ids]
        seen: set[str] = set()
        for job_id in ids:
            if job_id not in self._times:
                raise ValueError(f"job {job_id!r} not in live schedule")
            if job_id in seen:
                raise ValueError(f"job {job_id!r} duplicated within the batch")
            seen.add(job_id)
        for job_id in ids:
            machine = self._machine_of.pop(job_id)
            self._loads[machine] -= self._times.pop(job_id)
            heapq.heappush(self._heap, (self._loads[machine], machine))
        self._cert_lb = 0.0
        self.events += 1
        return self._after_event()

    def _pop_least_loaded(self) -> int:
        """The machine with the smallest current load (lazy-deletion heap)."""
        while True:
            load, machine = heapq.heappop(self._heap)
            if load == self._loads[machine]:
                return machine

    def _after_event(self) -> int:
        """Drift policy + metrics, shared by both event kinds."""
        fired = 0
        if self._times and self.tracked_ratio() > self.threshold + _EPS:
            self.resolve()
            fired = 1
        self._publish_metrics()
        return fired

    # ------------------------------------------------------------------
    # Full re-solve
    # ------------------------------------------------------------------
    def resolve(self) -> bool:
        """Run a full warm-started PTAS re-solve and adopt its schedule.

        Returns ``True`` if the answer came from the shared cache (no
        solver ran).  After a resolve the tracked ratio is at most the
        engine's guarantee — the certified lower bound is stamped from
        the fresh makespan.  No-op on an empty schedule.
        """
        if not self._times:
            return False
        ratio_before = self.tracked_ratio()
        order = sorted(self._times)
        request = SolveRequest(
            times=tuple(self._times[j] for j in order),
            machines=self.machines,
            engine=self.engine,
            eps=self.eps,
            request_id=f"{self.tenant}-resolve-{self.resolves + 1}",
        )
        result = self.cache.get(request) if self.cache is not None else None
        cached = result is not None
        if result is None:
            ctx = SolveContext(
                warm_start=True, ub_hint=self.makespan, metrics=self.metrics
            )
            result = solve_to_result(request, ctx, clock=self._clock)
            if self.cache is not None:
                self.cache.put(request, result)
        assert result.assignment is not None
        for machine, group in enumerate(result.assignment):
            for position in group:
                self._machine_of[order[position]] = machine
        self._loads = [0] * self.machines
        for job_id, machine in self._machine_of.items():
            self._loads[machine] += self._times[job_id]
        self._heap = [(load, i) for i, load in enumerate(self._loads)]
        heapq.heapify(self._heap)
        guarantee = result.guarantee if result.guarantee else 1.0 + self.eps
        self._cert_lb = result.makespan / guarantee
        self.resolves += 1
        self.cached_resolves += int(cached)
        self.resolve_log.append(
            {
                "event": self.events,
                "num_jobs": self.num_jobs,
                "ratio_before": round(ratio_before, 6),
                "ratio_after": round(self.tracked_ratio(), 6),
                "makespan": self.makespan,
                "guarantee": guarantee,
                "cached": cached,
            }
        )
        self._publish_metrics()
        return cached

    def settle(self, target_ratio: float | None = None) -> bool:
        """Force a final drift check at *target_ratio* (default: the
        PTAS guarantee ``1 + eps``) — used at the end of a replay so the
        finished schedule carries the same certified quality a
        from-scratch recomputation would.  Returns whether a re-solve
        ran."""
        target = target_ratio if target_ratio is not None else 1.0 + self.eps
        if self._times and self.tracked_ratio() > target + _EPS:
            self.resolve()
            return True
        return False

    # ------------------------------------------------------------------
    # Durable snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Full JSON-safe session state (round-trips via :meth:`restore`)."""
        return {
            "version": SNAPSHOT_VERSION,
            "tenant": self.tenant,
            "machines": self.machines,
            "eps": self.eps,
            "engine": self.engine,
            "drift_threshold": self.drift_threshold,
            "jobs": dict(self._times),
            "assignment": dict(self._machine_of),
            "events": self.events,
            "repairs": self.repairs,
            "resolves": self.resolves,
            "cached_resolves": self.cached_resolves,
            "cert_lb": self._cert_lb,
            "makespan": self.makespan,
            "ratio": round(self.tracked_ratio(), 6),
            "loads": list(self._loads),
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict[str, Any],
        *,
        cache: ResultCache | None = None,
        metrics: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "LiveSchedule":
        """Rebuild a live schedule from a :meth:`snapshot` payload.

        The certified lower bound survives the round trip — state is
        restored exactly as persisted, so the bound's proof still holds.
        Snapshots written by release 1.0.0 also carry a ``dp_engine``
        field; it is ignored (``ptas`` re-solves always run the
        wavefront kernel now).
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported live-schedule snapshot version {version!r}"
            )
        threshold = snapshot.get("drift_threshold")
        live = cls(
            str(snapshot["tenant"]),
            int(snapshot["machines"]),
            eps=float(snapshot["eps"]),
            engine=str(snapshot.get("engine", "ptas")),
            drift_threshold=None if threshold is None else float(threshold),
            cache=cache,
            metrics=metrics,
            clock=clock,
        )
        jobs = {str(j): int(t) for j, t in snapshot.get("jobs", {}).items()}
        assignment = {
            str(j): int(m) for j, m in snapshot.get("assignment", {}).items()
        }
        if set(jobs) != set(assignment):
            raise ValueError("snapshot jobs and assignment disagree")
        for job_id, machine in assignment.items():
            if not 0 <= machine < live.machines:
                raise ValueError(
                    f"snapshot assigns job {job_id!r} to machine {machine} "
                    f"of {live.machines}"
                )
        live._times = jobs
        live._machine_of = assignment
        live._loads = [0] * live.machines
        for job_id, machine in assignment.items():
            live._loads[machine] += jobs[job_id]
        live._heap = [(load, i) for i, load in enumerate(live._loads)]
        heapq.heapify(live._heap)
        live._cert_lb = float(snapshot.get("cert_lb", 0.0))
        live.events = int(snapshot.get("events", 0))
        live.repairs = int(snapshot.get("repairs", 0))
        live.resolves = int(snapshot.get("resolves", 0))
        live.cached_resolves = int(snapshot.get("cached_resolves", 0))
        live._publish_metrics()
        return live

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _publish_metrics(self) -> None:
        if self.metrics is None:
            return
        prefix = f"tenant.{self.tenant}"
        self.metrics.gauge(f"{prefix}.ratio").set(round(self.tracked_ratio(), 6))
        self.metrics.gauge(f"{prefix}.resolves").set(float(self.resolves))
        self.metrics.gauge(f"{prefix}.repairs").set(float(self.repairs))
        self.metrics.gauge(f"{prefix}.jobs").set(float(self.num_jobs))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LiveSchedule(tenant={self.tenant!r}, m={self.machines}, "
            f"jobs={self.num_jobs}, makespan={self.makespan}, "
            f"ratio={self.tracked_ratio():.4f}, resolves={self.resolves})"
        )


# Re-exported for callers that want the inf sentinel without importing math.
INF_THRESHOLD = math.inf
