"""Wire types of the scheduling service.

A :class:`SolveRequest` carries one scheduling instance — a *problem*
tag (``p_cmax`` on identical machines, the default, or ``q_cmax`` on
uniformly related machines with a ``speeds`` vector) — plus solver
selection (engine name, ``eps``, tuning knobs) and an optional
*deadline* — a per-request wall-clock budget in seconds.  A
:class:`SolveResult` carries the outcome: the assignment, its makespan
(an integer load for ``p_cmax``, a fractional completion time for
``q_cmax``), the a-priori guarantee factor of the engine that actually
produced it, and service metadata (cache hit, degradation, rejection).

The envelope is versioned by an explicit ``protocol`` field:

* **v1** (``protocol`` absent or ``1``) — the historical ``P || Cmax``
  envelope.  Requests may not carry ``problem``/``speeds``; existing
  clients keep working unchanged.
* **v2** (``protocol: 2``) — adds the ``problem`` axis and ``speeds``.

Unknown versions are rejected with a :class:`ValueError` whose message
names the supported versions — the server turns that into a typed
``status="error"`` response line.

Both types serialize to single-line JSON objects — the unit of the
service's JSON-lines protocol (``docs/service.md``).  Deserialization is
strict about structure (missing/odd fields raise :class:`ValueError`
rather than producing half-formed requests) because the bytes arrive
from a socket.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

from repro.model.instance import Instance
from repro.model.problem import P_CMAX, Q_CMAX, canonical_problem_name
from repro.model.qinstance import QInstance, QSchedule
from repro.model.schedule import Schedule

#: Protocol version this library speaks natively.
PROTOCOL_VERSION = 2

#: Envelope versions the service accepts.
SUPPORTED_PROTOCOLS = (1, 2)


def _check_protocol(value: object) -> int:
    """Validate a wire ``protocol`` field; returns the int version."""
    try:
        version = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(
            f"protocol must be an integer, got {value!r}"
        ) from None
    if version not in SUPPORTED_PROTOCOLS:
        supported = ", ".join(str(v) for v in SUPPORTED_PROTOCOLS)
        raise ValueError(
            f"unsupported protocol version {version}; "
            f"this service supports versions {supported}"
        )
    return version


class DeadlineExceeded(Exception):
    """Raised (by a ``check_deadline`` callback) when a solve overruns
    its per-request budget; the service catches it and degrades to LPT."""


#: Result status values.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class SolveRequest:
    """One solve order: an instance plus engine selection and budget.

    Parameters
    ----------
    times:
        Positive integer processing times, one per job.
    machines:
        Number of machines ``m``.  For ``q_cmax`` it must equal
        ``len(speeds)``.
    problem:
        Problem variant (:func:`repro.model.available_problems`):
        ``p_cmax`` (default, identical machines) or ``q_cmax``
        (uniformly related machines; requires ``speeds``).
    speeds:
        Positive integer machine speeds, one per machine — required for
        ``q_cmax``, forbidden for ``p_cmax``.
    protocol:
        Wire envelope version.  Requests built in-process default to
        the current version; on the wire, an absent field means v1
        (which cannot carry ``problem``/``speeds``).
    engine:
        Registry engine name (:func:`repro.service.registry.available_engines`);
        dashes and underscores are interchangeable (``parallel-ptas`` ==
        ``parallel_ptas``).
    eps:
        Relative error for the PTAS engines (ignored by the baselines).
    deadline:
        Wall-clock budget in seconds for this request, measured from
        admission.  ``None`` means unbounded.  When a deadline-capable
        engine overruns, the service returns the LPT schedule tagged
        ``degraded=True`` instead of timing out the client.
    workers / backend:
        Worker count and wavefront backend for ``parallel_ptas``
        (default: one ``numpy-serial`` worker, the engine ``ptas``
        always runs).  ``workers`` may be the string ``"auto"`` —
        resolved server-side to the CPUs the process can actually use
        (:func:`repro.parallel.cpus.resolve_workers`).
        Every backend fills the same table, so ``workers`` and
        ``backend`` change how fast, never what, a PTAS engine answers.
    time_limit:
        Budget forwarded to the exact ``ilp`` solver.
    request_id:
        Opaque client-chosen correlation id, echoed in the result.
    """

    times: tuple[int, ...]
    machines: int
    problem: str = P_CMAX
    speeds: tuple[int, ...] = ()
    protocol: int = PROTOCOL_VERSION
    engine: str = "ptas"
    eps: float = 0.3
    deadline: float | None = None
    workers: int | str = 1
    backend: str = "numpy-serial"
    time_limit: float | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(int(t) for t in self.times))
        object.__setattr__(self, "problem", canonical_problem_name(self.problem))
        object.__setattr__(self, "speeds", tuple(int(s) for s in self.speeds))
        object.__setattr__(self, "protocol", _check_protocol(self.protocol))
        if self.protocol < 2 and (self.problem != P_CMAX or self.speeds):
            raise ValueError(
                "fields 'problem'/'speeds' require protocol version 2 "
                f"(request declared protocol {self.protocol})"
            )
        if self.problem == Q_CMAX:
            if not self.speeds:
                raise ValueError("problem 'q_cmax' requires a 'speeds' vector")
            if self.machines != len(self.speeds):
                raise ValueError(
                    f"machines={self.machines} disagrees with "
                    f"{len(self.speeds)} speeds"
                )
        elif self.speeds:
            raise ValueError(
                f"problem {self.problem!r} does not take machine speeds"
            )
        if self.deadline is not None and self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ValueError(
                    f"workers must be a positive int or 'auto', got {self.workers!r}"
                )
        elif self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def num_jobs(self) -> int:
        return len(self.times)

    def instance(self) -> Instance | QInstance:
        """The validated instance this request describes —
        :class:`Instance` for ``p_cmax``, :class:`QInstance` for
        ``q_cmax``."""
        if self.problem == Q_CMAX:
            return QInstance(self.times, self.speeds)
        return Instance(self.times, self.machines)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form (``times`` as a list), built field by
        field: ``asdict`` would deep-copy every tuple first."""
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        d["times"] = list(self.times)
        return d

    def to_json(self) -> str:
        """One protocol line (compact JSON, no newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "SolveRequest":
        """Strictly parse a decoded JSON object into a request."""
        if not isinstance(data, dict):
            raise ValueError(f"request must be a JSON object, got {type(data).__name__}")
        try:
            times = data["times"]
            machines = data["machines"]
        except KeyError as exc:
            raise ValueError(f"request is missing required field {exc.args[0]!r}") from None
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown request field(s): {sorted(extra)}")
        kwargs = {k: v for k, v in data.items() if k not in ("times", "machines")}
        # A version-absent envelope is a v1 client: plain P || Cmax.  The
        # v1 restrictions (no problem/speeds) are enforced in
        # __post_init__ against the declared version.
        kwargs.setdefault("protocol", 1)
        return cls(times=tuple(times), machines=int(machines), **kwargs)

    @classmethod
    def from_json(cls, line: str) -> "SolveRequest":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed request JSON: {exc}") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one request (also the unit of the response stream).

    ``status`` is ``"ok"`` (schedule present, possibly ``degraded``),
    ``"rejected"`` (load shed — retry after ``retry_after`` seconds), or
    ``"error"`` (bad request / solver failure; see ``error``).

    ``guarantee`` is the a-priori approximation factor of the engine that
    actually produced the schedule: ``1 + eps`` for the PTAS engines,
    Graham's ``4/3 - 1/(3m)`` when the result is an LPT degradation, and
    ``1.0`` for exact engines.  For ``q_cmax`` requests the degradation
    bound is the speed-aware
    :func:`~repro.algorithms.related.q_lpt_worst_case_ratio` and
    ``makespan`` is a float (maximum machine *completion time*, which
    is fractional under speeds) rather than an integer load.
    """

    request_id: str = ""
    status: str = STATUS_OK
    engine: str = ""
    makespan: int | float | None = None
    assignment: tuple[tuple[int, ...], ...] | None = None
    guarantee: float | None = None
    degraded: bool = False
    cached: bool = False
    elapsed: float = 0.0
    retry_after: float | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.assignment is not None:
            object.__setattr__(
                self,
                "assignment",
                tuple(tuple(int(j) for j in grp) for grp in self.assignment),
            )

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def schedule(self, instance: Instance | QInstance) -> Schedule | QSchedule:
        """Reconstruct the validated schedule for *instance* —
        :class:`Schedule` or :class:`QSchedule` by instance type."""
        if self.assignment is None:
            raise ValueError(f"result has no assignment (status={self.status!r})")
        if isinstance(instance, QInstance):
            return QSchedule(instance, self.assignment)
        return Schedule(instance, self.assignment)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form (assignment as nested lists), built field
        by field: ``asdict`` would deep-copy the assignment first."""
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        if self.assignment is not None:
            d["assignment"] = [list(grp) for grp in self.assignment]
        return d

    def to_json(self) -> str:
        """One protocol line (compact JSON, no newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "SolveResult":
        """Strictly parse a decoded JSON object into a result."""
        if not isinstance(data, dict):
            raise ValueError(f"result must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown result field(s): {sorted(extra)}")
        kwargs = dict(data)
        if kwargs.get("assignment") is not None:
            kwargs["assignment"] = tuple(tuple(g) for g in kwargs["assignment"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, line: str) -> "SolveResult":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed result JSON: {exc}") from None
        return cls.from_dict(data)

    def with_request_id(self, request_id: str) -> "SolveResult":
        """A copy carrying *request_id* (cache hits echo the caller's)."""
        return replace(self, request_id=request_id)


#: Valid actions of the ``op=stream`` session protocol.
STREAM_ACTIONS = ("open_session", "add_jobs", "remove_jobs", "snapshot", "close")


@dataclass(frozen=True)
class StreamRequest:
    """One event of a tenant's live-schedule session (``op=stream``).

    Sessions are stateful: ``open_session`` creates (or restores) the
    tenant's :class:`repro.online.live.LiveSchedule`; ``add_jobs`` /
    ``remove_jobs`` mutate it through the incremental-repair + drift
    policy; ``snapshot`` returns (and durably persists) its full state;
    ``close`` persists and drops it.  Events of one tenant are applied
    in arrival order — the server handles stream lines inline per
    connection, and the pooled service pins a tenant to one worker's
    serial lane (``docs/online.md``).

    ``jobs`` carries ``(job_id, processing_time)`` pairs for
    ``add_jobs``; ``job_ids`` names the departures for ``remove_jobs``.
    ``machines`` / ``eps`` / ``engine`` / ``drift_threshold`` are
    session parameters, read at ``open_session`` and ignored afterwards
    (``drift_threshold=None`` means the Della Croce–Scatamacchia LPT
    bound, :func:`repro.algorithms.lpt.dcs_lpt_bound`).

    ``problem`` follows the versioned-envelope rules of
    :class:`SolveRequest` (absent ``protocol`` = v1 = ``p_cmax``).
    Live sessions currently support ``p_cmax`` only; the session layer
    rejects other variants with an error event naming the supported
    set.
    """

    action: str
    tenant: str
    machines: int = 0
    problem: str = P_CMAX
    protocol: int = PROTOCOL_VERSION
    eps: float = 0.2
    engine: str = "ptas"
    drift_threshold: float | None = None
    jobs: tuple[tuple[str, int], ...] = ()
    job_ids: tuple[str, ...] = ()
    persist: bool = True
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.action not in STREAM_ACTIONS:
            raise ValueError(
                f"unknown stream action {self.action!r}; valid: {list(STREAM_ACTIONS)}"
            )
        object.__setattr__(self, "problem", canonical_problem_name(self.problem))
        object.__setattr__(self, "protocol", _check_protocol(self.protocol))
        if self.protocol < 2 and self.problem != P_CMAX:
            raise ValueError(
                "field 'problem' requires protocol version 2 "
                f"(request declared protocol {self.protocol})"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if isinstance(self.machines, float) and not self.machines.is_integer():
            raise ValueError(
                f"machines must be an integer, got {self.machines!r}"
            )
        try:
            object.__setattr__(self, "machines", int(self.machines))
        except (TypeError, ValueError):
            raise ValueError(
                f"machines must be an integer, got {self.machines!r}"
            ) from None
        try:
            object.__setattr__(self, "eps", float(self.eps))
        except (TypeError, ValueError):
            raise ValueError(f"eps must be a number, got {self.eps!r}") from None
        if self.drift_threshold is not None:
            try:
                object.__setattr__(
                    self, "drift_threshold", float(self.drift_threshold)
                )
            except (TypeError, ValueError):
                raise ValueError(
                    f"drift_threshold must be a number, got "
                    f"{self.drift_threshold!r}"
                ) from None
        try:
            object.__setattr__(
                self,
                "jobs",
                tuple((str(j), int(t)) for j, t in self.jobs),
            )
        except (TypeError, ValueError):
            raise ValueError(
                "jobs must be [job_id, integer time] pairs"
            ) from None
        object.__setattr__(self, "job_ids", tuple(str(j) for j in self.job_ids))
        for job_id, t in self.jobs:
            if t < 1:
                raise ValueError(
                    f"job {job_id!r}: processing time must be >= 1, got {t}"
                )
        if self.action == "open_session" and self.machines < 1:
            raise ValueError(
                f"open_session needs machines >= 1, got {self.machines}"
            )
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.drift_threshold is not None and self.drift_threshold < 1.0:
            raise ValueError(
                f"drift_threshold must be >= 1, got {self.drift_threshold}"
            )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form, tagged ``op=stream``."""
        d = asdict(self)
        d["op"] = "stream"
        d["jobs"] = [[j, t] for j, t in self.jobs]
        d["job_ids"] = list(self.job_ids)
        return d

    def to_json(self) -> str:
        """One protocol line (compact JSON, no newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "StreamRequest":
        """Strictly parse a decoded JSON object into a stream request."""
        if not isinstance(data, dict):
            raise ValueError(
                f"stream request must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        op = payload.pop("op", "stream")
        if op != "stream":
            raise ValueError(f"stream request has op={op!r}, expected 'stream'")
        try:
            action = payload.pop("action")
            tenant = payload.pop("tenant")
        except KeyError as exc:
            raise ValueError(
                f"stream request is missing required field {exc.args[0]!r}"
            ) from None
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown stream request field(s): {sorted(extra)}")
        jobs = payload.pop("jobs", ())
        if not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in jobs
        ):
            raise ValueError("jobs must be a list of [job_id, time] pairs")
        payload.setdefault("protocol", 1)
        return cls(
            action=str(action),
            tenant=str(tenant),
            jobs=tuple((j, t) for j, t in jobs),
            **payload,
        )

    @classmethod
    def from_json(cls, line: str) -> "StreamRequest":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed stream request JSON: {exc}") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one stream event, echoed on the same connection.

    ``makespan`` / ``ratio`` / ``num_jobs`` describe the live schedule
    *after* the event; ``resolves`` / ``repairs`` are the session's
    cumulative counters (a jump in ``resolves`` means this event tripped
    the drift policy into a full PTAS re-solve).  ``snapshot`` is only
    populated for the ``snapshot`` action and carries the full durable
    session state (:meth:`repro.online.live.LiveSchedule.snapshot`).
    """

    request_id: str = ""
    tenant: str = ""
    action: str = ""
    status: str = STATUS_OK
    makespan: int | None = None
    ratio: float | None = None
    resolves: int = 0
    repairs: int = 0
    num_jobs: int = 0
    restored: bool = False
    snapshot: dict | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict form, tagged ``op=stream``."""
        d = asdict(self)
        d["op"] = "stream"
        return d

    def to_json(self) -> str:
        """One protocol line (compact JSON, no newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "StreamResult":
        if not isinstance(data, dict):
            raise ValueError(
                f"stream result must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        payload.pop("op", None)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown stream result field(s): {sorted(extra)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, line: str) -> "StreamResult":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed stream result JSON: {exc}") from None
        return cls.from_dict(data)


def deadline_checker(
    deadline_at: float, clock: Callable[[], float] = time.monotonic
) -> Callable[[], None]:
    """A ``check_deadline`` callback raising :class:`DeadlineExceeded`
    once ``clock()`` passes *deadline_at* (a :func:`time.monotonic`
    instant).  Threaded into the PTAS bisection loops so a solve aborts
    between probes."""

    def check() -> None:
        if clock() > deadline_at:
            raise DeadlineExceeded(f"deadline passed at t={deadline_at:.6f}")

    return check
