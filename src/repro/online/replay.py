"""Seeded traffic-replay harness for the online scheduler.

The harness answers the question the static benchmarks cannot: *how
much PTAS work does incremental repair actually save on live traffic,
and at what cost in schedule quality?*  It generates a reproducible
event trace (Poisson or bursty arrivals over the existing workload
families, random departures) and drives the same trace through two
modes:

* ``incremental`` — the production drift policy: O(log m) repair per
  event, full re-solve only when the tracked ratio crosses the
  threshold (:class:`repro.online.live.LiveSchedule` defaults);
* ``scratch`` — the recompute-from-scratch baseline: automatic
  re-solves disabled (``drift_threshold=inf``) and an explicit full
  PTAS re-solve forced after *every* event.

Both modes end with :meth:`~repro.online.live.LiveSchedule.settle`, so
the final schedules carry the same certified ``1 + eps`` quality and
the solve counts compare like for like.  Every sampled point also runs
:func:`repro.model.verify.verify_schedule` — a replay whose schedule
ever goes inconsistent fails loudly, not statistically.

``benchmarks/bench_online.py`` records these reports into the
``online`` section of ``BENCH_dp.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.model.verify import verify_schedule
from repro.online.events import StreamEvent
from repro.online.live import LiveSchedule
from repro.workloads.generator import make_instance

__all__ = ["ReplayConfig", "ReplayReport", "generate_events", "run_replay"]

_ARRIVALS = ("poisson", "burst")
_MODES = ("incremental", "scratch")


@dataclass(frozen=True)
class ReplayConfig:
    """One reproducible traffic scenario (seed-determined end to end).

    Processing times are drawn from the named workload *family* (the
    same distributions as the static benchmarks); *arrival* picks the
    batching shape — ``poisson`` draws each batch size from
    ``Poisson(rate)`` (floored at 1), ``burst`` sends a
    ``burst_size``-job batch every ``burst_every`` events and singletons
    in between.  Each event is a departure with probability
    *depart_prob* (when jobs are live), removing 1–3 random jobs.
    """

    family: str = "u_100"
    machines: int = 4
    eps: float = 0.2
    num_events: int = 60
    arrival: str = "poisson"
    rate: float = 2.0
    burst_size: int = 6
    burst_every: int = 8
    depart_prob: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; valid: {_ARRIVALS}"
            )
        if self.machines < 1:
            raise ValueError(f"machines must be >= 1, got {self.machines}")
        if self.num_events < 1:
            raise ValueError(f"num_events must be >= 1, got {self.num_events}")
        if not 0.0 <= self.depart_prob < 1.0:
            raise ValueError(
                f"depart_prob must be in [0, 1), got {self.depart_prob}"
            )


def generate_events(config: ReplayConfig) -> list[StreamEvent]:
    """The scenario's event trace — same config, same trace, always.

    Job ids are ``j0, j1, ...`` in arrival order; times come from a
    family-drawn pool (cycled if a pinned-size family yields fewer than
    needed).  The first event is always an arrival.
    """
    rng = np.random.default_rng(config.seed)
    pool_size = config.num_events * max(
        config.burst_size, int(config.rate * 3) + 1, 4
    )
    pool = make_instance(
        config.family, config.machines, pool_size, seed=config.seed
    ).processing_times
    events: list[StreamEvent] = []
    live: list[str] = []
    next_id = 0
    cursor = 0
    for i in range(config.num_events):
        if i > 0 and live and rng.random() < config.depart_prob:
            k = int(rng.integers(1, min(3, len(live)) + 1))
            picks = rng.choice(len(live), size=k, replace=False)
            victims = tuple(live[int(p)] for p in sorted(picks))
            for victim in victims:
                live.remove(victim)
            events.append(StreamEvent("remove", job_ids=victims))
            continue
        if config.arrival == "burst":
            size = config.burst_size if i % config.burst_every == 0 else 1
        else:
            size = max(1, int(rng.poisson(config.rate)))
        jobs = []
        for _ in range(size):
            jobs.append((f"j{next_id}", int(pool[cursor % len(pool)])))
            next_id += 1
            cursor += 1
        live.extend(job_id for job_id, _ in jobs)
        events.append(StreamEvent("add", jobs=tuple(jobs)))
    return events


@dataclass
class ReplayReport:
    """What one (trace, mode) run did, JSON-safe via :meth:`to_dict`.

    ``full_solves`` counts actual PTAS solver executions
    (``resolves - cached_resolves``) — the quantity the bench's >= 5x
    saving gate compares.  ``ratio_within_guarantee`` asserts the
    quality half of the deal: at every re-solve point the post-solve
    tracked ratio was at most the engine's guarantee.
    """

    mode: str
    num_events: int
    resolves: int
    cached_resolves: int
    full_solves: int
    repairs: int
    final_makespan: int
    final_ratio: float
    final_jobs: int
    snapshots_verified: int
    ratio_within_guarantee: bool
    settled: bool
    quality: list[dict[str, Any]] = field(default_factory=list)
    resolve_points: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (what the benchmark records per run)."""
        return {
            "mode": self.mode,
            "num_events": self.num_events,
            "resolves": self.resolves,
            "cached_resolves": self.cached_resolves,
            "full_solves": self.full_solves,
            "repairs": self.repairs,
            "final_makespan": self.final_makespan,
            "final_ratio": self.final_ratio,
            "final_jobs": self.final_jobs,
            "snapshots_verified": self.snapshots_verified,
            "ratio_within_guarantee": self.ratio_within_guarantee,
            "settled": self.settled,
            "quality": self.quality,
            "resolve_points": self.resolve_points,
        }


def run_replay(
    events: list[StreamEvent],
    *,
    machines: int,
    eps: float = 0.2,
    mode: str = "incremental",
    engine: str = "ptas",
    drift_threshold: float | None = None,
    cache: Any = None,
    metrics: Any = None,
    verify_every: int = 10,
    sample_every: int = 1,
    tenant: str = "replay",
) -> ReplayReport:
    """Drive one event trace through a live schedule in *mode*.

    Raises ``AssertionError`` if any periodic schedule verification
    fails — replay results are only comparable when every intermediate
    schedule is semantically sound.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown replay mode {mode!r}; valid: {_MODES}")
    live = LiveSchedule(
        tenant,
        machines,
        eps=eps,
        engine=engine,
        drift_threshold=math.inf if mode == "scratch" else drift_threshold,
        cache=cache,
        metrics=metrics,
    )
    quality: list[dict[str, Any]] = []
    snapshots_verified = 0
    for i, event in enumerate(events):
        if event.kind == "add":
            live.add_jobs(event.jobs)
        else:
            live.remove_jobs(event.job_ids)
        if mode == "scratch":
            live.resolve()
        if sample_every and i % sample_every == 0:
            quality.append(
                {
                    "event": i,
                    "num_jobs": live.num_jobs,
                    "makespan": live.makespan,
                    "ratio": round(live.tracked_ratio(), 6),
                }
            )
        if verify_every and i % verify_every == 0 and live.num_jobs:
            verify_schedule(live.schedule()).raise_if_failed()
            snapshots_verified += 1
    settled = live.settle(1.0 + eps)
    if live.num_jobs:
        verify_schedule(live.schedule()).raise_if_failed()
        snapshots_verified += 1
    guarantee_ok = all(
        point["ratio_after"] <= point["guarantee"] + 1e-9
        for point in live.resolve_log
    )
    return ReplayReport(
        mode=mode,
        num_events=len(events),
        resolves=live.resolves,
        cached_resolves=live.cached_resolves,
        full_solves=live.resolves - live.cached_resolves,
        repairs=live.repairs,
        final_makespan=live.makespan,
        final_ratio=round(live.tracked_ratio(), 6),
        final_jobs=live.num_jobs,
        snapshots_verified=snapshots_verified,
        ratio_within_guarantee=guarantee_ok,
        settled=settled,
        quality=quality,
        resolve_points=list(live.resolve_log),
    )
