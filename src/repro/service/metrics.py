"""Lightweight service metrics: counters, gauges, histograms.

No external dependency — the registry is a dict of named instruments
with a thread-safe ``snapshot()`` (the payload of the service's
``{"op": "stats"}`` query) and a one-line ``render_line()`` for the
periodic log.  Histograms keep exact count/sum/min/max plus a bounded
reservoir of recent observations for approximate percentiles, so memory
stays O(1) per instrument under sustained traffic.

The module also exposes the solver library's own cache telemetry:
:func:`dp_cache_stats` reads ``cache_info()`` from the memoized
machine-configuration enumeration
(:func:`repro.core.configurations._enumerate_cached`) — the hottest
shared cache in the DP path — so the service (and ``bench-dp``) can
report it alongside the request-level counters.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Iterable


class Counter:
    """Monotonically increasing count."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (>= 0) to the count."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, pool utilization)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by *delta*."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Exact count/sum/min/max + reservoir percentiles of recent values."""

    def __init__(self, reservoir_size: int = 512) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self._lock = threading.Lock()
        self._recent: deque[float] = deque(maxlen=reservoir_size)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)
            self._recent.append(v)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def percentile(self, p: float) -> float | None:
        """Approximate percentile (0..100) over the recent reservoir."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            values = sorted(self._recent)
        if not values:
            return None
        rank = min(len(values) - 1, max(0, round(p / 100 * (len(values) - 1))))
        return values[rank]

    def summary(self) -> dict[str, float | int | None]:
        """count/sum/mean/min/max plus reservoir p50/p99."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    >>> reg = MetricsRegistry()
    >>> reg.counter("requests_total").inc()
    >>> reg.histogram("latency_seconds").observe(0.25)
    >>> reg.snapshot()["counters"]["requests_total"]
    1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _instrument(self, table: dict, name: str, make: Callable[[], Any]) -> Any:
        """*table*'s instrument named *name*, made by *make* on first use.

        A hit is one dict read; only a miss takes the lock, re-checks and
        builds the instrument, so racing first lookups share one.
        """
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = table[name] = make()
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter named *name*, created on first use."""
        return self._instrument(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named *name*, created on first use."""
        return self._instrument(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram named *name*, created on first use."""
        return self._instrument(self._histograms, name, Histogram)

    def set_many(self, prefix: str, values: dict[str, float]) -> None:
        """Mirror a dict of values as ``prefix.key`` gauges (used for the
        DP configuration-cache stats and cache counters)."""
        for key, value in values.items():
            self.gauge(f"{prefix}.{key}").set(value)

    def remove_prefix(self, prefix: str) -> int:
        """Drop every instrument whose name starts with *prefix*.

        Used when the entity the instruments describe goes away (e.g. a
        tenant's live-schedule session closes) so ``op=stats`` stops
        reporting its stale values.  Returns the number removed.
        """
        removed = 0
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                stale = [name for name in table if name.startswith(prefix)]
                for name in stale:
                    del table[name]
                removed += len(stale)
        return removed

    def snapshot(self) -> dict:
        """A JSON-safe dump of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {k: h.summary() for k, h in sorted(histograms.items())},
        }

    def render_line(self, include: Iterable[str] | None = None) -> str:
        """One ``key=value`` log line (the periodic service heartbeat)."""
        snap = self.snapshot()
        parts: list[str] = []
        for name, value in snap["counters"].items():
            parts.append(f"{name}={value}")
        for name, value in snap["gauges"].items():
            parts.append(f"{name}={value:g}")
        for name, summary in snap["histograms"].items():
            mean = summary["mean"]
            parts.append(
                f"{name}.count={summary['count']}"
                + (f" {name}.mean={mean:.6f}" if mean is not None else "")
            )
        if include is not None:
            wanted = tuple(include)
            parts = [p for p in parts if p.startswith(wanted)]
        return "metrics: " + " ".join(parts) if parts else "metrics: (empty)"


def dp_cache_stats() -> dict[str, int]:
    """Hit/miss/size statistics of the memoized machine-configuration
    enumeration shared by every DP engine (see
    :mod:`repro.core.configurations`)."""
    from repro.core.configurations import _enumerate_cached

    info = _enumerate_cached.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "currsize": info.currsize,
        "maxsize": info.maxsize or 0,
    }


def record_dp_cache(registry: MetricsRegistry) -> dict[str, int]:
    """Publish :func:`dp_cache_stats` into *registry* as gauges under
    ``dp_config_cache.*`` and return the raw stats."""
    stats = dp_cache_stats()
    registry.set_many("dp_config_cache", {k: float(v) for k, v in stats.items()})
    return stats


def record_stats_source(
    registry: MetricsRegistry, prefix: str, source
) -> dict:
    """Publish any object exposing ``stats() -> dict[str, number]`` as
    ``<prefix>.*`` gauges and return the raw stats.

    Used by the service for the durable store (``store.*``) and the
    write-ahead journal (``journal.*``) so their counters appear in
    ``op=stats`` without this module importing :mod:`repro.store`.
    """
    stats = source.stats()
    registry.set_many(prefix, {k: float(v) for k, v in stats.items()})
    return stats


def _merge_histogram_summaries(
    into: dict[str, float | int | None], summary: dict
) -> None:
    """Fold one worker's histogram summary into a pooled one.

    Only count/sum/min/max merge exactly across processes; percentiles
    do not compose from summaries, so pooled p50/p99 stay ``None`` (the
    per-worker entries keep theirs).
    """
    into["count"] = int(into["count"]) + int(summary.get("count") or 0)
    into["sum"] = float(into["sum"]) + float(summary.get("sum") or 0.0)
    for field, pick in (("min", min), ("max", max)):
        value = summary.get(field)
        if value is None:
            continue
        current = into[field]
        into[field] = value if current is None else pick(current, value)


def aggregate_pool_stats(
    own: dict, workers: dict[int, dict | None]
) -> dict:
    """Merge the supervisor's snapshot with per-worker snapshots into
    one ``op=stats`` payload.

    Every worker instrument appears twice: namespaced as
    ``worker.<i>.<name>`` (so a hot shard is visible), and summed into a
    ``pool.<name>`` total (counters and gauges add; histograms merge
    count/sum/min/max, with pooled percentiles ``None`` since reservoirs
    don't compose across processes).  A worker whose snapshot is
    ``None`` (unreachable when polled) contributes a
    ``worker.<i>.unreachable`` gauge instead, and the count of such
    workers lands in the ``pool.workers_unreachable`` gauge.

    ``tenant.<id>.*`` gauges (the live-schedule session instruments of
    :mod:`repro.online`) are the exception to namespacing: a tenant is
    pinned to exactly one worker, so its gauges are lifted to the top
    level verbatim — ``op=stats`` reports ``tenant.acme.ratio``, not
    ``worker.3.tenant.acme.ratio``, whichever worker hosts the session.
    """
    counters: dict[str, int] = dict(own.get("counters", {}))
    gauges: dict[str, float] = dict(own.get("gauges", {}))
    histograms: dict[str, dict] = dict(own.get("histograms", {}))
    pooled_counters: dict[str, int] = {}
    pooled_gauges: dict[str, float] = {}
    pooled_histograms: dict[str, dict] = {}
    unreachable = 0
    for worker_id in sorted(workers):
        snap = workers[worker_id]
        if snap is None:
            unreachable += 1
            gauges[f"worker.{worker_id}.unreachable"] = 1.0
            continue
        for name, value in snap.get("counters", {}).items():
            counters[f"worker.{worker_id}.{name}"] = value
            pooled_counters[name] = pooled_counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():
            if name.startswith("tenant."):
                gauges[name] = float(value)
                continue
            gauges[f"worker.{worker_id}.{name}"] = value
            pooled_gauges[name] = pooled_gauges.get(name, 0.0) + float(value)
        for name, summary in snap.get("histograms", {}).items():
            histograms[f"worker.{worker_id}.{name}"] = summary
            merged = pooled_histograms.setdefault(
                name,
                {
                    "count": 0,
                    "sum": 0.0,
                    "mean": None,
                    "min": None,
                    "max": None,
                    "p50": None,
                    "p99": None,
                },
            )
            _merge_histogram_summaries(merged, summary)
    for name, value in pooled_counters.items():
        counters[f"pool.{name}"] = value
    for name, value in pooled_gauges.items():
        gauges[f"pool.{name}"] = value
    for name, merged in pooled_histograms.items():
        count = int(merged["count"])
        merged["mean"] = float(merged["sum"]) / count if count else None
        histograms[f"pool.{name}"] = merged
    gauges["pool.workers_unreachable"] = float(unreachable)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
