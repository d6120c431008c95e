"""Tests for the metrics registry (:mod:`repro.service.metrics`)."""

from __future__ import annotations

import pytest

from repro.core.dp import DPProblem, solve
from repro.service.metrics import (
    Histogram,
    MetricsRegistry,
    dp_cache_stats,
    record_dp_cache,
)


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counter("a").value == 5
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").add(-1)
        assert reg.gauge("depth").value == 2.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == pytest.approx(10.0)
        assert s["mean"] == pytest.approx(2.5)
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert 1.0 <= s["p50"] <= 4.0

    def test_histogram_reservoir_bounds_memory(self):
        h = Histogram(reservoir_size=16)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000
        # Percentiles come from recent values only.
        assert h.percentile(0) >= 1000 - 16

    def test_empty_percentile_is_none(self):
        assert Histogram().percentile(50) is None


class TestRegistry:
    def test_snapshot_is_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("requests_total").inc()
        reg.gauge("pool_utilization").set(0.5)
        reg.histogram("latency").observe(0.1)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"]["requests_total"] == 1
        assert snap["gauges"]["pool_utilization"] == 0.5
        assert snap["histograms"]["latency"]["count"] == 1

    def test_render_line(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        line = reg.render_line()
        assert line.startswith("metrics:")
        assert "hits=2" in line

    def test_repeated_lookups_return_the_same_instrument(self):
        reg = MetricsRegistry()
        for lookup in (reg.counter, reg.gauge, reg.histogram):
            assert lookup("x") is lookup("x")
        reg.counter("x").inc(2)
        reg.counter("x").inc()
        assert reg.snapshot()["counters"]["x"] == 3

    def test_racing_first_lookups_share_one_instrument(self):
        import sys
        import threading

        reg = MetricsRegistry()
        barrier = threading.Barrier(8)
        seen = []

        def first_lookup():
            barrier.wait(timeout=10)
            seen.append(reg.histogram("race"))
            reg.counter("race").inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_lookup) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(h is seen[0] for h in seen)
        # A second counter built by a racing lookup would lose increments.
        assert reg.counter("race").value == 8

    def test_set_many_prefixes(self):
        reg = MetricsRegistry()
        reg.set_many("cache", {"hits": 3.0, "misses": 1.0})
        assert reg.gauge("cache.hits").value == 3.0


class TestDPCacheStats:
    def test_reflects_configuration_cache(self):
        before = dp_cache_stats()
        assert set(before) == {"hits", "misses", "currsize", "maxsize"}
        # Solving twice with the same class structure must register
        # activity in the shared configuration cache.
        problem = DPProblem((6, 11), (2, 3), 30)
        solve(problem, "table")
        solve(problem, "table")
        after = dp_cache_stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert after["currsize"] >= 1

    def test_record_publishes_gauges(self):
        reg = MetricsRegistry()
        stats = record_dp_cache(reg)
        snap = reg.snapshot()["gauges"]
        assert snap["dp_config_cache.hits"] == float(stats["hits"])
        assert snap["dp_config_cache.currsize"] == float(stats["currsize"])
