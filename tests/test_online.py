"""Unit + property tests for :mod:`repro.online` live schedules.

The load-bearing property (ISSUE 8): after **any** event sequence, the
tracked approximation ratio never exceeds the Della Croce–Scatamacchia
LPT bound — whenever an event would push it past, a full re-solve fires
inside that event and re-certifies the schedule.  Hypothesis drives
arbitrary arrival/departure sequences against the invariant.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lpt import dcs_lpt_bound, lpt_worst_case_ratio
from repro.model.verify import verify_schedule
from repro.online import LiveSchedule
from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRegistry


class TestDcsLptBound:
    def test_values(self):
        assert dcs_lpt_bound(1) == 1.0
        assert dcs_lpt_bound(2) == pytest.approx(7 / 6)
        assert dcs_lpt_bound(3) == pytest.approx(7 / 6)
        assert dcs_lpt_bound(4) == pytest.approx(4 / 3 - 1 / 9)

    def test_never_above_graham_and_strictly_below_from_three_machines(self):
        # m = 2 is the classic tight 7/6 case for both bounds; the DCS
        # refinement bites from m = 3 up (modulo float rounding at m=2).
        for m in range(2, 40):
            assert dcs_lpt_bound(m) <= lpt_worst_case_ratio(m) + 1e-12
        for m in range(3, 40):
            assert dcs_lpt_bound(m) < lpt_worst_case_ratio(m)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dcs_lpt_bound(0)


class TestLiveScheduleBasics:
    def test_least_loaded_placement_in_lpt_order(self):
        live = LiveSchedule("t", 2, eps=0.2)
        # Batch is placed longest-first: 9 → m0, 7 → m1, 4 → m1 (load 11
        # vs 9... no: after 9,7 loads are (9,7); 4 joins the lighter m
        # holding 7).  Loads end balanced at (9, 11) — LPT's answer.
        live.add_jobs([("a", 4), ("b", 9), ("c", 7)])
        assert sorted(live.machine_loads) == [9, 11]
        assert live.makespan == 11
        assert live.repairs == 3
        assert live.job_machine("b") != live.job_machine("c")

    def test_schedule_verifies_after_events(self):
        live = LiveSchedule("t", 3, eps=0.2)
        live.add_jobs([(f"j{i}", 3 + (i * 5) % 11) for i in range(10)])
        live.remove_jobs(["j2", "j7"])
        report = verify_schedule(live.schedule())
        assert report.ok, report.violations

    def test_duplicate_and_unknown_jobs_are_rejected(self):
        live = LiveSchedule("t", 2)
        live.add_jobs([("a", 3)])
        with pytest.raises(ValueError, match="already"):
            live.add_jobs([("a", 5)])
        with pytest.raises(ValueError, match="not in"):
            live.remove_jobs(["ghost"])
        with pytest.raises(ValueError, match=">= 1"):
            live.add_jobs([("b", 0)])
        # Failed events must not have mutated state.
        assert live.num_jobs == 1 and live.makespan == 3

    def test_intra_batch_duplicates_are_rejected_before_mutation(self):
        live = LiveSchedule("t", 2)
        with pytest.raises(ValueError, match="duplicated within the batch"):
            live.add_jobs([("a", 5), ("a", 3)])
        assert live.num_jobs == 0 and live.makespan == 0
        assert live.machine_loads == (0, 0)
        live.add_jobs([("a", 5), ("b", 3)])
        with pytest.raises(ValueError, match="duplicated within the batch"):
            live.remove_jobs(["a", "a"])
        # The duplicate departure must not have partially applied.
        assert live.num_jobs == 2 and live.makespan == 5
        assert sum(live.machine_loads) == 8
        assert live.job_machine("a") is not None

    def test_empty_schedule_states(self):
        live = LiveSchedule("t", 2)
        assert live.makespan == 0
        assert live.tracked_ratio() == 1.0
        with pytest.raises(ValueError):
            live.instance()

    def test_threshold_floors_at_guarantee_and_inf_disables(self):
        assert LiveSchedule("t", 2, eps=0.2).threshold == pytest.approx(1.2)
        assert LiveSchedule("t", 4, eps=0.05).threshold == pytest.approx(
            dcs_lpt_bound(4)
        )
        live = LiveSchedule("t", 2, eps=0.2, drift_threshold=math.inf)
        for i in range(8):
            live.add_jobs([(f"j{i}", 5)])
        assert live.resolves == 0  # auto re-solve disabled

    def test_drift_triggers_resolve_within_event(self):
        # One job per event on m=2: loads (5,0),(5,5),(10,5) — ratio
        # 10/8 = 1.25 crosses the 1.2 threshold, so the third event must
        # re-solve and land back under the guarantee.
        live = LiveSchedule("t", 2, eps=0.2)
        fired = [live.add_jobs([(f"j{i}", 5)]) for i in range(3)]
        assert live.resolves == 1 and fired[-1] == 1
        assert live.tracked_ratio() <= 1.2 + 1e-9
        [point] = live.resolve_log
        assert point["ratio_before"] > point["ratio_after"]
        assert point["ratio_after"] <= point["guarantee"] + 1e-9

    def test_departure_resets_certified_bound(self):
        live = LiveSchedule("t", 2, eps=0.2)
        live.add_jobs([("a", 5), ("b", 5), ("c", 4)])
        live.resolve()
        assert live._cert_lb > 0
        resolves = live.resolves
        # Removing "c" leaves a perfectly balanced (5, 5) schedule: the
        # certified lower bound must be dropped (it covered a larger job
        # set) but no drift resolve is needed to stay under threshold.
        fired = live.remove_jobs(["c"])
        assert fired == 0 and live.resolves == resolves
        assert live._cert_lb == 0.0
        assert live.tracked_ratio() == pytest.approx(1.0)


class TestResolveReuse:
    def test_resolve_hits_shared_cache_for_twin_multisets(self):
        cache = ResultCache()
        first = LiveSchedule("t1", 2, eps=0.2, cache=cache)
        first.add_jobs([("a", 9), ("b", 7), ("c", 4)])
        assert first.resolve() is False  # solved, then cached
        # A different tenant with the same multiset (different ids and
        # arrival order) re-solves without running a solver.
        twin = LiveSchedule("t2", 2, eps=0.2, cache=cache)
        twin.add_jobs([("x", 4), ("y", 9), ("z", 7)])
        assert twin.resolve() is True
        assert twin.cached_resolves == 1
        assert twin.makespan == first.makespan
        assert verify_schedule(twin.schedule()).ok

    def test_metrics_gauges_are_published(self):
        metrics = MetricsRegistry()
        live = LiveSchedule("acme", 2, eps=0.2, metrics=metrics)
        live.add_jobs([("a", 3), ("b", 5)])
        snap = metrics.snapshot()
        assert snap["gauges"]["tenant.acme.jobs"] == 2.0
        assert snap["gauges"]["tenant.acme.repairs"] == 2.0
        assert "tenant.acme.ratio" in snap["gauges"]


class TestSnapshotRestore:
    def test_roundtrip_preserves_state_and_certified_bound(self):
        live = LiveSchedule("t", 3, eps=0.2, drift_threshold=1.3)
        live.add_jobs([(f"j{i}", 2 + (i * 7) % 13) for i in range(9)])
        live.resolve()
        live.remove_jobs(["j4"])
        snap = live.snapshot()
        restored = LiveSchedule.restore(snap)
        assert restored.tenant == live.tenant
        assert restored.machine_loads == live.machine_loads
        assert restored.makespan == live.makespan
        assert restored.tracked_ratio() == pytest.approx(live.tracked_ratio())
        assert restored._cert_lb == live._cert_lb
        assert restored.resolves == live.resolves
        assert restored.drift_threshold == 1.3
        assert verify_schedule(restored.schedule()).ok
        # The restored schedule keeps absorbing events correctly.
        restored.add_jobs([("new", 6)])
        assert verify_schedule(restored.schedule()).ok

    def test_restore_ignores_a_legacy_dp_engine_field(self):
        # Release 1.0.0 snapshots carried the DP engine of re-solves;
        # re-solves now always run the kernel, so the field is ignored.
        live = LiveSchedule("t", 3, eps=0.2)
        live.add_jobs([(f"j{i}", 2 + (i * 7) % 13) for i in range(9)])
        live.resolve()
        snap = live.snapshot()
        assert "dp_engine" not in snap
        restored = LiveSchedule.restore({**snap, "dp_engine": "dominance"})
        assert restored.snapshot() == snap
        restored.add_jobs([("new", 6)])
        restored.resolve()
        assert verify_schedule(restored.schedule()).ok

    def test_restore_rejects_bad_snapshots(self):
        live = LiveSchedule("t", 2)
        live.add_jobs([("a", 3)])
        snap = live.snapshot()
        with pytest.raises(ValueError, match="version"):
            LiveSchedule.restore({**snap, "version": 99})
        with pytest.raises(ValueError, match="disagree"):
            LiveSchedule.restore({**snap, "assignment": {}})
        with pytest.raises(ValueError, match="machine"):
            LiveSchedule.restore({**snap, "assignment": {"a": 7}})


# ----------------------------------------------------------------------
# The drift-policy invariant, property-tested (ISSUE 8 satellite)
# ----------------------------------------------------------------------
#: eps chosen so the re-solve guarantee 1 + eps = 7/6 never exceeds the
#: DCS bound (min 7/6 at m in {2, 3}) — otherwise the bound would be
#: unreachable by construction, not by policy.
_EPS = 1.0 / 6.0

_event_seq = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
        ),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10**6)),
    ),
    min_size=1,
    max_size=12,
)


class TestDriftInvariant:
    @settings(max_examples=60)
    @given(machines=st.integers(min_value=2, max_value=4), seq=_event_seq)
    def test_ratio_never_exceeds_dcs_bound_after_any_event(self, machines, seq):
        """After every applied event the tracked ratio is at most the
        DCS LPT bound: a drift past it must have fired a re-solve inside
        the event, and the re-solve lands at ≤ 1 + eps ≤ the bound."""
        bound = dcs_lpt_bound(machines)
        live = LiveSchedule("prop", machines, eps=_EPS)
        counter = 0
        for kind, payload in seq:
            if kind == "add":
                live.add_jobs(
                    [(f"j{counter + i}", t) for i, t in enumerate(payload)]
                )
                counter += len(payload)
            else:
                if not live.num_jobs:
                    continue
                ids = sorted(live._times)
                live.remove_jobs([ids[payload % len(ids)]])
            assert live.tracked_ratio() <= bound + 1e-9, (
                f"ratio {live.tracked_ratio()} above DCS bound {bound} "
                f"after a {kind} event without a re-solve"
            )
            if live.num_jobs:
                assert verify_schedule(live.schedule()).ok
        for point in live.resolve_log:
            # Log ratios are rounded to 6 decimals, which can tick just
            # past the exact guarantee — compare at that quantum.
            assert point["ratio_after"] <= point["guarantee"] + 1e-6
