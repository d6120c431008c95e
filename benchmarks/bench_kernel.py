"""Wavefront kernel benchmark: states/sec per backend × worker count.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_kernel.py                   # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --check-baseline  # CI gate

Solves one Figure-3-scale DP probe — the ``u_10n`` family at ``m=10,
n=50`` (seed 0), target at the Eq. 1 lower bound (the hardest probe of
the bisection), accuracy parameter ``k=5`` so the table is large enough
(sigma ~25k states) that per-sweep timing is dominated by the recurrence
rather than by pool startup — and times:

* the vectorized :class:`~repro.core.kernels.LevelKernel` on every
  backend (numpy-serial, serial, thread, process), tile-diagonal
  ``runs`` schedule where the backend supports it;
* the **modeled** tile-diagonal schedule on the calibrated
  :class:`~repro.simcore.machine.SimulatedMachine` at 1/2/4 workers.

Every timed run is checked bit-identical to the reference table and
asserted to reach the same OPT as :func:`repro.core.dp.solve_table`.

Gates (hard — non-zero exit on failure):

* **modeled speedup at 4 workers ≥ 2x** and modeled throughput monotone
  non-decreasing across 1 → 2 → 4 workers.  The paper's own Figure 3 is
  produced on this simulator; this container exposes a single usable
  CPU, so the simulator — calibrated against the *measured* numpy-serial
  wall time — is the honest substrate for the multi-worker claim.  When
  the host actually has ≥ 4 usable CPUs the measured gate activates too:
  thread @ 4 workers must beat numpy-serial by ≥ 2x wall clock.
* ``--check-baseline`` recomputes the (deterministic) modeled speedups
  and fails if any fell below the recorded ``BENCH_dp.json`` baseline by
  more than the tolerance — the CI regression tripwire for the planner
  and the cost model.

Results replace the ``"wavefront"`` section of ``BENCH_dp.json`` at the
repo root, each run stamped with the instance fingerprint and its
backend configuration (:mod:`repro.io.benchjson`); every run measures the
whole backend matrix, so no entry from an earlier instance or matrix
survives a re-record.

A final traced run records the per-level span breakdown of one
numpy-serial table fill and asserts the ``level`` spans cover ≥ 80% of
the ``dp`` span — the observability layer's coverage figure.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.bounds import makespan_bounds
from repro.core.context import SolveContext
from repro.core.dp import DPProblem, solve_table
from repro.core.kernels import LevelKernel, build_level_arrays
from repro.core.parallel_dp import compute_table, parallel_dp
from repro.core.rounding import round_instance
from repro.io.benchjson import instance_fingerprint, load_bench, stamp_runs, update_section
from repro.obs import Tracer
from repro.parallel.cpus import usable_cpus
from repro.parallel.executor import make_executor, shutdown_pools
from repro.simcore.machine import SimulatedMachine
from repro.workloads.generator import make_instance

FAMILY, M, N, SEED = "u_10n", 10, 50, 0
K = 5
THREAD_WORKERS = (1, 2, 4)
PROCESS_WORKERS = (2,)
MODEL_WORKERS = (1, 2, 4)
REPS = 2
#: Modeled parallel-vs-serial floor at the widest worker count.
MODEL_MIN_SPEEDUP = 2.0
#: ``--check-baseline``: fresh modeled speedup must be ≥ baseline × this.
BASELINE_TOLERANCE = 0.9
SECTION = "wavefront"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dp.json"


def build_problem() -> DPProblem:
    """The Figure-3-scale probe described in the module docstring."""
    inst = make_instance(FAMILY, M, N, seed=SEED)
    target = makespan_bounds(inst).lower
    rounded = round_instance(inst, target, K)
    return DPProblem(
        rounded.class_sizes, rounded.class_counts, target, job_cap=K - 1
    )


def instance_descriptor(problem: DPProblem) -> dict:
    """What the fingerprint covers: everything that shapes the probe."""
    return {
        "family": FAMILY,
        "m": M,
        "n": N,
        "seed": SEED,
        "k": K,
        "target": problem.target,
        "sigma": problem.table_size,
        "num_configs": len(problem.configurations()),
    }


def timed(fn, reps: int = REPS):
    """Best-of-``reps`` wall time and the last result."""
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def modeled_speedups(problem: DPProblem, reference: np.ndarray) -> dict[int, float]:
    """Deterministic modeled speedups of the tile-diagonal schedule at
    each worker count (default plan: 2×workers blocks, static cost
    model).  The table is re-checked bit-identical on every run — the
    simulator executes the real kernel, it only *accounts* differently."""
    speedups: dict[int, float] = {}
    for w in MODEL_WORKERS:
        machine = SimulatedMachine(w)
        table = compute_table(
            problem, w, "simulated", machine=machine, schedule="runs"
        )
        assert np.array_equal(table, reference), ("simulated", w)
        speedups[w] = machine.speedup
    return speedups


def check_model_gate(speedups: dict[int, float]) -> list[str]:
    """The modeled-speedup gate: ≥ 2x at the widest count, monotone."""
    failures = []
    widest = max(MODEL_WORKERS)
    if speedups[widest] < MODEL_MIN_SPEEDUP:
        failures.append(
            f"modeled speedup at {widest} workers is {speedups[widest]:.2f}x "
            f"(required >= {MODEL_MIN_SPEEDUP}x)"
        )
    ordered = [speedups[w] for w in sorted(speedups)]
    if any(b < a - 1e-9 for a, b in zip(ordered, ordered[1:])):
        failures.append(
            f"modeled throughput is not monotone across workers: "
            f"{[round(s, 3) for s in ordered]}"
        )
    return failures


def check_baseline() -> int:
    """CI mode: recompute modeled speedups, compare against the recorded
    baseline (no measured runs — fully deterministic, seconds to run)."""
    problem = build_problem()
    reference = compute_table(problem, 1, "numpy-serial")
    fingerprint = instance_fingerprint(instance_descriptor(problem))
    speedups = modeled_speedups(problem, reference)
    for w in sorted(speedups):
        print(f"modeled speedup @ w={w}: {speedups[w]:.3f}x")

    failures = check_model_gate(speedups)

    section = load_bench(OUTPUT).get(SECTION)
    if section is None:
        failures.append(f"no {SECTION!r} section in {OUTPUT} — run the full benchmark first")
    elif section.get("fingerprint") != fingerprint:
        failures.append(
            f"baseline fingerprint {section.get('fingerprint')!r} does not match "
            f"current instance {fingerprint!r} — re-record the baseline"
        )
    else:
        baseline = section.get("modeled_speedups", {})
        for w in sorted(speedups):
            base = baseline.get(str(w))
            if base is None:
                failures.append(f"baseline has no modeled speedup for {w} workers")
                continue
            floor = base * BASELINE_TOLERANCE
            if speedups[w] < floor:
                failures.append(
                    f"modeled speedup @ w={w} regressed: {speedups[w]:.3f}x < "
                    f"{floor:.3f}x (baseline {base:.3f}x × tolerance {BASELINE_TOLERANCE})"
                )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"OK: modeled speedups hold the {OUTPUT.name} baseline")
    return 0


def main() -> int:
    problem = build_problem()
    sigma = problem.table_size
    descriptor = instance_descriptor(problem)
    fingerprint = instance_fingerprint(descriptor)
    print(
        f"instance {FAMILY} m={M} n={N} seed={SEED} k={K}: "
        f"sigma={sigma} configs={descriptor['num_configs']} "
        f"levels={len(build_level_arrays(problem.dims))} "
        f"fingerprint={fingerprint}"
    )

    seq = solve_table(problem)
    reference = compute_table(problem, 1, "numpy-serial")
    opt_ref = seq.opt
    print(f"solve_table OPT={opt_ref}")

    runs: list[dict] = []

    def record(
        backend: str, workers: int, elapsed: float, table, *,
        schedule: str = "runs", **extra,
    ) -> None:
        assert np.array_equal(table, reference), (backend, workers)
        runs.append(
            {
                "backend": backend,
                "workers": workers,
                "schedule": schedule,
                "seconds": round(elapsed, 6),
                "states_per_sec": round((sigma - 1) / elapsed, 1),
                **extra,
            }
        )
        print(
            f"{backend:>14} w={workers}: {elapsed * 1e3:8.1f} ms "
            f"({(sigma - 1) / elapsed:12.0f} states/s)"
        )

    serial_elapsed, table = timed(lambda: compute_table(problem, 1, "numpy-serial"))
    record("numpy-serial", 1, serial_elapsed, table, schedule="levels")
    elapsed, table = timed(lambda: compute_table(problem, 1, "serial"))
    record("serial", 1, elapsed, table)

    for w in THREAD_WORKERS:
        elapsed, table = timed(lambda w=w: compute_table(problem, w, "thread"))
        record("thread", w, elapsed, table)

    kernel = LevelKernel.for_problem(problem)
    for w in PROCESS_WORKERS:
        ex = make_executor("process", w, reuse=True)
        try:
            # Warm the pool once so spawn cost is not in the timing —
            # exactly what the persistent pool buys the bisection driver.
            compute_table(problem, w, "process", executor=ex, kernel=kernel)
            elapsed, table = timed(
                lambda w=w: compute_table(
                    problem, w, "process", executor=ex, kernel=kernel
                ),
                reps=1,
            )
        finally:
            ex.close()
            shutdown_pools()
        record("process", w, elapsed, table)

    # Modeled runs: the simulator re-executes the real kernel under the
    # tile-diagonal schedule and accounts ops; calibration against the
    # measured numpy-serial wall time converts them to seconds.
    speedups: dict[int, float] = {}
    for w in MODEL_WORKERS:
        machine = SimulatedMachine(w)
        table = compute_table(
            problem, w, "simulated", machine=machine, schedule="runs"
        )
        speedups[w] = machine.speedup
        calibrated = machine.calibrate(serial_elapsed)
        record(
            "simulated", w, calibrated.parallel_seconds, table,
            modeled=True, speedup=round(machine.speedup, 3),
        )

    by_key = {(r["backend"], r["workers"]): r["states_per_sec"] for r in runs}
    for w in MODEL_WORKERS:
        print(f"modeled tile-diagonal speedup @ w={w}: {speedups[w]:.3f}x")

    failures = check_model_gate(speedups)

    # Measured gate — only meaningful when the host can actually run 4
    # workers; this container exposes one usable CPU, where wall-clock
    # parity is the ceiling and the calibrated model carries the claim.
    cpus = usable_cpus()
    measured_gate_active = cpus >= max(THREAD_WORKERS)
    if measured_gate_active:
        measured_ratio = (
            by_key[("thread", max(THREAD_WORKERS))] / by_key[("numpy-serial", 1)]
        )
        print(
            f"measured thread @ w={max(THREAD_WORKERS)} vs numpy-serial: "
            f"{measured_ratio:.2f}x ({cpus} usable CPUs)"
        )
        if measured_ratio < MODEL_MIN_SPEEDUP:
            failures.append(
                f"measured thread speedup at {max(THREAD_WORKERS)} workers is "
                f"{measured_ratio:.2f}x (required >= {MODEL_MIN_SPEEDUP}x "
                f"on a {cpus}-CPU host)"
            )
    skip_reason = None
    if not measured_gate_active:
        skip_reason = (
            f"{cpus} usable CPU(s) < {max(THREAD_WORKERS)} workers"
        )
        print(f"measured gate skipped ({cpus} usable cpus)")
        print(
            f"measured multi-worker gate inactive: {skip_reason} "
            "(modeled gate carries the claim)"
        )

    # Traced numpy-serial fill: how much of the DP wall time the
    # per-level spans account for (observability coverage figure).
    tracer = Tracer()
    parallel_dp(
        problem,
        1,
        "numpy-serial",
        track_schedule=False,
        ctx=SolveContext(tracer=tracer),
    )
    summary = tracer.phase_summary()
    dp_seconds = float(summary["dp"]["seconds"])
    level_seconds = float(summary["level"]["seconds"])
    level_share = level_seconds / dp_seconds if dp_seconds else 0.0
    trace_stats = {
        "dp_seconds": round(dp_seconds, 6),
        "level_seconds": round(level_seconds, 6),
        "level_share": round(level_share, 4),
        "num_levels": int(summary["level"]["count"]),
    }
    print(
        f"traced numpy-serial: level spans cover {level_share:.1%} of the "
        f"dp span across {trace_stats['num_levels']} levels"
    )
    if level_share < 0.8:
        failures.append(
            f"level spans cover only {level_share:.1%} of dp time — "
            "wavefront instrumentation regressed"
        )

    payload = {
        "benchmark": "wavefront kernel states/sec",
        "fingerprint": fingerprint,
        "instance": {**descriptor, "opt": opt_ref},
        "runs": stamp_runs(runs, fingerprint),
        "modeled_speedups": {str(w): round(s, 3) for w, s in speedups.items()},
        "gate": {
            "model_min_speedup": MODEL_MIN_SPEEDUP,
            "measured_gate_active": measured_gate_active,
            "skip_reason": skip_reason,
            "usable_cpus": cpus,
            "baseline_tolerance": BASELINE_TOLERANCE,
        },
        "trace": trace_stats,
    }
    # One section of the shared file: bench_store.py owns its own.
    update_section(OUTPUT, SECTION, payload)
    print(f"wrote {SECTION!r} section of {OUTPUT}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(
        f"OK: modeled tile-diagonal >= {MODEL_MIN_SPEEDUP}x serial at "
        f"{max(MODEL_WORKERS)} workers"
    )
    return 0


if __name__ == "__main__":
    if "--check-baseline" in sys.argv[1:]:
        sys.exit(check_baseline())
    sys.exit(main())
