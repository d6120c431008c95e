"""Service throughput benchmark: single-process vs sharded solver pool.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_service.py                   # full
    PYTHONPATH=src python benchmarks/bench_service.py --check-baseline  # CI gate

Replays one seeded mixed workload — a deterministic draw over the
:mod:`repro.workloads` families with ~25% permuted duplicates, the twin
pattern real traffic produces — against two server configurations, each
launched as a real ``repro-pcmax serve`` subprocess and driven over TCP
with a fixed client concurrency.  One replay lasts well under a tenth
of a second, too short to time steadily, so each configuration repeats
it, on a freshly started server each round (every round solves the same
requests from a cold cache), until the timed replays add up to at least
``MIN_SECONDS``:

* ``single`` — :class:`repro.service.SolveService` on its in-process
  lane (solves share the front end's GIL);
* ``pool`` — the same front end over ``--pool-workers N``
  (:mod:`repro.service.supervisor`), N =
  :func:`repro.parallel.cpus.usable_cpus` worker processes sharded by
  the canonical instance key.

Every returned schedule is re-verified with
:func:`repro.model.verify.verify_schedule`; a single unverifiable or
failed response fails the benchmark.  Requests/sec plus p50/p99 latency
land under the ``"service_throughput"`` section of ``BENCH_dp.json``:
each record replaces the section's runs with this host's two, stamped
with the workload fingerprint via :mod:`repro.io.benchjson`, so the
runs and the ``gate`` block always describe the same host.

Gate: pooled throughput must be ≥ 2x the single-process run — **armed
only when the host has ≥ 4 usable CPUs**.  On smaller hosts (this
container exposes one) the pool cannot beat one core by running N
copies of it, so the gate records a ``skip_reason`` instead of a
vacuous failure, exactly like the wavefront kernel's measured gate.

``--check-baseline`` is the CI tripwire and re-measures nothing (wall
clock in shared CI is noise): it checks the recorded section is present,
matches the current workload fingerprint, holds exactly one run per mode
(the pool's with ``gate.pool_workers`` workers), both fully verified,
and — when the recording host had the gate armed — that the recorded
speedup met the floor.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.io.benchjson import instance_fingerprint, load_bench, stamp_runs, update_section
from repro.model.schedule import Schedule
from repro.model.verify import verify_schedule
from repro.parallel.cpus import usable_cpus
from repro.service.requests import SolveRequest
from repro.service.server import replay, send_op
from repro.workloads.generator import make_instance

#: (family, machines, jobs, eps) strata of the replayed mix — small
#: enough that a full replay stays in seconds on one core, varied enough
#: that shard routing sees a spread of canonical keys.
MIX = (
    ("u_10", 4, 24, 0.2),
    ("u_100", 3, 18, 0.2),
    ("u_narrow", 4, 20, 0.25),
    ("lpt_adversarial", 3, 16, 0.3),
)
SEED = 0
NUM_REQUESTS = 48
#: Every 4th request re-submits an earlier instance with its times
#: permuted — the canonical-key twins that caching and shard routing
#: exist for.
DUPLICATE_EVERY = 4
CONCURRENCY = 8
#: Timed replay seconds each configuration accumulates, over rounds.
MIN_SECONDS = 1.0
#: Pooled throughput floor over single-process, when the gate is armed.
MIN_SPEEDUP = 2.0
#: CPUs below which the measured gate records a skip instead.
GATE_MIN_CPUS = 4
SECTION = "service_throughput"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dp.json"
REPO_ROOT = OUTPUT.parent


def build_workload() -> list[SolveRequest]:
    """The deterministic replayed mix (see module docstring)."""
    import random

    rng = random.Random(SEED)
    requests: list[SolveRequest] = []
    originals: list[SolveRequest] = []
    for i in range(NUM_REQUESTS):
        if originals and i % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
            base = rng.choice(originals)
            times = list(base.times)
            rng.shuffle(times)
            request = SolveRequest.from_dict(
                {**base.to_dict(), "times": times, "request_id": f"bench-{i}"}
            )
        else:
            family, machines, jobs, eps = MIX[i % len(MIX)]
            inst = make_instance(family, machines, jobs, seed=SEED + i)
            request = SolveRequest(
                times=tuple(inst.processing_times),
                machines=machines,
                engine="ptas",
                eps=eps,
                request_id=f"bench-{i}",
            )
            originals.append(request)
        requests.append(request)
    return requests


def workload_descriptor() -> dict:
    """What the fingerprint covers: everything that shapes the replay."""
    return {
        "mix": [list(stratum) for stratum in MIX],
        "seed": SEED,
        "num_requests": NUM_REQUESTS,
        "duplicate_every": DUPLICATE_EVERY,
        "concurrency": CONCURRENCY,
        "min_seconds": MIN_SECONDS,
    }


def start_server(mode: str, workers: int) -> tuple[subprocess.Popen, int]:
    """Launch ``repro-pcmax serve`` on an ephemeral port and wait for
    its ready line; returns the process and the bound port."""
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--log-interval",
        "0",
    ]
    if mode == "pool":
        cmd += ["--pool-workers", str(workers)]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.Popen(
        cmd,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def replay_once(
    mode: str, workers: int, requests: list[SolveRequest]
) -> tuple[float, list, bool]:
    """One timed replay on a fresh server: ``(wall seconds, outcomes,
    healthcheck ok)``."""
    proc, port = start_server(mode, workers)
    try:
        # One warm-up round trip so startup cost stays out of the clock.
        asyncio.run(send_op("127.0.0.1", port, "ping"))
        t0 = time.perf_counter()
        outcomes = asyncio.run(
            replay("127.0.0.1", port, requests, concurrency=CONCURRENCY)
        )
        wall = time.perf_counter() - t0
        health = asyncio.run(send_op("127.0.0.1", port, "healthcheck"))
        asyncio.run(send_op("127.0.0.1", port, "shutdown"))
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    if len(outcomes) != len(requests):
        raise RuntimeError(
            f"{mode}: {len(outcomes)}/{len(requests)} requests answered"
        )
    return wall, outcomes, bool(health.get("ok"))


def run_one(mode: str, workers: int, requests: list[SolveRequest]) -> dict:
    """Measure one server configuration: replay rounds until the timed
    replays add up to ``MIN_SECONDS``, verifying every answer."""
    rounds = verified = cached = degraded = 0
    wall = 0.0
    healthy = True
    latencies = []
    while wall < MIN_SECONDS:
        seconds, outcomes, ok = replay_once(mode, workers, requests)
        rounds += 1
        wall += seconds
        healthy = healthy and ok
        for request, (result, latency) in zip(requests, outcomes):
            latencies.append(latency)
            if not result.ok or result.assignment is None:
                raise RuntimeError(
                    f"{mode}: request {request.request_id} failed: {result.error}"
                )
            report = verify_schedule(
                Schedule(request.instance(), result.assignment), request.instance()
            )
            report.raise_if_failed()
            verified += 1
            cached += int(result.cached)
            degraded += int(result.degraded)
    latencies.sort()
    pct = lambda p: latencies[min(len(latencies) - 1, int(p / 100 * len(latencies)))]  # noqa: E731
    return {
        "mode": mode,
        "workers": workers,
        "rounds": rounds,
        "requests": len(latencies),
        "verified": verified,
        "cached": cached,
        "degraded": degraded,
        "seconds": round(wall, 4),
        "rps": round(len(latencies) / wall, 2),
        "latency_mean_ms": round(statistics.mean(latencies) * 1e3, 3),
        "latency_p50_ms": round(pct(50) * 1e3, 3),
        "latency_p99_ms": round(pct(99) * 1e3, 3),
        "healthy": healthy,
    }


def main() -> int:
    cpus = usable_cpus()
    pool_workers = max(1, cpus)
    requests = build_workload()
    fingerprint = instance_fingerprint(workload_descriptor())
    print(
        f"replaying {len(requests)} requests (concurrency {CONCURRENCY}, "
        f"fingerprint {fingerprint}) on a {cpus}-CPU host, rounds until "
        f"{MIN_SECONDS:g} s are timed"
    )

    runs = []
    for mode, workers in (("single", 1), ("pool", pool_workers)):
        run = run_one(mode, workers, requests)
        runs.append(run)
        print(
            f"{mode:6s} w={workers}: {run['rps']:8.1f} req/s  "
            f"p50={run['latency_p50_ms']:.2f}ms p99={run['latency_p99_ms']:.2f}ms  "
            f"({run['rounds']} rounds, {run['verified']} verified, "
            f"{run['cached']} cached, {run['degraded']} degraded)"
        )

    single_rps = runs[0]["rps"]
    pool_rps = runs[1]["rps"]
    speedup = pool_rps / single_rps if single_rps else 0.0
    gate_active = cpus >= GATE_MIN_CPUS
    skip_reason = None
    failures: list[str] = []
    if gate_active:
        print(f"pool vs single: {speedup:.2f}x (required >= {MIN_SPEEDUP}x)")
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"pooled throughput only {speedup:.2f}x single-process "
                f"(required >= {MIN_SPEEDUP}x on a {cpus}-CPU host)"
            )
    else:
        skip_reason = f"{cpus} usable CPU(s) < {GATE_MIN_CPUS}"
        print(f"measured gate skipped ({cpus} usable cpus)")

    payload = {
        "benchmark": "service throughput (requests/sec), single vs pool",
        "fingerprint": fingerprint,
        "workload": workload_descriptor(),
        "runs": stamp_runs(runs, fingerprint),
        "speedup_pool_over_single": round(speedup, 3),
        "gate": {
            "min_speedup": MIN_SPEEDUP,
            "gate_active": gate_active,
            "skip_reason": skip_reason,
            "usable_cpus": cpus,
            "pool_workers": pool_workers,
        },
    }
    update_section(OUTPUT, SECTION, payload)
    print(f"wrote {SECTION!r} section of {OUTPUT}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: all replies verified" + ("" if gate_active else " (gate skipped)"))
    return 0


def check_baseline() -> int:
    """CI tripwire over the recorded section — no re-measurement."""
    section = load_bench(OUTPUT).get(SECTION)
    failures: list[str] = []
    if not section:
        print(f"FAIL: no {SECTION!r} section in {OUTPUT}")
        return 1
    fingerprint = instance_fingerprint(workload_descriptor())
    if section.get("fingerprint") != fingerprint:
        failures.append(
            f"fingerprint {section.get('fingerprint')} != current "
            f"{fingerprint} — workload changed, re-run the benchmark"
        )
    gate = section.get("gate", {})
    for mode in ("single", "pool"):
        matching = [r for r in section.get("runs", []) if r.get("mode") == mode]
        if len(matching) != 1:
            failures.append(
                f"{len(matching)} {mode!r} runs recorded; a record holds exactly one"
            )
            continue
        run = matching[0]
        if run.get("fingerprint") != fingerprint:
            failures.append(f"{mode!r} run was measured on another workload")
        if mode == "pool" and run.get("workers") != gate.get("pool_workers"):
            failures.append(
                f"pool run has {run.get('workers')} workers but the gate "
                f"block records {gate.get('pool_workers')}"
            )
        if run.get("verified") != run.get("requests"):
            failures.append(
                f"{mode!r} run: {run.get('verified')}/{run.get('requests')} "
                "schedules verified"
            )
        if not run.get("healthy"):
            failures.append(f"{mode!r} run: healthcheck was not ok")
    if gate.get("gate_active"):
        speedup = section.get("speedup_pool_over_single", 0.0)
        if speedup < gate.get("min_speedup", MIN_SPEEDUP):
            failures.append(
                f"recorded speedup {speedup}x below the armed gate's "
                f"{gate.get('min_speedup')}x floor"
            )
    elif not gate.get("skip_reason"):
        failures.append("gate inactive but no skip_reason recorded")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: {SECTION} baseline is structurally sound")
    return 0


if __name__ == "__main__":
    if "--check-baseline" in sys.argv[1:]:
        sys.exit(check_baseline())
    sys.exit(main())
