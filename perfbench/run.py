"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload solve-paper --seed 0 --seconds 15 --trace 0

Workloads (closed loops from one load-generating process, at most two
threads or connections):

* ``solve-paper`` — a fresh interpreter calls ``repro.solve(inst,
  engine="parallel_ptas", eps=0.3, backend="numpy-serial", workers=1)``
  on distinct seeded instances of the paper's grid (Figs. 2-4 plus the
  Table II/III families), one thread.
* ``serve-hot`` — ``repro-pcmax serve`` with default flags; a hot set
  is pre-solved untimed, then 90% permuted twins of it (memory hits)
  and 10% fresh instances (cold solves) over two connections.
* ``serve-pool-store`` — ``repro-pcmax serve --pool-workers 2 --store
  DIR``; a stored set is solved, the server restarts on the populated
  store, then 25% twins of the stored set (disk-tier reads) and 75%
  fresh Fig. 3-scale solves over one connection.

Every run is count-bounded: the number of timed operations follows from
``--seconds`` and a per-workload nominal rate, so the tail percentile
and its sample count are fixed per workload.  Every answer is checked by
:mod:`check` after the timed window; any answer that does not verify
fails the run (exit 1).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` is the separate traced run that prints the per-layer
metrics (``BENCHMARK.json`` lists both) and writes its spans once, at
the end, under ``.bench_build/traces/``.

The program runs only in child processes started from the checkout's
``src`` with a benchmark-owned ``PYTHONPYCACHEPREFIX``; a discarded
first launch compiles the bytecode, so set-up is always timed warm.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from check import check_answer
from client import Launch, Server, closed_loop, vmhwm_mb
from workloads import CELL_DRAWS, serve_hot_plan, serve_pool_store_plan, solve_paper_plan

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PYTHON = sys.executable
#: Fresh program launches whose median is ``setup_s`` (and ``setup.import_repro_s``).
LAUNCHES = 5
#: Candidate tail percentiles; the tail is the highest with >= 10 samples beyond it.
PERCENTILES = (50, 90, 95, 99, 99.5, 99.9)
#: Nominal timed operations per second of each workload, which sizes a
#: run.  serve-hot runs ~1000 ops/s, but its count stays below 10,000
#: (9,990 at 15 s): from 10,000 on, the tail would move from p99.5 with
#: 49 samples beyond it to p99.9 with 10-15, which wandered a third
#: between runs of one seed.
NOMINAL_RATE = {"solve-paper": 19.2, "serve-hot": 666.0, "serve-pool-store": 64.0}
#: How far a traced run's measured cache-hit share may stray from the
#: workload's designed twin share before the run fails.
SHARE_TOLERANCE = 0.01
SERVE_ARGS = {"serve-hot": [], "serve-pool-store": ["--pool-workers", "2", "--store"]}
#: Persistent client connections of each serve workload's timed stream.
#: The pooled workload uses one: with two, both requests in flight share
#: a shard half the time and one waits behind the other's heavy-tailed
#: solve, which moved its median latency by a third between runs.
CONNECTIONS = {"serve-hot": 2, "serve-pool-store": 1}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def ref_loop_ms() -> float:
    """A fixed pure-Python loop that touches nothing of the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def cpu_ticks() -> list[int]:
    """The host's aggregate CPU tick counters (``/proc/stat``)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)``: the highest candidate
    percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50.0, statistics.median(ordered), n - math.ceil(0.5 * n))
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1], n - rank)
    return best


class Tally:
    """Checks answers and counts the classes of outcome."""

    def __init__(self) -> None:
        self.counts = {"attempted": 0, "ok": 0, "error": 0, "rejected": 0,
                       "degraded": 0, "verified": 0, "undegraded": 0}
        self.ratios: list[float] = []
        self.failures: list[str] = []

    def add(self, request: dict, answer: dict | None) -> bool:
        """Check one answer (``None`` is a transport failure)."""
        self.counts["attempted"] += 1
        if answer is None:
            self.counts["error"] += 1
            self.failures.append(f"{request['request_id']}: no answer")
            return False
        status = answer.get("status")
        key = {"ok": "ok", "rejected": "rejected"}.get(status, "error")
        self.counts[key] += 1
        if answer.get("degraded"):
            self.counts["degraded"] += 1
        passed, reason, ratio = check_answer(request, answer)
        if answer.get("request_id", request["request_id"]) != request["request_id"]:
            passed, reason = False, f"answer carries id {answer.get('request_id')!r}"
        if not passed:
            self.failures.append(f"{request['request_id']}: {reason}")
            return False
        self.counts["verified"] += 1
        self.ratios.append(ratio)
        if not answer.get("degraded") and answer.get("engine") == request["engine"]:
            self.counts["undegraded"] += 1
        return True


def decode(raw: bytes | None) -> dict | None:
    try:
        return json.loads(raw) if raw else None
    except ValueError:
        return None


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace, declared: list[str]) -> None:
        self.args = args
        self.declared = declared
        self.env = program_env()
        self.work = BUILD / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.tally = Tally()
        self.info: dict = {}
        self.spans: dict = {}
        self.count = max(20, round(args.seconds * NOMINAL_RATE[args.workload]))
        # The traced run reports no setup_s, so it launches the program once.
        self.launches = 1 if args.trace else LAUNCHES

    def requests(self, ops, tag: str) -> list[dict]:
        return [op.wire(f"{self.args.workload}-{self.args.seed}-{tag}{i}")
                for i, op in enumerate(ops)]

    def check_all(self, requests: list[dict], answers: list, timed: bool) -> None:
        """Check every answer; only timed ones enter the tally."""
        tally = self.tally if timed else Tally()
        for request, answer in zip(requests, answers):
            tally.add(request, answer)
        if not timed and tally.failures:
            raise RuntimeError("untimed answer failed its check: " + tally.failures[0])

    # -- solve-paper -------------------------------------------------
    def solve_child(self, *argv) -> Launch:
        return Launch([PYTHON, str(ROOT / "perfbench" / "solve_child.py"), *argv],
                      self.env, str(ROOT))

    def setup_solve(self) -> float:
        child = self.solve_child("setup")
        answer = json.loads(child.first_line("{"))
        elapsed = time.perf_counter() - child.started
        if child.wait() != 0:
            raise RuntimeError("setup launch failed:\n" + "".join(child.log))
        request = {"times": [7, 7, 6, 6, 5, 4, 4, 3], "machines": 3,
                   "engine": "parallel_ptas", "request_id": ""}
        if not check_answer(request, answer)[0]:
            raise RuntimeError(f"setup answer does not verify: {answer}")
        return elapsed

    def solve_loop(self, plan, requests, traced: bool) -> dict:
        job = self.work / "job.json"
        out = self.work / "loop.json"
        job.write_text(json.dumps({
            "prelude": [{"times": op.times, "machines": op.machines} for op in plan.prelude],
            "timed": [{k: r[k] for k in ("times", "machines", "request_id")}
                      for r in requests],
        }))
        argv = ["loop", str(job), str(out)]
        if traced:
            argv += ["--trace", str(self.trace_path("solver"))]
        child = self.solve_child(*argv)
        if child.wait() != 0:
            raise RuntimeError("solve loop failed:\n" + "".join(child.log))
        return json.loads(out.read_text())

    def solve_paper(self) -> dict:
        rounds = max(1, round(self.count / sum(CELL_DRAWS.values())))
        plan = solve_paper_plan(self.args.seed, rounds)
        requests = self.requests(plan.timed, "t")
        self.setup_solve()  # discarded: compiles bytecode into the cache prefix
        setups = [self.setup_solve() for _ in range(self.launches)]
        loop = self.solve_loop(plan, requests, traced=bool(self.args.trace))
        result = {"plan": plan, "requests": requests, "setups": setups,
                  "window": loop["window_s"], "latencies": loop["latencies_s"],
                  "answers": loop["answers"], "rss": loop["peak_rss_mb"]}
        if self.args.trace:
            self.check_all([r for r in requests for _ in (0, 1)],
                           loop["overhead_answers"], timed=False)
            result["layers"] = solver_layers(loop, len(requests))
        return result

    # -- serve workloads ---------------------------------------------
    def server(self, store: Path | None) -> Server:
        args = SERVE_ARGS[self.args.workload] + ([str(store)] if store else [])
        return Server(args, self.env, str(ROOT), PYTHON)

    def timed_launch(self, store: Path | None) -> tuple[Server, float]:
        server = self.server(store)
        try:
            if server.op("ping").get("op") != "pong":
                raise RuntimeError("server did not answer ping with pong")
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - server.started

    def serve(self) -> dict:
        pooled = self.args.workload == "serve-pool-store"
        if pooled:
            plan = serve_pool_store_plan(self.args.seed, self.count)
            store = self.work / "store"
        else:
            plan = serve_hot_plan(self.args.seed, self.count)
            store = None
        prelude = self.requests(plan.prelude, "p")
        requests = self.requests(plan.timed, "t")
        lines = [(json.dumps(r) + "\n").encode() for r in requests]
        # The first launch is discarded (it compiles bytecode); for the
        # pooled workload it also fills the store and shuts down.
        server = self.server(store)
        try:
            if pooled:
                self.serve_prelude(server, prelude)
            server.shutdown()
            setups = []
            for number in range(self.launches):
                server, elapsed = self.timed_launch(store)
                setups.append(elapsed)
                if number < self.launches - 1:
                    server.shutdown()
            if not pooled:
                self.serve_prelude(server, prelude)
            before = server.op("stats")["stats"] if self.args.trace else None
            window, records = closed_loop(server.port, lines,
                                          CONNECTIONS[self.args.workload])
            result = {"plan": plan, "requests": requests, "setups": setups,
                      "window": window,
                      "latencies": [r[1] - r[0] for r in records if r is not None],
                      "answers": [decode(r[2]) if r else None for r in records],
                      "rss": self.server_rss(server, pooled)}
            if self.args.trace:
                stats = Stats(before, server.op("stats")["stats"])
                result["layers"] = service_layers(
                    stats, pooled, result["answers"], records)
                self.check_twin_share(plan, result["layers"], pooled)
                self.spans["requests"] = [
                    [q["request_id"], r[0], r[1]] for q, r in zip(requests, records) if r]
            server.shutdown()
        finally:
            server.stop()
        result["store"] = str(store) if store else None
        return result

    @staticmethod
    def check_twin_share(plan, layers: dict, pooled: bool) -> None:
        """The traced run proves the workload is what it claims: twins
        of the hot set hit memory, twins of the stored set hit disk."""
        name = "service.cache.disk_hit_frac" if pooled else "service.cache.hit_frac"
        designed = plan.designed_shares["twin"]
        if abs(layers[name] - designed) > SHARE_TOLERANCE:
            raise RuntimeError(f"{name} = {layers[name]:.4f}, designed twin share {designed}")

    def serve_prelude(self, server: Server, prelude: list[dict]) -> None:
        lines = [(json.dumps(r) + "\n").encode() for r in prelude]
        _, records = closed_loop(server.port, lines)
        self.check_all(prelude, [decode(r[2]) if r else None for r in records], timed=False)

    @staticmethod
    def server_rss(server: Server, pooled: bool) -> float:
        pids = [server.proc.pid]
        if pooled:
            pids += [d["pid"] for d in server.op("healthcheck")["details"]]
        return sum(vmhwm_mb(pid) for pid in pids)

    # -- traced-run extras -------------------------------------------
    def trace_path(self, part: str) -> Path:
        path = BUILD / "traces" / f"{self.args.workload}-{part}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def probe_layers(self, result: dict) -> dict:
        """Time single-layer calls in a program interpreter."""
        job = self.work / "layers-job.json"
        out = self.work / "layers-out.json"
        job.write_text(json.dumps({
            "requests": result["requests"], "answers": result["answers"],
            "scratch": str(self.work / "layers"), "store_dir": result.get("store"),
        }))
        child = Launch([PYTHON, str(ROOT / "perfbench" / "layers.py"), str(job), str(out)],
                       self.env, str(ROOT))
        if child.wait() != 0:
            raise RuntimeError("layer probe failed:\n" + "".join(child.log))
        probed = json.loads(out.read_text())
        self.spans["layers"] = probed["spans"]
        return probed["metrics"]

    def import_repro_s(self) -> float:
        code = ("import time; t = time.perf_counter(); import repro; "
                "print('import', time.perf_counter() - t)")
        times = []
        for _ in range(LAUNCHES):
            child = Launch([PYTHON, "-c", code], self.env, str(ROOT))
            times.append(float(child.first_line("import ").split()[1]))
            child.wait()
        return statistics.median(times)

    # -- the whole run -----------------------------------------------
    def execute(self) -> dict:
        host = [ref_loop_ms() for _ in range(3)]
        ticks = cpu_ticks()
        result = self.solve_paper() if self.args.workload == "solve-paper" else self.serve()
        self.check_all(result["requests"], result["answers"], timed=True)
        if self.args.trace:
            metrics = {**result["layers"], **self.probe_layers(result),
                       "setup.import_repro_s": self.import_repro_s()}
        else:
            metrics = end_to_end(result, self.tally)
        ticks = [b - a for a, b in zip(ticks, cpu_ticks())]
        host += [ref_loop_ms() for _ in range(3)]
        metrics_host = statistics.median(host)
        if self.args.trace:
            metrics["host.ref_loop_ms"] = metrics_host
            self.trace_path("client").write_text(json.dumps(self.spans))
        plan = result["plan"]
        self.info = {
            "fingerprint": plan.fingerprint(),
            "class_shares": plan.realised_shares(),
            "designed_shares": plan.designed_shares,
            "counts": self.tally.counts,
            "host.ref_loop_ms": round(metrics_host, 3),
            # The eighth /proc/stat column is time the hypervisor ran others.
            "host.steal_frac": round(ticks[7] / max(1, sum(ticks)), 4),
            "setup_launches_s": [round(s, 4) for s in result["setups"]],
        }
        lat = result["latencies"]
        pct, _, beyond = tail(lat)
        self.info["tail"] = f"p{pct} of {len(lat)} samples, {beyond} beyond it"
        if set(metrics) != set(self.declared):
            raise RuntimeError(
                f"measured metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(self.declared) - set(metrics))}, undeclared "
                f"{sorted(set(metrics) - set(self.declared))}")
        return {name: metrics[name] for name in self.declared}


def end_to_end(result: dict, tally: Tally) -> dict:
    counts = tally.counts
    latencies = result["latencies"]
    return {
        "ops_per_s": counts["verified"] / result["window"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies)[1] * 1e3,
        "verified_frac": counts["verified"] / counts["attempted"],
        "undegraded_frac": counts["undegraded"] / counts["attempted"],
        "makespan_ratio": statistics.fmean(tally.ratios) if tally.ratios else 0.0,
        "setup_s": statistics.median(result["setups"]) if result["setups"] else 0.0,
        "peak_rss_mb": result["rss"],
    }


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def core_layers(phases: dict, counters: dict, solves: int, solve_self: float) -> dict:
    """Core-layer metrics common to the wavefront and dominance engines,
    from per-kind seconds and tracer counters, whether they came from
    in-process tracers or from ``op=stats``."""
    ms = lambda kind: _per(phases.get(kind, 0.0), solves) * 1e3  # noqa: E731
    probes = counters["probes"]
    return {
        "core.bisection.probes_per_solve": _per(probes, solves),
        "core.bisection.rounding_reuse_frac": _per(counters["rounding_reuses"], probes),
        "core.rounding.ms_per_solve": ms("round"),
        "core.configurations.ms_per_solve": ms("enumerate"),
        "core.configurations.configs_per_solve": _per(counters["configs_enumerated"], solves),
        "core.dp.backtrack_ms_per_solve": ms("backtrack"),
        "core.ptas.reconstruct_ms_per_solve": ms("reconstruct"),
        "core.ptas.solve_self_ms": _per(solve_self, solves) * 1e3,
    }


#: Metrics read from a server's ``op=stats``.  ``solve-paper`` runs no
#: server, so they read 0 there by construction.
SERVER_STATS_LAYERS = (
    "core.dp.dominance_ms_per_solve",
    "service.server.request_ms_p50", "service.server.wire_ms_p50",
    "service.server.queue_wait_ms_mean", "service.server.batch_size_mean",
    "service.cache.hit_frac", "service.cache.disk_hit_frac", "service.cache.coalesced",
    "service.admission.rejected", "service.sharding.max_shard_share",
    "service.worker.solve_ms_mean", "service.supervisor.outside_worker_ms_mean",
    "service.supervisor.restarts", "service.supervisor.degradations",
    "store.verify_failures",
)


def solver_layers(loop: dict, solves: int) -> dict:
    """Per-layer metrics of ``solve-paper`` from its in-process tracers."""
    trace = loop["trace"]
    kinds = trace["kinds"]
    phases = {kind: agg["seconds"] for kind, agg in kinds.items()}
    out = core_layers(phases, trace["counters"], solves,
                      solve_self=kinds.get("solve", {}).get("self", 0.0))
    level_s = phases.get("level", 0.0)
    cache = loop["config_cache"]
    out.update(dict.fromkeys(SERVER_STATS_LAYERS, 0.0))
    out.update({
        "core.parallel_dp.self_ms_per_solve": _per(
            kinds.get("dp", {}).get("self", 0.0), solves) * 1e3,
        "core.kernels.level_ms_per_solve": _per(level_s, solves) * 1e3,
        "core.kernels.states_per_solve": _per(trace["level_states"], solves),
        "core.kernels.states_per_s": _per(trace["level_states"], level_s),
        "core.configurations.cache_hit_frac": _per(
            cache["hits"], cache["hits"] + cache["misses"]),
        # Each instance solved untraced and traced, alternating which goes
        # first, in one interpreter; host drift cancels in the ratio.
        "obs.trace_overhead_frac": statistics.median(loop["overhead_ratios"]) - 1,
    })
    return out


class Stats:
    """``op=stats`` snapshots taken before and after the timed window.

    A key the workload should move must be in the later snapshot, so a
    renamed or missing counter fails the traced run instead of reading
    as a plausible 0.  Event counters are created on their first event;
    for those (``event=True``) absence means none happened."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before, self.after = before, after

    def delta(self, section: str, name: str, event: bool = False) -> float:
        if name not in self.after[section]:
            if event:
                return 0.0
            raise RuntimeError(f"op=stats has no {section} entry {name!r}")
        return self.after[section][name] - self.before[section].get(name, 0)

    def hist(self, name: str, event: bool = False) -> tuple[float, float]:
        """``(sum, count)`` of a histogram over the window."""
        after = self.after["histograms"].get(name)
        if after is None:
            if event:
                return 0.0, 0
            raise RuntimeError(f"op=stats has no histogram {name!r}")
        before = self.before["histograms"].get(name) or {"sum": 0.0, "count": 0}
        return after["sum"] - before["sum"], after["count"] - before["count"]


def service_layers(stats: Stats, pooled: bool, answers: list, records: list) -> dict:
    """Per-layer metrics of a serve workload from ``op=stats`` deltas
    over the timed window and the client's own observations."""
    worker = "pool." if pooled else ""
    requests_seen = stats.delta("counters", "requests_total")
    phase = lambda kind: stats.hist(  # noqa: E731
        f"{worker}trace.phase.{kind}.seconds", event=kind == "backtrack")
    solves = phase("solve")[1]
    phases = {kind: phase(kind)[0]
              for kind in ("solve", "probe", "round", "enumerate", "dp", "backtrack",
                           "reconstruct")}
    counters = {name: stats.delta("counters", f"{worker}trace.counters.{name}")
                for name in ("probes", "rounding_reuses", "configs_enumerated")}
    out = core_layers(phases, counters, solves,
                      solve_self=phases["solve"] - phases["probe"] - phases["reconstruct"])
    config_hits = stats.delta("gauges", f"{worker}dp_config_cache.hits")
    config_misses = stats.delta("gauges", f"{worker}dp_config_cache.misses")
    client = sorted(r[1] - r[0] for r in records if r)
    server_p50 = stats.after["histograms"]["request_latency_seconds"]["p50"]
    out.update({
        "core.dp.dominance_ms_per_solve": _per(phases["dp"], solves) * 1e3,
        # The service's default engine is dominance: no wavefront kernel runs.
        "core.parallel_dp.self_ms_per_solve": 0.0,
        "core.kernels.level_ms_per_solve": 0.0,
        "core.kernels.states_per_solve": 0.0,
        "core.kernels.states_per_s": 0.0,
        "core.configurations.cache_hit_frac": _per(config_hits, config_hits + config_misses),
        # The service traces every solve: there is no untraced counterpart.
        "obs.trace_overhead_frac": 0.0,
        "service.server.request_ms_p50": server_p50 * 1e3,
        "service.server.wire_ms_p50": (statistics.median(client) - server_p50) * 1e3,
        "service.cache.hit_frac": _per(
            stats.delta("gauges", f"{worker}result_cache.hits"), requests_seen),
        "service.cache.coalesced": stats.delta("counters", "requests_coalesced", event=True),
        "service.admission.rejected": stats.delta("counters", "requests_shed", event=True),
    })
    if pooled:
        dispatched = stats.delta("counters", "pool.dispatched")
        shards = [stats.delta("counters", f"pool.shard.{i}.dispatched", event=True)
                  for i in range(2)]
        solve_sum, solve_count = stats.hist("pool.solve_seconds")
        worker_mean = _per(solve_sum, solve_count)
        solved = [r[1] - r[0] for r, a in zip(records, answers)
                  if r and a and not a.get("cached")]
        out.update({
            # The pooled front end has no micro-batch window.
            "service.server.queue_wait_ms_mean": 0.0,
            "service.server.batch_size_mean": 0.0,
            "service.cache.disk_hit_frac": _per(
                stats.delta("gauges", "pool.result_cache.disk_hits"), requests_seen),
            "store.verify_failures": stats.delta("gauges", "pool.store.verify_failures"),
            "service.sharding.max_shard_share": _per(max(shards), dispatched),
            "service.worker.solve_ms_mean": worker_mean * 1e3,
            "service.supervisor.outside_worker_ms_mean": (
                (statistics.fmean(solved) - worker_mean) * 1e3 if solved else 0.0),
            "service.supervisor.restarts": stats.delta(
                "counters", "pool.worker_restarts", event=True),
            "service.supervisor.degradations": (
                stats.delta("counters", "pool.crash_degradations", event=True)
                + stats.delta("counters", "pool.deadline_degradations", event=True)),
        })
    else:
        out.update({
            "service.server.queue_wait_ms_mean": _per(*stats.hist("queue_wait_seconds")) * 1e3,
            "service.server.batch_size_mean": _per(*stats.hist("batch_size")),
            # The single-process front end runs no store and no pool.
            "service.cache.disk_hit_frac": 0.0,
            "store.verify_failures": 0.0,
            "service.sharding.max_shard_share": 0.0,
            "service.worker.solve_ms_mean": 0.0,
            "service.supervisor.outside_worker_ms_mean": 0.0,
            "service.supervisor.restarts": 0.0,
            "service.supervisor.degradations": stats.delta(
                "counters", "degradations_total", event=True),
        })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # A terminated run still reaches the finally blocks that stop its servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args, [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]])
    try:
        metrics = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for key, value in run.info.items():
        print(f"# {key}: {value}")
    for failure in run.tally.failures[:20]:
        print(f"# FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    counts = run.tally.counts
    correct = not run.tally.failures and counts["verified"] == counts["attempted"]
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["verified"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
