"""Program side of the ``solve-paper`` workload: a fresh interpreter
that calls ``repro.solve`` from one thread.

    python perfbench/solve_child.py setup
        import repro, solve one fixed tiny instance, print the answer.
    python perfbench/solve_child.py loop JOB.json OUT.json [--trace SPANS.json]
        warm up on the job's prelude, then time each solve of its timed
        list.  With ``--trace`` every timed solve carries a ``repro.obs``
        tracer whose spans are summarised per kind and written once, at
        the end; then each timed instance is solved once more untraced
        and once traced, alternating which goes first, and the ratio of
        the two times measures the tracing overhead.

Answers are returned raw: the benchmark checks them, not this process.
"""

from __future__ import annotations

import json
import sys
import time

SOLVE_KWARGS = {"engine": "parallel_ptas", "eps": 0.3, "backend": "numpy-serial",
                "workers": 1}


def vmhwm_mb() -> float:
    """Peak resident set of this process (VmHWM), in MB.  Kept apart from
    the client's reader so the solving interpreter loads nothing of the
    load generator (its asyncio imports would land in set-up time)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarise(tracers) -> tuple[dict, list]:
    """Per-kind inclusive and self seconds, counters and level states
    over all solves, plus the flat span list ``[solve, kind, start,
    end, parent]`` (parent is an index into the list, -1 for roots)."""
    kinds: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    states = 0
    spans: list = []
    for number, tracer in enumerate(tracers):
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0) + value
        stack = [(root, -1) for root in reversed(tracer.roots)]
        while stack:
            span, parent = stack.pop()
            index = len(spans)
            spans.append([number, span.kind, span.start, span.end, parent])
            agg = kinds.setdefault(span.kind, {"seconds": 0.0, "self": 0.0, "count": 0})
            agg["count"] += 1
            agg["seconds"] += span.duration
            agg["self"] += span.duration - _covered(
                [(c.start, c.end) for c in span.children if c.end is not None])
            if span.kind == "level":
                states += int(span.attrs.get("states", 0))
            stack.extend((child, index) for child in reversed(span.children))
    return {"kinds": kinds, "counters": counters, "level_states": states}, spans


def setup() -> None:
    import repro

    result = repro.solve(repro.Instance([7, 7, 6, 6, 5, 4, 4, 3], 3), **SOLVE_KWARGS)
    print(json.dumps(result.to_dict()), flush=True)


def trace_overhead(timed, ids) -> tuple[list[float], list[dict]]:
    """Per instance, traced ÷ untraced solve time (both already warm),
    and the answers of both solves in (untraced, traced) order."""
    import repro
    from repro.core.context import SolveContext
    from repro.obs import Tracer

    ratios, answers = [], []
    for number, (inst, rid) in enumerate(zip(timed, ids)):
        seconds, results = {}, {}
        for traced in (number % 2 == 1, number % 2 == 0):
            ctx = SolveContext(tracer=Tracer()) if traced else None
            t0 = time.perf_counter()
            results[traced] = repro.solve(inst, ctx=ctx, request_id=rid, **SOLVE_KWARGS)
            seconds[traced] = time.perf_counter() - t0
        ratios.append(seconds[True] / seconds[False])
        answers += [results[False].to_dict(), results[True].to_dict()]
    return ratios, answers


def loop(job_path: str, out_path: str, spans_path: str | None) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    import repro
    from repro.core.context import SolveContext
    from repro.obs import Tracer
    from repro.service.metrics import dp_cache_stats

    def instances(ops):
        return [repro.Instance(op["times"], op["machines"]) for op in ops]

    for inst in instances(job["prelude"]):
        repro.solve(inst, **SOLVE_KWARGS)
    timed = instances(job["timed"])
    ids = [op["request_id"] for op in job["timed"]]
    contexts = [SolveContext(tracer=Tracer()) if spans_path else None for _ in timed]
    latencies, results = [], []
    config_cache = dp_cache_stats()
    start = time.perf_counter()
    for inst, ctx, rid in zip(timed, contexts, ids):
        t0 = time.perf_counter()
        results.append(repro.solve(inst, ctx=ctx, request_id=rid, **SOLVE_KWARGS))
        latencies.append(time.perf_counter() - t0)
    window = time.perf_counter() - start
    after = dp_cache_stats()
    out = {
        "window_s": window,
        "latencies_s": latencies,
        "answers": [r.to_dict() for r in results],
        "peak_rss_mb": vmhwm_mb(),
        "config_cache": {k: after[k] - config_cache[k] for k in ("hits", "misses")},
    }
    if spans_path:
        out["overhead_ratios"], out["overhead_answers"] = trace_overhead(timed, ids)
        out["trace"], spans = summarise([ctx.tracer for ctx in contexts])
        with open(spans_path, "w") as fh:
            json.dump({"columns": ["solve", "kind", "start", "end", "parent"],
                       "spans": spans}, fh)
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["loop"] and len(sys.argv) in (4, 6):
        loop(sys.argv[2], sys.argv[3], sys.argv[5] if len(sys.argv) == 6 else None)
    else:
        sys.exit(f"usage: {sys.argv[0]} setup | loop JOB OUT [--trace SPANS]")
