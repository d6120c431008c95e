"""Program side of the traced run: time single-layer calls in process.

    python perfbench/layers.py JOB.json OUT.json

The job carries one workload's own wire requests, the answers the
program gave them, a scratch directory and, for the pooled workload,
the populated store directory.  Each call below runs under a
benchmark-side span (layer, start, end); a layer's figure is the
median span duration.  Calls that fsync (store put, journal) run on a
bounded prefix of the requests so the probe stays short.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import statistics
import sys
import time
from pathlib import Path

from repro.model.verify import verify_schedule
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache, canonical_key, canonicalize_result
from repro.service.requests import SolveRequest, SolveResult
from repro.service.sharding import shard_index
from repro.service.worker import recv_frame, send_frame
from repro.store import ResultStore, WriteAheadJournal

#: Cap on calls per layer (fsyncing layers use ``DURABLE_CALLS``).
CALLS = 2000
DURABLE_CALLS = 100


class Spans:
    """Benchmark-side spans around in-process layer calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    def time(self, layer: str, fn, items) -> float:
        """Call ``fn(item)`` for each item under its own span; the
        median call in microseconds."""
        durations = []
        for item in items:
            t0 = time.perf_counter()
            fn(item)
            t1 = time.perf_counter()
            self.spans.append((layer, t0, t1))
            durations.append(t1 - t0)
        return statistics.median(durations) * 1e6


def _twin(request: SolveRequest, rng: random.Random) -> SolveRequest:
    times = list(request.times)
    rng.shuffle(times)
    return SolveRequest(times=times, machines=request.machines, problem=request.problem,
                        speeds=request.speeds, engine=request.engine, eps=request.eps)


def _frame_roundtrip(pair, frames) -> None:
    left, right = pair
    send_frame(left, frames[0])
    recv_frame(right)
    send_frame(right, frames[1])
    recv_frame(left)


def probe(job: dict) -> dict:
    pairs = [(SolveRequest.from_dict(q), SolveResult.from_dict(a))
             for q, a in zip(job["requests"], job["answers"])]
    pairs = [(q, a) for q, a in pairs if a.ok][:CALLS]
    requests = [q for q, _ in pairs]
    results = [a for _, a in pairs]
    lines = [json.dumps(q) for q in job["requests"][:CALLS]]
    scratch = Path(job["scratch"])
    spans = Spans()
    out: dict[str, float] = {}

    out["service.requests.parse_us"] = spans.time("parse", SolveRequest.from_json, lines)
    out["service.requests.encode_us"] = spans.time(
        "encode", SolveResult.to_json, results)
    out["service.cache.canonical_key_us"] = spans.time(
        "canonical_key", canonical_key, requests)
    cache = ResultCache(max_entries=len(pairs) + 1)
    out["service.cache.put_us"] = spans.time(
        "cache_put", lambda p: cache.put(*p), pairs)
    rng = random.Random(0)
    out["service.cache.get_hit_us"] = spans.time(
        "cache_get_hit", cache.get, [_twin(q, rng) for q in requests])
    admission = AdmissionController()
    out["service.admission.try_admit_us"] = spans.time(
        "try_admit", lambda q: admission.release(admission.try_admit(q)), requests)
    keys = [canonical_key(q) for q in requests]
    out["service.sharding.shard_index_us"] = spans.time(
        "shard_index", lambda k: shard_index(k, 2), keys)
    frames = [({"kind": "solve", "id": f"{i:08d}", "request": q.to_dict(),
                "deadline": None},
               {"kind": "result", "id": f"{i:08d}", "result": a.to_dict()})
              for i, (q, a) in enumerate(pairs)]
    pipe = multiprocessing.Pipe()
    try:
        out["service.worker.frame_roundtrip_us"] = spans.time(
            "frame_roundtrip", lambda f: _frame_roundtrip(pipe, f), frames)
    finally:
        for conn in pipe:
            conn.close()
    schedules = [(a.schedule(q.instance()), q.instance()) for q, a in pairs]
    out["model.verify.verify_us"] = spans.time(
        "verify", lambda s: verify_schedule(*s), schedules)

    durable = pairs[:DURABLE_CALLS]
    canonical = [(canonical_key(q), canonicalize_result(q, a)) for q, a in durable]
    store = ResultStore(scratch / "store")
    try:
        out["store.resultstore.put_us"] = spans.time(
            "store_put", lambda kv: store.put(*kv), canonical)
    finally:
        store.close()
    journal = WriteAheadJournal(scratch / "journal")
    try:
        out["store.journal.begin_commit_us"] = spans.time(
            "journal_begin_commit", lambda q: journal.commit(journal.begin(q)),
            [q for q, _ in durable])
    finally:
        journal.close()
    store = ResultStore(scratch / "store")
    try:
        out["store.resultstore.get_us"] = spans.time(
            "store_get", store.get, [k for k, _ in canonical])
    finally:
        store.close()
    populated = job.get("store_dir") or str(scratch / "store")
    opened = []

    def open_store(_):
        opened.append(ResultStore(populated))

    out["store.resultstore.open_ms"] = spans.time("store_open", open_store, range(3)) / 1e3
    stats = opened[-1].stats()
    for each in opened:
        each.close()
    out["store.resultstore.bytes_per_entry"] = stats["bytes"] / max(1, stats["entries"])
    return {"metrics": out, "spans": spans.spans}


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} JOB.json OUT.json")
    with open(sys.argv[1]) as fh:
        job_spec = json.load(fh)
    with open(sys.argv[2], "w") as fh:
        json.dump(probe(job_spec), fh)
