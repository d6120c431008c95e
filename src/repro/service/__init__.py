"""repro.service — a long-lived scheduling service over the solver library.

The subsystem turns the one-shot solvers into an asyncio service:

* :mod:`repro.service.requests` — the wire types (:class:`SolveRequest`,
  :class:`SolveResult`) with JSON (de)serialization and deadline helpers.
* :mod:`repro.service.registry` — one source of truth mapping engine
  names to solver callables with declared capabilities; shared by the
  CLI and the server.
* :mod:`repro.service.cache` — canonical-form result cache (permutation
  invariant, LRU + TTL, hit/miss counters).
* :mod:`repro.service.admission` — bounded queue and load shedding
  driven by a :mod:`repro.simcore.costmodel` work estimate.
* :mod:`repro.service.metrics` — counters / gauges / histograms plus the
  DP configuration-cache statistics.
* :mod:`repro.service.server` — the asyncio JSON-lines front-end with
  one executor call per admitted request and deadline-triggered
  degradation to LPT.
* :mod:`repro.service.sharding` — canonical-key shard routing for the
  multi-process pool.
* :mod:`repro.service.worker` / :mod:`repro.service.supervisor` — the
  sharded solver pool (``repro-pcmax serve --pool-workers N``): N worker
  processes behind the same front-end, crash-respawned, each owning one
  shard of the key space — see ``docs/scaling.md``.

Durability is layered underneath by :mod:`repro.store` (opt-in via
``repro-pcmax serve --store DIR``): the cache gains a disk tier, every
admitted request is write-ahead journaled, and a crashed server replays
its unanswered work on restart — see ``docs/persistence.md``.

See ``docs/service.md`` for the architecture and protocol reference.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.cache import (
    ResultCache,
    canonical_key,
    canonicalize_result,
    localize_result,
)
from repro.service.metrics import MetricsRegistry, dp_cache_stats
from repro.service.registry import (
    EngineSpec,
    UnknownEngineError,
    UnsupportedProblemError,
    available_engines,
    engine_problem_pairs,
    fallback_result,
    get_engine,
)
from repro.service.requests import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    DeadlineExceeded,
    SolveRequest,
    SolveResult,
    StreamRequest,
    StreamResult,
)
from repro.service.server import SolveService, serve, stream_events, submit
from repro.service.sharding import (
    shard_index,
    shard_key,
    shard_of_request,
    tenant_shard,
)
from repro.service.supervisor import PooledSolveService, SupervisorPool

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ResultCache",
    "canonical_key",
    "canonicalize_result",
    "localize_result",
    "MetricsRegistry",
    "dp_cache_stats",
    "EngineSpec",
    "UnknownEngineError",
    "UnsupportedProblemError",
    "available_engines",
    "engine_problem_pairs",
    "fallback_result",
    "get_engine",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOLS",
    "DeadlineExceeded",
    "SolveRequest",
    "SolveResult",
    "StreamRequest",
    "StreamResult",
    "SolveService",
    "serve",
    "stream_events",
    "submit",
    "shard_index",
    "shard_key",
    "shard_of_request",
    "tenant_shard",
    "PooledSolveService",
    "SupervisorPool",
]
