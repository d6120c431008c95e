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
* :mod:`repro.service.server` — the asyncio JSON-lines front-end,
  :class:`SolveService`: validation, coalescing, admission and
  deadlines, over one lane — :class:`~repro.service.server.LocalLane`
  (one shard on threads) by default.
* :mod:`repro.service.worker` — the :class:`~repro.service.worker.Shard`
  both lanes run (cache, journal, sessions, the solve path) and the
  pool's worker process around it.
* :mod:`repro.service.supervisor` — the other lane,
  :class:`SupervisorPool` (``repro-pcmax serve --pool-workers N``): N
  worker processes, crash-respawned, each owning one shard of the key
  space — see ``docs/scaling.md``.
* :mod:`repro.service.sharding` — canonical-key shard routing for the
  pool.

Durability is layered underneath by :mod:`repro.store` (opt-in via
``repro-pcmax serve --store DIR``): the cache gains a disk tier, every
solve is write-ahead journaled when it starts, and a crashed server
replays its unanswered work on restart — see ``docs/persistence.md``.

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
from repro.service.supervisor import SupervisorPool

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
    "SupervisorPool",
]
