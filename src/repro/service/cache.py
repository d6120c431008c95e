"""Canonical-form result cache.

Both problem variants are permutation-invariant: the makespan of an
instance depends only on the *multiset* of processing times (and, on
uniformly related machines, the *multiset* of speeds).  The cache
therefore keys on a problem tag plus the sort-normalized job vector,
the sorted speed vector, and ``(m, engine, eps)``, so a request whose
times (or machines) are any permutation of a previously solved instance
is served instantly — and two different problem variants can never
collide, because the tag namespaces every key, including ``p_cmax``.

To return a *valid schedule for the caller's job numbering* (not just a
makespan), entries store the assignment in canonical coordinates —
machine groups of *positions in the sorted job order* — and translate on
the way in and out:

* ``put``: job index ``j`` of the request maps to its position in the
  request's stable sort order;
* ``get``: canonical position ``p`` maps to the *new* request's job at
  the same sorted position (same processing time, since the multisets
  match), so the returned assignment has identical machine loads.

Eviction is LRU bounded by ``max_entries`` plus an optional TTL; hits,
misses, evictions and expirations are counted for
:mod:`repro.service.metrics`.  The cache is lock-protected — the server
touches it from the event loop but batch workers and tests may not.

With a :class:`repro.store.ResultStore` attached the cache becomes
two-tiered: memory hit → disk hit → miss.  ``put`` writes through to the
store (canonical coordinates, so the store's address space is exactly
this cache's key space) and a disk hit is promoted back into the memory
tier.  Both tiers' hit/miss/eviction/expiry counters surface in
:meth:`ResultCache.stats` — the disk tier's under a ``disk_`` prefix.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.model.problem import P_CMAX, Q_CMAX
from repro.service.registry import canonical_engine_name
from repro.service.requests import SolveRequest, SolveResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.store.resultstore import ResultStore

#: ``(problem, sorted times, sorted speeds, machines, engine, eps)``.
#: The problem tag namespaces every key (even ``p_cmax``) so variants can
#: never collide; ``speeds`` is the sorted multiset for ``q_cmax`` and
#: always ``()`` for ``p_cmax``.
CacheKey = tuple[str, tuple[int, ...], tuple[int, ...], int, str, float]


def _sort_order(times: tuple[int, ...]) -> list[int]:
    """Job indices in the stable canonical order (by time, ties by index)."""
    return sorted(range(len(times)), key=lambda j: (times[j], j))


def _machine_order(speeds: tuple[int, ...]) -> list[int]:
    """Machine indices in the stable canonical order (by speed, ties by
    index).  Identical machines are interchangeable; uniform ones are
    only interchangeable within a speed class, so canonical machine
    coordinates are positions in this order."""
    return sorted(range(len(speeds)), key=lambda i: (speeds[i], i))


def canonical_problem_key(request: SolveRequest) -> tuple[str, tuple[int, ...]]:
    """The ``(problem, sorted speeds)`` part of the canonical identity.

    A ``q_cmax`` request whose machines all run at speed 1 *is* the
    identical-machine instance — it normalizes to the ``p_cmax``
    namespace (empty speed vector) so the two paths share answers
    byte for byte.  Any other speed vector keeps its own namespace
    (even all-equal speeds ``> 1`` scale completion times, so their
    stored makespans differ from the ``P`` entry's).
    """
    if request.problem == Q_CMAX and set(request.speeds) != {1}:
        return Q_CMAX, tuple(sorted(request.speeds))
    return P_CMAX, ()


def canonical_key(request: SolveRequest) -> CacheKey:
    """The permutation-invariant identity of a request's *answer*.

    Two requests share a key iff they describe the same problem variant,
    multiset of times (and of speeds, for ``q_cmax``), machine count,
    engine and ``eps`` — everything that can change the returned
    schedule's loads.  Tuning knobs (workers, backend) deliberately do
    not participate: every wavefront backend fills the same table, so
    they change how fast the answer is computed, never the answer.
    """
    problem, speeds = canonical_problem_key(request)
    return (
        problem,
        tuple(sorted(request.times)),
        speeds,
        request.machines,
        canonical_engine_name(request.engine),
        round(request.eps, 12),
    )


def _to_canonical(
    request: SolveRequest, assignment: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Re-express an assignment over job indices as one over sorted
    positions; for ``q_cmax`` the machine rows are also permuted into
    the canonical (sorted-speed) machine order."""
    times = request.times
    position_of = {j: p for p, j in enumerate(_sort_order(times))}
    groups = tuple(
        tuple(sorted(position_of[j] for j in grp)) for grp in assignment
    )
    problem, speeds = canonical_problem_key(request)
    if problem == Q_CMAX:
        order = _machine_order(request.speeds)
        groups = tuple(groups[i] for i in order)
    return groups


def _from_canonical(
    request: SolveRequest, canonical: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Instantiate a canonical assignment for a concrete job numbering
    (and, for ``q_cmax``, a concrete machine/speed ordering)."""
    order = _sort_order(request.times)
    groups = tuple(tuple(order[p] for p in grp) for grp in canonical)
    problem, speeds = canonical_problem_key(request)
    if problem == Q_CMAX:
        machine_order = _machine_order(request.speeds)
        rows: list[tuple[int, ...]] = [()] * len(machine_order)
        for p, machine in enumerate(machine_order):
            rows[machine] = groups[p]
        groups = tuple(rows)
    return groups


def canonicalize_result(request: SolveRequest, result: SolveResult) -> SolveResult:
    """*result* stripped to its permutation-invariant canonical form.

    The assignment is re-expressed over sorted positions (and canonical
    machine order under speeds) and every caller-specific field (request
    id, elapsed wall time, cached flag) is zeroed — the representation
    both the memory tier and the durable :class:`repro.store.ResultStore`
    persist, and the one whose serialized bytes the crash-recovery test
    compares.  A makespan that lands in the ``p_cmax`` namespace is an
    integer load; unit-speed ``q_cmax`` floats are folded back to int so
    the shared entry is byte-identical either way it was produced.
    """
    canonical = (
        _to_canonical(request, result.assignment)
        if result.assignment is not None
        else None
    )
    makespan = result.makespan
    problem, _ = canonical_problem_key(request)
    if (
        problem == P_CMAX
        and isinstance(makespan, float)
        and makespan.is_integer()
    ):
        makespan = int(makespan)
    return replace(
        result,
        request_id="",
        assignment=canonical,
        makespan=makespan,
        cached=False,
        elapsed=0.0,
    )


def localize_result(request: SolveRequest, stored: SolveResult) -> SolveResult:
    """Translate a canonical *stored* result to *request*'s job numbering
    (inverse of :func:`canonicalize_result`; tagged as a cache hit)."""
    assignment = (
        _from_canonical(request, stored.assignment)
        if stored.assignment is not None
        else None
    )
    return replace(
        stored,
        request_id=request.request_id,
        assignment=assignment,
        cached=True,
    )


class ResultCache:
    """LRU + TTL cache of solve results in canonical coordinates.

    Parameters
    ----------
    max_entries:
        LRU bound; 0 disables caching entirely.
    ttl:
        Seconds an entry stays valid, or ``None`` for no expiry.
    clock:
        Injectable monotonic clock (tests freeze it).
    store:
        Optional durable tier (:class:`repro.store.ResultStore`): misses
        fall through to disk, stores write through to disk.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        store: "ResultStore | None" = None,
    ) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.max_entries = max_entries
        self.ttl = ttl
        self.store = store
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, tuple[float, SolveResult]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, request: SolveRequest) -> SolveResult | None:
        """The cached result translated to *request*'s job numbering, or
        ``None``.  A hit is tagged ``cached=True`` and echoes the
        request's own id.  On a memory miss the durable tier (if any) is
        consulted, and a disk hit is promoted back into memory."""
        if self.max_entries == 0 and self.store is None:
            return None
        key = canonical_key(request)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry[0]):
                del self._entries[key]
                self.expirations += 1
                entry = None
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return localize_result(request, entry[1])
            self.misses += 1
        if self.store is None:
            return None
        stored = self.store.get(key)  # counts its own hit/miss
        if stored is None:
            return None
        self._remember(key, stored)
        return localize_result(request, stored)

    def put(self, request: SolveRequest, result: SolveResult) -> bool:
        """Store *result* for *request*'s canonical key.

        Only clean, full-fidelity answers are cached: degraded (deadline
        fallback) and non-``ok`` results are refused, since re-running
        them may produce the real answer.  With a durable tier attached
        the canonical form is also written through to disk (an I/O error
        there degrades to memory-only, it never fails the request).
        Returns whether it was stored in at least one tier.
        """
        if (self.max_entries == 0 and self.store is None) or not result.ok:
            return False
        if result.degraded:
            return False
        stored = canonicalize_result(request, result)
        key = canonical_key(request)
        self._remember(key, stored)
        if self.store is not None:
            try:
                self.store.put(key, stored)
            except OSError:
                pass  # durable tier unavailable; memory tier still serves
        return True

    def _remember(self, key: CacheKey, stored: SolveResult) -> None:
        """Insert a canonical result into the memory tier (LRU evicting)."""
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = (self._clock(), stored)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def _expired(self, stored_at: float) -> bool:
        return self.ttl is not None and self._clock() - stored_at > self.ttl

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction/expiration counters plus the current size.

        With a durable tier attached, its counters ride along under a
        ``disk_`` prefix (``disk_hits``, ``disk_evictions``, …) so
        ``op=stats`` exposes both tiers side by side."""
        with self._lock:
            out = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "currsize": len(self._entries),
                "maxsize": self.max_entries,
            }
        if self.store is not None:
            for key, value in self.store.stats().items():
                out[f"disk_{key}"] = value
        return out
