"""Content-addressed durable result store for solver answers.

The store persists *canonical* solve results — the same representation
the service cache keeps in memory (:mod:`repro.service.cache`): times
sorted ascending, the assignment expressed over sorted positions (and,
under machine speeds, canonical sorted-speed machine order).  Its
address space is therefore exactly the cache's key space: the SHA-256
of the canonical key ``(problem, sorted times, sorted speeds, m,
engine, eps)``, so any permutation of a stored instance resolves to the
same record and the caller-side remapping machinery of the cache works
unchanged on top.

Migration note (problem-variant keys): the in-memory key gained a
``problem`` tag and a speed multiset, but the *hashed address body* for
``p_cmax`` keys is unchanged — exactly the historical ``{"times",
"machines", "engine", "eps"}`` JSON.  Only non-default problems
(``q_cmax``) add ``problem``/``speeds`` fields to the hashed body and
the stored record.  Pre-existing segments therefore keep their
addresses and keep hitting after an upgrade; no rewrite is needed, and
a ``q_cmax`` answer can never collide with a ``p_cmax`` record because
its hashed body (hence address) carries the problem tag.

Layout under the store root::

    <root>/segments/seg-*.jsonl   append-only record segments
    <root>/journal.jsonl          write-ahead journal (repro.store.journal)

Record kinds (see :mod:`repro.store.records` for the line format):

``result``
    ``{"address", "times", "machines", "engine", "eps", "result",
    "stored_at"}`` — the canonical :class:`SolveResult` payload.  The
    *latest* record per address wins (a store is a log; overwrites
    append).
``trace``
    ``{"address", "name", "trace"}`` — an archived observability trace
    (:func:`archive_trace`), linked to the solve it explains.
``tombstone``
    reserved for deletion; compaction drops tombstoned addresses.

Safety properties:

* every append is fsync'd before it is acknowledged (durable once
  stored);
* every read is checksum-verified (:func:`repro.store.records`) and the
  decoded schedule is re-verified against its instance via
  :func:`repro.model.verify.verify_schedule` before being served —
  corrupt bytes can fail a read but can never produce a wrong answer;
* a segment with non-tail damage is quarantined (renamed aside with the
  reason recorded), never silently skipped.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.io.atomic import atomic_write, fsync_dir
from repro.model.instance import Instance
from repro.model.problem import P_CMAX, Q_CMAX
from repro.model.qinstance import QInstance, QSchedule
from repro.model.schedule import Schedule
from repro.model.verify import verify_schedule
from repro.service.requests import SolveResult
from repro.store.records import RecordError, canonical_json, encode_record
from repro.store.segment import (
    QUARANTINE_SUFFIX,
    SegmentWriter,
    list_segments,
    quarantine_segment,
    read_record_at,
    scan_segment,
    segment_name,
    segment_seq,
)

#: ``(problem, sorted times, sorted speeds, machines, engine, eps)`` —
#: identical to :data:`repro.service.cache.CacheKey`.
StoreKey = tuple[str, tuple[int, ...], tuple[int, ...], int, str, float]


def _address_body(key: StoreKey) -> dict[str, Any]:
    """The canonical JSON body a key's address hashes over.

    ``p_cmax`` keys keep the historical four-field body so pre-existing
    segments stay addressable (see the module migration note); other
    problems add their tag and speed multiset, which namespaces them
    away from every legacy address.
    """
    problem, times, speeds, machines, engine, eps = key
    body: dict[str, Any] = {
        "times": list(times),
        "machines": int(machines),
        "engine": engine,
        "eps": eps,
    }
    if problem != P_CMAX:
        body["problem"] = problem
        body["speeds"] = list(speeds)
    return body


def key_address(key: StoreKey) -> str:
    """The content address (SHA-256 hex) of a canonical key."""
    return hashlib.sha256(
        canonical_json(_address_body(key)).encode("utf-8")
    ).hexdigest()


def result_fingerprint(result: SolveResult) -> str:
    """The canonical byte form of a stored result (what "byte-match"
    means in the recovery tests): its dict serialized canonically."""
    return canonical_json(result.to_dict())


@dataclass
class StoreVerifyReport:
    """Outcome of ``repro-pcmax store verify``: per-segment findings."""

    segments_checked: int = 0
    records_checked: int = 0
    schedules_verified: int = 0
    torn_tails: int = 0
    quarantined: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean iff nothing was quarantined and no schedule failed."""
        return not self.quarantined and not self.violations


@dataclass
class CompactionReport:
    """Outcome of one compaction pass."""

    segments_before: int = 0
    segments_after: int = 0
    records_kept: int = 0
    records_dropped: int = 0
    expired_dropped: int = 0
    bytes_before: int = 0
    bytes_after: int = 0


class StoreCorruptionError(RuntimeError):
    """A read hit bytes that failed checksum or schedule verification."""


class ResultStore:
    """Durable, content-addressed map from canonical keys to results.

    Parameters
    ----------
    root:
        Store directory (created on demand).
    ttl:
        Seconds a stored result stays servable (wall clock, so it
        survives restarts), or ``None`` for no expiry.  Expired entries
        are refused by :meth:`get` and dropped by :meth:`compact`.
    segment_max_bytes:
        Roll the active segment beyond this size.
    clock:
        Injectable wall clock (tests freeze it).
    verify_reads:
        Re-verify each served schedule via
        :func:`repro.model.verify.verify_schedule` (on by default; the
        cost is linear in the instance and tiny next to a solve).
    writer_tag:
        Append namespace for this process's writes (``seg-<tag>-*``).
        Each worker of a multi-process solver pool opens the *same* root
        with its own tag, so the store is a shared read tier while every
        segment file keeps exactly one writer (docs/persistence.md).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        ttl: float | None = None,
        segment_max_bytes: int = 4 << 20,
        clock: Callable[[], float] = time.time,
        verify_reads: bool = True,
        writer_tag: str | None = None,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.ttl = ttl
        self._clock = clock
        self.verify_reads = verify_reads
        self.writer_tag = writer_tag
        self._writer = SegmentWriter(
            self.segments_dir, max_bytes=segment_max_bytes, tag=writer_tag
        )
        # The store is read from the event loop (cache hits) and written
        # from solve threads (write-through, trace archival), so it locks.
        self._lock = threading.Lock()
        # address -> (segment path, byte offset) of the *latest* record.
        self._index: dict[str, tuple[Path, int]] = {}
        self._trace_index: dict[str, tuple[Path, int]] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.expirations = 0
        self.evictions = 0
        self.verify_failures = 0
        self.quarantined_segments = 0
        # Damage found (and quarantined) while building the index; the
        # next verify() drains this so the finding is reported once.
        self._quarantined_at_load: list[tuple[str, str]] = []
        self._load_index()

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        """Scan all segments, quarantining damaged ones, and point the
        index at the newest record per address (the log's last word)."""
        for path in list_segments(self.segments_dir):
            scan = scan_segment(path)
            if scan.corrupt:
                reason = "\n".join(scan.errors)
                target = quarantine_segment(path, reason)
                self.quarantined_segments += 1
                self._quarantined_at_load.append((target.name, reason))
                continue
            for offset, record in scan.records:
                kind = record.get("kind")
                address = record.get("address")
                if not isinstance(address, str):
                    continue
                if kind == "result":
                    self._index[address] = (path, offset)
                elif kind == "trace":
                    name = record.get("name")
                    if isinstance(name, str):
                        self._trace_index[name] = (path, offset)
                elif kind == "tombstone":
                    self._index.pop(address, None)

    # ------------------------------------------------------------------
    # Read / write path
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: StoreKey) -> bool:
        return key_address(key) in self._index

    def put(self, key: StoreKey, result: SolveResult) -> str:
        """Durably store a *canonical* result under *key*.

        *result* must already be in canonical coordinates (what
        :func:`repro.service.cache.canonicalize_result` produces) —
        the store never re-sorts; it trusts and records.  Returns the
        content address.
        """
        address = key_address(key)
        body = dict(_address_body(key))
        body["address"] = address
        body["result"] = result.to_dict()
        body["stored_at"] = round(self._clock(), 6)
        with self._lock:
            path, offset = self._writer.append("result", body)
            self._index[address] = (path, offset)
            self.puts += 1
        return address

    def get(self, key: StoreKey) -> SolveResult | None:
        """The canonical result stored under *key*, or ``None``.

        The record is checksum-verified on read; with ``verify_reads``
        the decoded schedule is additionally re-verified against its
        instance, so a record that went bad *after* the index was built
        is refused (counted in ``verify_failures``), never served.
        """
        address = key_address(key)
        with self._lock:
            located = self._index.get(address)
            if located is None:
                self.misses += 1
                return None
            path, offset = located
            try:
                record = read_record_at(path, offset)
            except (RecordError, OSError):
                self.verify_failures += 1
                self._index.pop(address, None)
                self.misses += 1
                return None
            if self._expired(record):
                self._index.pop(address, None)
                self.expirations += 1
                self.misses += 1
                return None
            result = SolveResult.from_dict(record["result"])
            if self.verify_reads and not self._schedule_ok(record, result):
                self.verify_failures += 1
                self._index.pop(address, None)
                self.misses += 1
                return None
            self.hits += 1
        return result

    def _expired(self, record: dict[str, Any]) -> bool:
        if self.ttl is None:
            return False
        stored_at = float(record.get("stored_at", 0.0))
        return self._clock() - stored_at > self.ttl

    @staticmethod
    def _schedule_ok(record: dict[str, Any], result: SolveResult) -> bool:
        """Re-verify a stored schedule against its canonical instance
        (problem-aware: records tagged ``q_cmax`` rebuild a
        :class:`QInstance`/:class:`QSchedule` pair)."""
        if result.assignment is None:
            return result.makespan is None
        problem = record.get("problem", P_CMAX)
        try:
            times = tuple(int(t) for t in record["times"])
            if problem == Q_CMAX:
                instance: Instance | QInstance = QInstance(
                    times, tuple(int(s) for s in record.get("speeds", ()))
                )
                schedule: Schedule | QSchedule = QSchedule(
                    instance, result.assignment
                )
            else:
                instance = Instance(times, int(record["machines"]))
                schedule = Schedule(instance, result.assignment)
        except (KeyError, ValueError, TypeError):
            return False
        if schedule.makespan != result.makespan:
            return False
        return verify_schedule(schedule, instance).ok

    # ------------------------------------------------------------------
    # Trace archive (obs integration)
    # ------------------------------------------------------------------
    def archive_trace(self, name: str, payload: dict[str, Any]) -> str:
        """Durably archive one observability trace payload under *name*
        (e.g. a request id); returns the line's content address."""
        address = hashlib.sha256(
            ("trace:" + name).encode("utf-8")
        ).hexdigest()
        body = {
            "address": address,
            "name": name,
            "trace": payload,
            "stored_at": round(self._clock(), 6),
        }
        with self._lock:
            path, offset = self._writer.append("trace", body)
            self._trace_index[name] = (path, offset)
        return address

    def load_archived_trace(self, name: str) -> dict[str, Any] | None:
        """The archived trace payload named *name*, or ``None``."""
        located = self._trace_index.get(name)
        if located is None:
            return None
        try:
            record = read_record_at(*located)
        except (RecordError, OSError):
            self.verify_failures += 1
            return None
        return record.get("trace")

    def trace_names(self) -> list[str]:
        """Names of every archived trace, sorted."""
        return sorted(self._trace_index)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Every *live* result record (latest per address), oldest-address
        order not guaranteed."""
        for address in list(self._index):
            located = self._index.get(address)
            if located is None:
                continue
            try:
                yield read_record_at(*located)
            except (RecordError, OSError):
                continue

    def compact(self) -> CompactionReport:
        """Rewrite live, unexpired records into fresh segments and delete
        the superseded files.

        The new segment is written and fsync'd *before* any old segment
        is removed, so a crash mid-compaction leaves duplicates (safe —
        latest record wins) rather than losses.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> CompactionReport:
        report = CompactionReport()
        max_bytes = self._writer.max_bytes
        self._writer.close()
        old_segments = list_segments(self.segments_dir)
        report.segments_before = len(old_segments)
        report.bytes_before = sum(p.stat().st_size for p in old_segments)

        seen_records = 0
        clean_old: list[Path] = []
        for path in old_segments:
            scan = scan_segment(path)
            if scan.corrupt:
                quarantine_segment(path, "\n".join(scan.errors))
                self.quarantined_segments += 1
                continue
            clean_old.append(path)
            seen_records += len(scan.records)

        # Collect the survivors *before* touching any file: the latest
        # result per address (unexpired) plus every archived trace.
        live: list[tuple[str, dict[str, Any]]] = []
        for record in self.iter_records():
            if self._expired(record):
                report.expired_dropped += 1
                self.expirations += 1
                continue
            live.append(("result", record))
        for name in self.trace_names():
            try:
                live.append(("trace", read_record_at(*self._trace_index[name])))
            except (RecordError, OSError):
                continue

        # Write the replacement segment durably, then retire the old
        # files.  A crash between the two steps leaves duplicates, which
        # is safe: the index always takes the latest record per address.
        # Compaction always writes an *untagged* segment; the sequence
        # number clears every namespace so the new file cannot collide.
        next_seq = max((segment_seq(p) for p in clean_old), default=0) + 1
        new_path = self.segments_dir / segment_name(next_seq)
        new_index: dict[str, tuple[Path, int]] = {}
        new_traces: dict[str, tuple[Path, int]] = {}
        lines: list[str] = []
        offset = 0
        for kind, record in live:
            body = {k: v for k, v in record.items() if k not in ("kind", "crc")}
            line = encode_record(kind, body)
            if kind == "result":
                new_index[record["address"]] = (new_path, offset)
            else:
                new_traces[record["name"]] = (new_path, offset)
            offset += len(line.encode("utf-8")) + 1
            lines.append(line)
        if lines:
            atomic_write(new_path, ("\n".join(lines) + "\n").encode("utf-8"))
        for path in clean_old:
            if path != new_path and path.exists():
                path.unlink()
        fsync_dir(self.segments_dir)
        self._index = new_index
        self._trace_index = new_traces
        self._writer = SegmentWriter(
            self.segments_dir, max_bytes=max_bytes, tag=self.writer_tag
        )

        dropped = seen_records - len(live)
        report.records_kept = len(live)
        report.records_dropped = max(0, dropped)
        self.evictions += max(0, report.records_dropped - report.expired_dropped)
        remaining = list_segments(self.segments_dir)
        report.segments_after = len(remaining)
        report.bytes_after = sum(p.stat().st_size for p in remaining)
        return report

    def verify(self, *, deep: bool = True) -> StoreVerifyReport:
        """Full-store audit: checksum every segment, quarantine damaged
        ones, and (``deep``) re-verify every stored schedule."""
        with self._lock:
            return self._verify_locked(deep=deep)

    def _verify_locked(self, *, deep: bool) -> StoreVerifyReport:
        report = StoreVerifyReport()
        # Damage already quarantined while opening the store still counts
        # as a finding of this audit (reported once, then drained).
        for name, reason in self._quarantined_at_load:
            report.quarantined.append(name)
            report.violations.extend(reason.splitlines())
        self._quarantined_at_load = []
        for path in list_segments(self.segments_dir):
            scan = scan_segment(path)
            report.segments_checked += 1
            report.records_checked += len(scan.records)
            if scan.torn_tail:
                report.torn_tails += 1
            if scan.corrupt:
                quarantined = quarantine_segment(path, "\n".join(scan.errors))
                self.quarantined_segments += 1
                report.quarantined.append(quarantined.name)
                report.violations.extend(scan.errors)
                # Drop index entries that pointed into the bad file.
                self._index = {
                    a: loc for a, loc in self._index.items() if loc[0] != path
                }
                self._trace_index = {
                    n: loc for n, loc in self._trace_index.items() if loc[0] != path
                }
                continue
            if not deep:
                continue
            for offset, record in scan.records:
                if record.get("kind") != "result":
                    continue
                result = SolveResult.from_dict(record["result"])
                if self._schedule_ok(record, result):
                    report.schedules_verified += 1
                else:
                    report.violations.append(
                        f"{path.name}@{offset}: stored schedule fails verification"
                    )
        return report

    def stats(self) -> dict[str, int]:
        """Entry/segment/byte counts plus the read/write counters."""
        segments = list_segments(self.segments_dir)
        quarantined = (
            [
                p
                for p in self.segments_dir.iterdir()
                if p.name.endswith(QUARANTINE_SUFFIX)
            ]
            if self.segments_dir.is_dir()
            else []
        )
        return {
            "entries": len(self._index),
            "traces": len(self._trace_index),
            "segments": len(segments),
            "bytes": sum(p.stat().st_size for p in segments),
            "quarantined_segments": len(quarantined),
            "puts": self.puts,
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "verify_failures": self.verify_failures,
        }

    def close(self) -> None:
        """Flush and close the active segment."""
        self._writer.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
