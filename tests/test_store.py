"""Tests for the durable result store (:mod:`repro.store`).

Covers the record format (checksums, torn-tail classification), segment
scanning and quarantine, the content-addressed :class:`ResultStore`
(round trips, TTL expiry, compaction, deep verification, trace archive),
the write-ahead journal lifecycle, and the cache's two-tier integration —
including the satellite requirement that a result persisted under one
job permutation is returned correctly remapped for a permuted duplicate.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.model.verify import verify_schedule
from repro.service.cache import (
    ResultCache,
    canonical_key,
    canonicalize_result,
)
from repro.service.registry import solve_to_result
from repro.service.requests import SolveRequest
from repro.store import (
    RecordError,
    ResultStore,
    WriteAheadJournal,
    decode_record,
    encode_record,
    key_address,
    result_fingerprint,
)
from repro.store.journal import JOURNAL_NAME
from repro.store.segment import (
    QUARANTINE_SUFFIX,
    SegmentWriter,
    list_segments,
    quarantine_segment,
    read_record_at,
    scan_segment,
)


def _req(times, machines=3, engine="lpt", **kwargs) -> SolveRequest:
    return SolveRequest(times=tuple(times), machines=machines, engine=engine, **kwargs)


def _solved(times, machines=3, engine="lpt", **kwargs):
    """A request plus its canonical stored form (solved for real)."""
    request = _req(times, machines=machines, engine=engine, **kwargs)
    result = solve_to_result(request)
    assert result.ok
    return request, canonicalize_result(request, result)


class TestRecords:
    def test_round_trip(self):
        line = encode_record("result", {"address": "abc", "x": [1, 2]})
        record = decode_record(line)
        assert record["kind"] == "result"
        assert record["address"] == "abc"
        assert record["x"] == [1, 2]

    def test_canonical_bytes_are_field_order_independent(self):
        a = encode_record("result", {"a": 1, "b": 2})
        b = encode_record("result", {"b": 2, "a": 1})
        assert a == b

    def test_torn_tail_classification(self):
        for broken in ("", "   ", '{"kind": "result", "crc": 1'):
            with pytest.raises(RecordError) as exc:
                decode_record(broken)
            assert exc.value.torn

    def test_checksum_mismatch_is_not_torn(self):
        line = encode_record("result", {"address": "abc"})
        data = json.loads(line)
        data["crc"] ^= 1
        with pytest.raises(RecordError) as exc:
            decode_record(json.dumps(data))
        assert not exc.value.torn

    def test_foreign_record_is_not_torn(self):
        for foreign in ("[1, 2]", '{"no": "crc"}'):
            with pytest.raises(RecordError) as exc:
                decode_record(foreign)
            assert not exc.value.torn


class TestSegments:
    def test_writer_offsets_support_point_reads(self, tmp_path):
        with SegmentWriter(tmp_path / "segments") as writer:
            locations = [
                writer.append("result", {"address": f"a{i}", "i": i})
                for i in range(5)
            ]
        for i, (path, offset) in enumerate(locations):
            record = read_record_at(path, offset)
            assert record["i"] == i

    def test_writer_rolls_segments_on_size(self, tmp_path):
        with SegmentWriter(tmp_path / "segments", max_bytes=64) as writer:
            for i in range(6):
                writer.append("result", {"address": f"a{i}", "i": i})
        segments = list_segments(tmp_path / "segments")
        assert len(segments) > 1
        total = sum(len(scan_segment(p).records) for p in segments)
        assert total == 6

    def test_torn_tail_is_tolerated(self, tmp_path):
        with SegmentWriter(tmp_path / "segments") as writer:
            path, _ = writer.append("result", {"address": "a0"})
            writer.append("result", {"address": "a1"})
        # Crash mid-append: the final line is cut short.
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        scan = scan_segment(path)
        assert scan.torn_tail and not scan.corrupt
        assert [r["address"] for _, r in scan.records] == ["a0"]

    def test_mid_file_damage_is_corrupt(self, tmp_path):
        with SegmentWriter(tmp_path / "segments") as writer:
            path, _ = writer.append("result", {"address": "a0"})
            writer.append("result", {"address": "a1"})
        data = bytearray(path.read_bytes())
        data[5] ^= 0xFF  # bit-flip inside the first record
        path.write_bytes(bytes(data))
        scan = scan_segment(path)
        assert scan.corrupt and scan.errors

    def test_quarantine_preserves_evidence(self, tmp_path):
        seg_dir = tmp_path / "segments"
        with SegmentWriter(seg_dir) as writer:
            path, _ = writer.append("result", {"address": "a0"})
        target = quarantine_segment(path, "checksum mismatch at 0")
        assert not path.exists()
        assert target.name.endswith(QUARANTINE_SUFFIX)
        reason = target.with_name(target.name + ".reason")
        assert "checksum mismatch" in reason.read_text()
        assert list_segments(seg_dir) == []


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        request, stored = _solved([5, 3, 8, 1], machines=2)
        key = canonical_key(request)
        with ResultStore(tmp_path) as store:
            address = store.put(key, stored)
            assert address == key_address(key)
            assert key in store
            got = store.get(key)
        assert got == stored
        assert result_fingerprint(got) == result_fingerprint(stored)

    def test_missing_key_counts_a_miss(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert store.get(("p_cmax", (1, 2, 3), (), 2, "lpt", 0.3)) is None
            assert store.stats()["misses"] == 1

    def test_reopen_serves_previous_writes(self, tmp_path):
        request, stored = _solved([9, 7, 5, 5, 3, 2], machines=2, engine="ptas")
        key = canonical_key(request)
        with ResultStore(tmp_path) as store:
            store.put(key, stored)
        with ResultStore(tmp_path) as reopened:
            assert reopened.get(key) == stored

    def test_latest_record_wins(self, tmp_path):
        request, stored = _solved([4, 4, 2], machines=2)
        key = canonical_key(request)
        with ResultStore(tmp_path) as store:
            store.put(key, stored)
            store.put(key, stored)
            assert len(store) == 1
            assert store.get(key) == stored

    def test_ttl_expires_entries(self, tmp_path):
        request, stored = _solved([6, 5, 4], machines=2)
        key = canonical_key(request)
        now = [1000.0]
        with ResultStore(tmp_path, ttl=10.0, clock=lambda: now[0]) as store:
            store.put(key, stored)
            assert store.get(key) is not None
            now[0] += 11.0
            assert store.get(key) is None
            stats = store.stats()
        assert stats["expirations"] == 1

    def test_compaction_drops_superseded_and_expired(self, tmp_path):
        req_a, stored_a = _solved([5, 3, 1], machines=2)
        req_b, stored_b = _solved([8, 8, 8, 2], machines=2)
        now = [1000.0]
        with ResultStore(
            tmp_path, ttl=100.0, clock=lambda: now[0], segment_max_bytes=256
        ) as store:
            store.put(canonical_key(req_a), stored_a)
            now[0] += 200.0  # first entry expires
            for _ in range(3):  # superseded duplicates
                store.put(canonical_key(req_b), stored_b)
            report = store.compact()
            assert report.segments_after == 1
            assert report.records_kept == 1
            assert report.expired_dropped == 1
            assert report.records_dropped >= 3
            assert store.get(canonical_key(req_b)) == stored_b
            assert store.get(canonical_key(req_a)) is None
            stats = store.stats()
        assert stats["evictions"] >= 2  # superseded duplicates dropped

    def test_store_survives_compaction_reopen(self, tmp_path):
        request, stored = _solved([7, 6, 5, 4], machines=2)
        key = canonical_key(request)
        with ResultStore(tmp_path) as store:
            store.put(key, stored)
            store.compact()
            store.put(key, stored)  # writer must append to a fresh segment
        with ResultStore(tmp_path) as reopened:
            assert reopened.get(key) == stored

    def test_verify_deep_counts_schedules(self, tmp_path):
        req_a, stored_a = _solved([5, 3, 1], machines=2)
        req_b, stored_b = _solved([9, 9, 1], machines=3, engine="ptas")
        with ResultStore(tmp_path) as store:
            store.put(canonical_key(req_a), stored_a)
            store.put(canonical_key(req_b), stored_b)
            report = store.verify(deep=True)
        assert report.ok
        assert report.schedules_verified == 2

    def test_corrupt_segment_is_quarantined_and_reported(self, tmp_path):
        request, stored = _solved([5, 3, 1], machines=2)
        req_b, stored_b = _solved([9, 9, 4, 2], machines=2)
        key = canonical_key(request)
        with ResultStore(tmp_path) as store:
            store.put(key, stored)
            store.put(canonical_key(req_b), stored_b)
        segments = list_segments(tmp_path / "segments")
        data = bytearray(segments[0].read_bytes())
        data[10] ^= 0xFF  # bit flip in the first record (non-tail damage)
        segments[0].write_bytes(bytes(data))
        with ResultStore(tmp_path) as reopened:
            # Load-time quarantine: the entry is gone and the next verify
            # reports the damage exactly once.
            assert reopened.get(key) is None
            report = reopened.verify()
            assert not report.ok
            assert report.quarantined
            second = reopened.verify()
            assert second.ok
        quarantined = [
            p
            for p in (tmp_path / "segments").iterdir()
            if p.name.endswith(QUARANTINE_SUFFIX)
        ]
        assert quarantined

    def test_tampered_schedule_fails_read_verification(self, tmp_path):
        """A record whose bytes checksum fine but whose schedule is wrong
        (forged checksum over a bad assignment) is refused on read."""
        request, stored = _solved([5, 3, 8, 1], machines=2)
        key = canonical_key(request)
        with ResultStore(tmp_path) as store:
            store.put(key, stored)
        path = list_segments(tmp_path / "segments")[0]
        record = decode_record(path.read_text().strip())
        record["result"]["makespan"] = record["result"]["makespan"] + 1
        body = {k: v for k, v in record.items() if k not in ("kind", "crc")}
        path.write_text(encode_record("result", body) + "\n")
        with ResultStore(tmp_path) as reopened:
            assert reopened.get(key) is None
            stats = reopened.stats()
        assert stats["verify_failures"] == 1

    def test_trace_archive_round_trip(self, tmp_path):
        payload = {"traceEvents": [{"name": "solve", "ph": "X"}]}
        with ResultStore(tmp_path) as store:
            store.archive_trace("req-1", payload)
            assert store.trace_names() == ["req-1"]
            assert store.load_archived_trace("req-1") == payload
        with ResultStore(tmp_path) as reopened:
            assert reopened.load_archived_trace("req-1") == payload


class TestJournal:
    def test_begin_commit_lifecycle(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        entry = journal.begin(_req([3, 2, 1]))
        assert len(journal) == 1
        journal.commit(entry)
        assert len(journal) == 0
        journal.close()
        assert (tmp_path / JOURNAL_NAME).read_bytes() == b""

    def test_uncommitted_survive_reopen(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        done = journal.begin(_req([3, 2, 1]))
        journal.commit(done)
        pending = journal.begin(_req([9, 9, 9], machines=2))
        del journal  # crash: no close, no checkpoint
        reopened = WriteAheadJournal(tmp_path)
        open_entries = reopened.uncommitted()
        assert [e.entry_id for e in open_entries] == [pending.entry_id]
        assert open_entries[0].request.times == (9, 9, 9)
        reopened.close()

    def test_aborted_entries_do_not_replay(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        entry = journal.begin(_req([5, 5]))
        journal.abort(entry)
        journal.close()
        reopened = WriteAheadJournal(tmp_path)
        assert reopened.uncommitted() == []
        reopened.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        kept = journal.begin(_req([4, 4, 4]))
        journal.begin(_req([6, 6, 6]))
        del journal
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(path.read_bytes()[:-7])  # crash mid-append
        reopened = WriteAheadJournal(tmp_path)
        assert reopened.torn_tail
        assert [e.entry_id for e in reopened.uncommitted()] == [kept.entry_id]
        reopened.close()

    def test_mid_file_damage_raises(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        journal.begin(_req([4, 4, 4]))
        journal.begin(_req([6, 6, 6]))
        journal.close()  # checkpoint keeps both open entries
        path = tmp_path / JOURNAL_NAME
        data = bytearray(path.read_bytes())
        data[5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RecordError):
            WriteAheadJournal(tmp_path)

    def test_concurrent_begin_commit(self, tmp_path):
        """Solve threads journal concurrently: every entry gets its own
        id, no mark is lost, begins reach the file in sequence order, and
        the file replays to no open entries."""
        journal = WriteAheadJournal(tmp_path)
        entry_ids: list[str] = []

        def run_pairs(thread: int) -> None:
            for i in range(50):
                entry = journal.begin(_req([thread + 1, i + 1, 7]))
                entry_ids.append(entry.entry_id)
                journal.commit(entry)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run_pairs, args=(t,)) for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = journal.stats()
        assert len(entry_ids) == len(set(entry_ids)) == 400
        assert stats["begins"] == stats["commits"] == 400
        lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
        begun = [
            int(record["id"].split("-")[0])
            for record in map(decode_record, lines)
            if record["kind"] == "begin"
        ]
        assert begun == sorted(begun) and len(begun) == 400
        replayed = WriteAheadJournal(tmp_path)  # reads the file as appended
        assert len(replayed) == 0
        replayed.close()
        journal.close()

    def test_sequence_continues_across_reopen(self, tmp_path):
        journal = WriteAheadJournal(tmp_path)
        first = journal.begin(_req([1, 2]))
        journal.close()
        reopened = WriteAheadJournal(tmp_path)
        second = reopened.begin(_req([3, 4]))
        reopened.close()
        assert int(second.entry_id.split("-")[0]) > int(first.entry_id.split("-")[0])


class TestCacheIntegration:
    def test_permuted_duplicate_served_from_disk_remapped(self, tmp_path):
        """Satellite: a result persisted under one job permutation must be
        returned correctly remapped for a permuted duplicate — through a
        *fresh* cache + store (simulated restart) — and the remapped
        schedule must pass full verification."""
        times = [13, 2, 8, 8, 5, 11, 3, 7]
        request = _req(times, machines=3, engine="ptas")
        result = solve_to_result(request)
        cache = ResultCache(max_entries=16, store=ResultStore(tmp_path))
        assert cache.put(request, result)
        cache.store.close()

        permuted = _req(list(reversed(times)), machines=3, engine="ptas")
        fresh = ResultCache(max_entries=16, store=ResultStore(tmp_path))
        hit = fresh.get(permuted)
        assert hit is not None and hit.cached
        assert hit.makespan == result.makespan
        inst = permuted.instance()
        assert verify_schedule(hit.schedule(inst), inst).ok
        stats = fresh.stats()
        fresh.store.close()
        assert stats["misses"] == 1  # memory tier missed
        assert stats["disk_hits"] == 1  # durable tier answered

    def test_disk_hit_is_promoted_to_memory(self, tmp_path):
        request, stored = _solved([6, 4, 2], machines=2)
        with ResultStore(tmp_path) as store:
            store.put(canonical_key(request), stored)
            cache = ResultCache(max_entries=16, store=store)
            assert cache.get(request) is not None  # disk hit, promoted
            assert cache.get(request) is not None  # now a memory hit
            stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["disk_hits"] == 1

    def test_write_through_and_stats_prefix(self, tmp_path):
        request = _req([5, 4, 3], machines=2)
        result = solve_to_result(request)
        with ResultStore(tmp_path) as store:
            cache = ResultCache(max_entries=16, store=store)
            cache.put(request, result)
            stats = cache.stats()
        assert stats["disk_puts"] == 1
        for key in (
            "disk_hits",
            "disk_misses",
            "disk_evictions",
            "disk_expirations",
            "disk_entries",
        ):
            assert key in stats

    def test_store_only_cache_serves_with_memory_disabled(self, tmp_path):
        request = _req([7, 3, 3], machines=2)
        result = solve_to_result(request)
        with ResultStore(tmp_path) as store:
            cache = ResultCache(max_entries=0, store=store)
            assert cache.put(request, result)
            hit = cache.get(request)
        assert hit is not None and hit.cached


class TestServiceIntegration:
    def test_service_archives_traces_into_store(self, tmp_path):
        """``serve --store DIR --archive-traces``: each solve's trace is
        durably archived under its request id and survives a restart."""
        import asyncio

        from repro.obs import payload_to_trace
        from repro.service.server import SolveService

        async def scenario():
            svc = SolveService(store_root=tmp_path, archive_traces=True)
            try:
                result = await svc.handle(
                    _req([7, 6, 5, 4, 3], engine="ptas", request_id="t-1")
                )
                snap = await svc.stats()
            finally:
                await svc.aclose()
            return result, snap

        result, snap = asyncio.run(scenario())
        assert result.ok
        assert snap["counters"]["traces_archived"] == 1
        assert "store.entries" in snap["gauges"]
        with ResultStore(tmp_path) as reopened:
            assert reopened.trace_names() == ["t-1"]
            payload = reopened.load_archived_trace("t-1")
        trace = payload_to_trace(payload)
        assert any(span.kind == "solve" for span in trace.spans)


def test_store_root_is_self_contained(tmp_path):
    """Everything the store writes stays under its root directory."""
    request, stored = _solved([3, 2, 1], machines=2)
    with ResultStore(tmp_path / "store") as store:
        store.put(canonical_key(request), stored)
    journal = WriteAheadJournal(tmp_path / "store")
    journal.begin(request)
    journal.close()
    assert {p.name for p in (tmp_path / "store").iterdir()} == {
        "segments",
        JOURNAL_NAME,
    }
    assert isinstance(tmp_path, Path)
