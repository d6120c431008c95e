"""Crash recovery end-to-end tests (:mod:`repro.store.recovery`).

The acceptance scenario of the durability subsystem: a server killed
mid-flight (SIGKILL, no cleanup) leaves a write-ahead journal with
uncommitted entries; a restart against the same ``--store`` directory
replays them; the recovered results byte-match a fresh solve's canonical
form and every recovered schedule passes full verification.  A second
scenario corrupts a segment on disk and demands ``repro-pcmax store
verify`` detect and quarantine it.

Unit tests drive :func:`repro.store.recover` in-process with stub
solvers; the e2e tests boot the real CLI server in a subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.model.verify import verify_schedule
from repro.service.cache import canonical_key, canonicalize_result, localize_result
from repro.service.registry import solve_to_result
from repro.service.requests import SolveRequest, SolveResult
from repro.store import (
    ResultStore,
    WriteAheadJournal,
    recover,
    recover_all,
    result_fingerprint,
    worker_journal_name,
)
from repro.store.journal import JOURNAL_NAME
from repro.store.records import encode_record
from repro.store.segment import QUARANTINE_SUFFIX, list_segments

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

#: Pinned instance whose PTAS solve takes a couple of seconds at
#: ``eps=0.12`` — long enough that a SIGKILL lands between the journal
#: ``begin`` and the solve finishing, deterministic enough to re-solve
#: for the byte-match.
SLOW_TIMES = (
    132, 49, 21, 43, 169, 28, 191, 197, 41, 45,
    110, 80, 24, 27, 24, 108, 185, 179, 143, 177,
    138, 58, 43, 66, 49, 23, 148, 144, 83, 36,
    190, 158, 139, 37, 173, 192, 42, 151, 168, 31,
)  # fmt: skip


def _slow_request(request_id: str = "crash-1") -> SolveRequest:
    return SolveRequest(
        times=SLOW_TIMES,
        machines=6,
        engine="ptas",
        eps=0.12,
        request_id=request_id,
    )


def _req(times, machines=2, engine="lpt", **kwargs) -> SolveRequest:
    return SolveRequest(times=tuple(times), machines=machines, engine=engine, **kwargs)


# ----------------------------------------------------------------------
# recover() unit tests (stub solvers, no subprocess)
# ----------------------------------------------------------------------
class TestRecoverUnit:
    def test_replays_uncommitted_entry(self, tmp_path):
        request = _req([9, 7, 5, 5, 3, 2], engine="ptas")
        journal = WriteAheadJournal(tmp_path)
        journal.begin(request)
        del journal  # crash

        store = ResultStore(tmp_path)
        reopened = WriteAheadJournal(tmp_path)
        report = recover(store, reopened)
        assert report.ok
        assert report.entries == 1 and report.replayed == 1
        stored = store.get(canonical_key(request))
        assert stored is not None
        # Byte-for-byte identical to a fresh solve's canonical form.
        fresh = canonicalize_result(request, solve_to_result(request))
        assert result_fingerprint(stored) == result_fingerprint(fresh)
        assert reopened.uncommitted() == []
        reopened.close()
        store.close()
        assert (tmp_path / JOURNAL_NAME).read_bytes() == b""

    def test_legacy_journal_entry_replays_with_the_kernel(self, tmp_path):
        # A crash journal of release 1.0.0: every begin record carries
        # the since-removed ``dp_engine`` field.
        legacy = {
            "times": [9, 8, 7, 6, 5, 5, 4, 3, 2, 1], "machines": 3,
            "problem": "p_cmax", "speeds": [], "protocol": 2,
            "engine": "ptas", "eps": 0.3, "deadline": None,
            "dp_engine": "dominance", "workers": 4, "backend": "thread",
            "mode": "wavefront", "time_limit": None, "request_id": "old-1",
        }
        (tmp_path / JOURNAL_NAME).write_text(
            encode_record("begin", {"id": "00000001-0123456789ab", "request": legacy})
            + "\n"
        )
        store = ResultStore(tmp_path)
        journal = WriteAheadJournal(tmp_path)
        [entry] = journal.uncommitted()
        assert entry.request.times == tuple(legacy["times"])
        report = recover(store, journal)
        assert report.ok and report.replayed == 1
        stored = store.get(canonical_key(entry.request))
        journal.close()
        store.close()
        # The re-solve is the kernel's table witness (makespan 17), not
        # the dominance engine's (18).
        from repro.core.ptas import ptas

        table = ptas(entry.request.instance(), 0.3, engine="table")
        assert stored.makespan == table.makespan == 17
        served = localize_result(entry.request, stored)
        assert sorted(map(sorted, served.assignment)) == sorted(
            map(sorted, table.schedule.assignment)
        )

    def test_mode_journal_entry_replays_with_the_wavefront_search(self, tmp_path):
        # A crash journal of the release before ``mode`` left requests:
        # no ``dp_engine``, but every begin record carries ``mode``.
        # Under ``mode="speculative"`` this request was answered with
        # makespan 106; the one bisection answers 101 (= OPT).
        journaled = {
            "times": [22, 1, 19, 73, 6, 57, 17, 44, 2, 93, 62, 86, 85],
            "machines": 6, "problem": "p_cmax", "speeds": [], "protocol": 2,
            "engine": "parallel_ptas", "eps": 0.3, "deadline": None,
            "workers": 2, "backend": "serial", "mode": "speculative",
            "time_limit": None, "request_id": "spec-1",
        }
        (tmp_path / JOURNAL_NAME).write_text(
            encode_record(
                "begin", {"id": "00000001-0123456789ab", "request": journaled}
            )
            + "\n"
        )
        store = ResultStore(tmp_path)
        journal = WriteAheadJournal(tmp_path)
        [entry] = journal.uncommitted()
        assert entry.request.workers == 2
        report = recover(store, journal)
        assert report.ok and report.replayed == 1
        stored = store.get(canonical_key(entry.request))
        journal.close()
        store.close()
        from repro.core.ptas import parallel_ptas

        wavefront = parallel_ptas(
            entry.request.instance(), 0.3, 2, backend="serial"
        )
        assert stored.makespan == wavefront.makespan == 101
        served = localize_result(entry.request, stored)
        assert sorted(map(sorted, served.assignment)) == sorted(
            map(sorted, wavefront.schedule.assignment)
        )

    def test_already_stored_entry_is_committed_without_solving(self, tmp_path):
        request = _req([4, 4, 2], engine="lpt")
        key = canonical_key(request)
        store = ResultStore(tmp_path)
        store.put(key, canonicalize_result(request, solve_to_result(request)))
        journal = WriteAheadJournal(tmp_path)
        journal.begin(request)

        def must_not_solve(_req: SolveRequest) -> SolveResult:
            raise AssertionError("recovery re-solved an already-stored entry")

        report = recover(store, journal, solve=must_not_solve)
        assert report.ok
        assert report.already_stored == 1 and report.replayed == 0
        journal.close()
        store.close()

    def test_poison_entry_is_aborted_not_looped(self, tmp_path):
        request = _req([5, 5, 5], engine="lpt")
        journal = WriteAheadJournal(tmp_path)
        journal.begin(request)

        def boom(_req: SolveRequest) -> SolveResult:
            raise RuntimeError("engine exploded")

        store = ResultStore(tmp_path)
        report = recover(store, journal, solve=boom)
        assert not report.ok
        assert len(report.aborted) == 1 and "exploded" in report.aborted[0]
        # The abort is durable: a second recovery pass sees nothing.
        journal.close()
        rejournal = WriteAheadJournal(tmp_path)
        second = recover(store, rejournal, solve=boom)
        assert second.entries == 0
        rejournal.close()
        store.close()

    def test_failed_solve_status_is_aborted(self, tmp_path):
        request = _req([1, 2, 3], engine="lpt")
        journal = WriteAheadJournal(tmp_path)
        journal.begin(request)

        def errored(req: SolveRequest) -> SolveResult:
            return SolveResult(status="error", request_id=req.request_id, error="nope")

        store = ResultStore(tmp_path)
        report = recover(store, journal, solve=errored)
        assert not report.ok and len(report.aborted) == 1
        assert store.get(canonical_key(request)) is None
        journal.close()
        store.close()


class TestRecoverAllTornJournal:
    """A pool crash can tear one worker's journal mid-write while its
    sibling's is intact; ``recover_all`` must replay the clean journal
    and tolerate the torn tail instead of refusing the whole root."""

    def test_clean_journal_replays_while_torn_tail_is_tolerated(self, tmp_path):
        clean_request = _req([9, 7, 5, 5, 3, 2], engine="ptas")
        committed_request = _req([4, 4, 2], engine="lpt")
        torn_request = _req([8, 6, 6, 1], engine="lpt")

        # Worker 0: one admitted-but-unanswered entry (the crash victim).
        clean = WriteAheadJournal(tmp_path, name=worker_journal_name(0))
        clean.begin(clean_request)
        del clean  # crash: no commit, no close

        # Worker 1: one full begin/commit cycle, then a begin whose
        # journal line the crash cut short (a mid-write tear).
        torn = WriteAheadJournal(tmp_path, name=worker_journal_name(1))
        entry = torn.begin(committed_request)
        torn.commit(entry)
        torn.begin(torn_request)
        del torn
        torn_path = tmp_path / worker_journal_name(1)
        data = torn_path.read_bytes()
        torn_path.write_bytes(data[:-20])  # tear the last record mid-line

        # The torn journal opens flagged but functional: the cut line is
        # dropped (it never became a durable fact), nothing is pending.
        probe = WriteAheadJournal(tmp_path, name=worker_journal_name(1))
        assert probe.torn_tail
        assert probe.uncommitted() == []
        del probe  # no close: leave the torn bytes for recover_all

        store = ResultStore(tmp_path)
        report = recover_all(store, tmp_path)
        assert report.ok, report.aborted
        # Only worker 0's entry is recoverable; the torn line never
        # reached the disk as a fact, so it is not replayed (the client
        # never got an admission for it either — fsync orders begin
        # before the solve starts).
        assert report.entries == 1 and report.replayed == 1
        assert store.get(canonical_key(clean_request)) is not None
        assert store.get(canonical_key(torn_request)) is None
        store.close()

        # Recovery's checkpoint compacted the torn journal: it reopens
        # clean, with the torn bytes gone for good.
        reopened = WriteAheadJournal(tmp_path, name=worker_journal_name(1))
        assert not reopened.torn_tail
        assert reopened.uncommitted() == []
        reopened.close()

    def test_mid_file_tear_is_not_tolerated(self, tmp_path):
        """Only a *tail* tear is crash-consistent; damage before the
        last line means something other than a crash wrote the file."""
        journal = WriteAheadJournal(tmp_path, name=worker_journal_name(0))
        entry = journal.begin(_req([4, 4, 2]))
        journal.commit(entry)
        journal.begin(_req([5, 5, 5]))
        del journal
        path = tmp_path / worker_journal_name(0)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:-10] + b"\n"  # corrupt a non-final record
        path.write_bytes(b"".join(lines))
        with pytest.raises(Exception):
            WriteAheadJournal(tmp_path, name=worker_journal_name(0))


# ----------------------------------------------------------------------
# Subprocess helpers
# ----------------------------------------------------------------------
def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_server(store_dir: Path, port: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--store",
            str(store_dir),
            "--log-interval",
            "0",
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_port(port: int, proc: subprocess.Popen, timeout: float = 180.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early ({proc.returncode}): {proc.stdout.read()}"
            )
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"server on port {port} never came up")


def _send_line(port: int, payload: str) -> socket.socket:
    """Send one protocol line and return the open socket (caller reads
    or abandons it)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.sendall(payload.encode("utf-8") + b"\n")
    return sock


def _shutdown(port: int, proc: subprocess.Popen) -> int:
    with _send_line(port, json.dumps({"op": "shutdown"})) as sock:
        sock.settimeout(30.0)
        sock.makefile().readline()
    return proc.wait(timeout=60.0)


# ----------------------------------------------------------------------
# The acceptance e2e: SIGKILL mid-flight, restart, replay, byte-match
# ----------------------------------------------------------------------
class TestCrashRecoveryEndToEnd:
    def test_kill_replay_bytematch_verify(self, tmp_path):
        store_dir = tmp_path / "store"
        request = _slow_request()
        journal_path = store_dir / JOURNAL_NAME

        # --- boot, submit, and kill the server mid-solve ---------------
        port = _free_port()
        proc = _start_server(store_dir, port)
        try:
            _wait_port(port, proc)
            sock = _send_line(port, request.to_json())
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal_path.exists() and b'"begin"' in journal_path.read_bytes():
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("journal never recorded the admitted request")
            proc.send_signal(signal.SIGKILL)  # crash: no flush, no cleanup
            proc.wait(timeout=30.0)
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30.0)

        # --- the journal must hold the uncommitted entry ----------------
        journal = WriteAheadJournal(store_dir)
        uncommitted = journal.uncommitted()
        assert len(uncommitted) == 1
        assert sorted(uncommitted[0].request.times) == sorted(SLOW_TIMES)
        journal.close()  # checkpoint keeps the open entry on disk
        assert b'"begin"' in journal_path.read_bytes()

        # --- restart against the same --store: recovery must replay -----
        port2 = _free_port()
        proc2 = _start_server(store_dir, port2)
        try:
            _wait_port(port2, proc2)  # recovery runs before listening
            exit_code = _shutdown(port2, proc2)
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait(timeout=30.0)
        output = proc2.stdout.read()
        assert exit_code == 0, output
        assert "recovery: 1 uncommitted entry, 1 replayed" in output

        # --- recovered result: present, byte-identical, verified --------
        assert journal_path.read_bytes() == b""  # clean exit, empty journal
        store = ResultStore(store_dir)
        key = canonical_key(request)
        recovered = store.get(key)
        assert recovered is not None and recovered.ok

        fresh = canonicalize_result(request, solve_to_result(request))
        assert result_fingerprint(recovered) == result_fingerprint(fresh)

        localized = localize_result(request, recovered)
        inst = request.instance()
        report = verify_schedule(localized.schedule(inst), inst)
        assert report.ok, report.violations

        audit = store.verify(deep=True)
        store.close()
        assert audit.ok
        assert audit.schedules_verified >= 1


# ----------------------------------------------------------------------
# Deliberate corruption: store verify must quarantine, never serve
# ----------------------------------------------------------------------
def _populated_store(root: Path) -> SolveRequest:
    request = _req([9, 7, 5, 5, 3, 2], machines=2, engine="ptas")
    filler = _req([6, 6, 4, 1], machines=2, engine="lpt")
    with ResultStore(root) as store:
        store.put(
            canonical_key(request),
            canonicalize_result(request, solve_to_result(request)),
        )
        store.put(
            canonical_key(filler),
            canonicalize_result(filler, solve_to_result(filler)),
        )
    return request


def _run_store_verify(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "store", "verify", str(root)],
        env=_env(),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCorruptionDetection:
    @pytest.mark.parametrize("damage", ["bitflip", "truncate"])
    def test_store_verify_quarantines_damage(self, tmp_path, damage):
        request = _populated_store(tmp_path)
        segment = list_segments(tmp_path / "segments")[0]
        data = bytearray(segment.read_bytes())
        if damage == "bitflip":
            data[12] ^= 0x08  # flip one bit inside the first record
        else:
            # Mid-file truncation: splice bytes out of the first record
            # (its newline survives, so this is NOT a tolerable torn tail).
            first_newline = data.index(b"\n")
            del data[first_newline - 50 : first_newline - 10]
        segment.write_bytes(bytes(data))

        proc = _run_store_verify(tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "QUARANTINED" in proc.stdout
        quarantined = [
            p
            for p in (tmp_path / "segments").iterdir()
            if p.name.endswith(QUARANTINE_SUFFIX)
        ]
        assert quarantined, "damaged segment was not quarantined"

        # The damaged bytes are never served again.
        with ResultStore(tmp_path) as store:
            assert store.get(canonical_key(request)) is None

        # A second audit of the (now empty) store is clean.
        second = _run_store_verify(tmp_path)
        assert second.returncode == 0, second.stdout + second.stderr

    def test_clean_store_verifies_ok(self, tmp_path):
        _populated_store(tmp_path)
        proc = _run_store_verify(tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK: store is clean" in proc.stdout
        assert "2 schedule(s)" in proc.stdout
