"""Write-ahead journal: crash consistency for the scheduling service.

The service journals every :class:`SolveRequest` it solves when the
solve starts, on the solving thread, before the engine runs, and marks
it finished *after* a response was determined::

    {"kind": "begin",  "id": "00000001-5f2a…", "request": {...}, "crc": …}
    {"kind": "commit", "id": "00000001-5f2a…", "crc": …}

(``abort`` is the third mark — written when replaying an entry fails,
so a poison request cannot crash the service on every restart.)

An entry with a ``begin`` but neither ``commit`` nor ``abort`` is
*uncommitted*: the process died between the solve's start and its
response.  On startup, :func:`repro.store.recovery.recover` re-solves
exactly those entries into the result store, which is what turns "the
cache died with the process" into "the service restarts warm and owes
no client an answer it already started".

Properties:

* ``begin`` is fsync'd before it returns — a request the solver ever
  saw is on disk;
* marks are idempotent and the file is append-only, so a crash at any
  byte leaves at worst one torn final line (tolerated by the record
  layer, it is the one write the crash interrupted);
* a clean :meth:`close` with nothing uncommitted truncates the file, so
  a graceful shutdown leaves an *empty* journal — the invariant the
  SIGTERM test pins.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.io.atomic import append_line, atomic_write, fsync_dir
from repro.service.requests import SolveRequest
from repro.store.records import RecordError, decode_record, encode_record
from repro.store.resultstore import key_address

#: Journal file name inside a store root.
JOURNAL_NAME = "journal.jsonl"

#: Request fields that journals written by earlier code carry and
#: requests no longer accept: ``dp_engine`` (release 1.0.0) and ``mode``
#: (1.0.0 until its removal).  Replay drops them, so a crash journal of
#: any release still recovers, re-solved by the one bisection on the
#: kernel.
_REMOVED_REQUEST_FIELDS = ("dp_engine", "mode")


def worker_journal_name(worker_id: int) -> str:
    """Journal file name owned by pool worker *worker_id*.

    Each worker process of the sharded solver pool journals its own
    admitted requests into its own file (``journal-w3.jsonl``), so the
    begin-fsync-before-solve guarantee never crosses a process boundary.
    :func:`repro.store.recovery.recover_all` replays every journal in a
    store root, whichever process wrote it.
    """
    return f"journal-w{int(worker_id)}.jsonl"


def list_journals(root: str | Path) -> list[Path]:
    """Every journal file in a store root (supervisor's plus any
    per-worker ones), sorted by name."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        p
        for p in root.iterdir()
        if p.is_file()
        and p.name.endswith(".jsonl")
        and p.name.startswith("journal")
    )


@dataclass(frozen=True)
class JournalEntry:
    """One admitted request as recorded in the journal."""

    entry_id: str
    request: SolveRequest


class WriteAheadJournal:
    """Append-only begin/commit log of admitted solve requests.

    Thread-safe: a service lane's solve threads begin, commit and abort
    entries concurrently, so sequence numbers, the open-entry map and
    the appends are taken under one lock.

    ``name`` selects the journal file inside *root*; pool workers pass
    :func:`worker_journal_name` so each process owns its file alone.
    """

    def __init__(self, root: str | Path, *, name: str = JOURNAL_NAME) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / name
        self.torn_tail = False
        self._open_entries: dict[str, SolveRequest] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self.begins = 0
        self.commits = 0
        self.aborts = 0
        self._replay_file()
        self._fh = open(self.path, "ab")
        self._fh.seek(0, os.SEEK_END)

    def _replay_file(self) -> None:
        """Rebuild the open-entry set from the journal's surviving lines."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            lines = fh.readlines()
        for i, raw in enumerate(lines):
            try:
                record = decode_record(raw.decode("utf-8", errors="replace"))
            except RecordError as exc:
                if i == len(lines) - 1 and exc.torn:
                    self.torn_tail = True
                    continue
                raise RecordError(
                    f"{self.path}: corrupt journal line {i + 1}: {exc}"
                ) from None
            kind = record.get("kind")
            entry_id = str(record.get("id", ""))
            if kind == "begin":
                request = dict(record["request"])
                for name in _REMOVED_REQUEST_FIELDS:
                    request.pop(name, None)
                self._open_entries[entry_id] = SolveRequest.from_dict(request)
            elif kind in ("commit", "abort"):
                self._open_entries.pop(entry_id, None)
            seq = entry_id.split("-", 1)[0]
            if seq.isdigit():
                self._seq = max(self._seq, int(seq))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def begin(self, request: SolveRequest) -> JournalEntry:
        """Durably record an admitted request; returns its entry."""
        from repro.service.cache import canonical_key

        address = key_address(canonical_key(request))[:12]
        with self._lock:
            self._seq += 1
            entry_id = f"{self._seq:08d}-{address}"
            append_line(
                self._fh,
                encode_record(
                    "begin", {"id": entry_id, "request": request.to_dict()}
                ),
            )
            self._open_entries[entry_id] = request
            self.begins += 1
        return JournalEntry(entry_id=entry_id, request=request)

    def _mark(self, entry: JournalEntry, kind: str) -> None:
        with self._lock:
            if entry.entry_id in self._open_entries:  # idempotent
                append_line(self._fh, encode_record(kind, {"id": entry.entry_id}))
                self._open_entries.pop(entry.entry_id)
            if kind == "commit":
                self.commits += 1
            else:
                self.aborts += 1

    def commit(self, entry: JournalEntry) -> None:
        """Mark an entry answered; it will never replay."""
        self._mark(entry, "commit")

    def abort(self, entry: JournalEntry) -> None:
        """Mark an entry permanently failed (poison); it will never
        replay again."""
        self._mark(entry, "abort")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def uncommitted(self) -> list[JournalEntry]:
        """Entries begun but neither committed nor aborted, oldest first."""
        with self._lock:
            entries = sorted(self._open_entries.items())
        return [JournalEntry(entry_id=eid, request=req) for eid, req in entries]

    def __len__(self) -> int:
        return len(self._open_entries)

    def stats(self) -> dict[str, Any]:
        """Counter snapshot plus the current uncommitted backlog."""
        return {
            "begins": self.begins,
            "commits": self.commits,
            "aborts": self.aborts,
            "uncommitted": len(self._open_entries),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Rewrite the journal keeping only open entries (atomic).

        Called after recovery has drained the backlog and on clean
        shutdown — a journal that only ever grows would replay history
        forever.
        """
        with self._lock:
            self._fh.close()
            lines = [
                encode_record("begin", {"id": eid, "request": req.to_dict()})
                for eid, req in sorted(self._open_entries.items())
            ]
            data = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
            atomic_write(self.path, data)
            self._fh = open(self.path, "ab")
            self._fh.seek(0, os.SEEK_END)

    def close(self) -> None:
        """Flush, checkpoint, and close — a clean exit with no open
        entries leaves an empty journal file."""
        self.checkpoint()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        fsync_dir(self.root)
