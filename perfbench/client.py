"""The benchmark's own load generator for ``repro-pcmax serve``.

A closed loop over persistent JSON-lines connections: each connection
sends its next request only after the previous answer arrived.  Request
lines are encoded before the timed window; answers are kept as raw
bytes with their send/receive timestamps and decoded after it.  Servers
are launched as child processes whose output is drained by a thread,
so the moment the server reports its port is seen without polling.
"""

from __future__ import annotations

import asyncio
import json
import queue
import socket
import subprocess
import threading
import time

HOST = "127.0.0.1"
#: Seconds any single wait on a server may take before the run fails.
TIMEOUT = 120.0


class Launch:
    """One program process, its drained output and its start time."""

    def __init__(self, argv: list[str], env: dict, cwd: str) -> None:
        self.argv = argv
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.log: list[str] = []
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def first_line(self, prefix: str) -> str:
        """Block until the process prints a line starting with *prefix*."""
        deadline = time.monotonic() + TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(
                    f"{' '.join(self.argv)} never printed {prefix!r}:\n{''.join(self.log)}")
            if line.startswith(prefix):
                return line

    def wait(self) -> int:
        try:
            code = self.proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=TIMEOUT)
        self.proc.stdout.close()
        return code

    def stop(self) -> None:
        """Terminate (graceful SIGTERM, then SIGKILL) and reap."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.wait()


class Server(Launch):
    """``repro-pcmax serve`` on an ephemeral port."""

    def __init__(self, serve_args: list[str], env: dict, cwd: str, python: str) -> None:
        super().__init__([python, "-m", "repro", "serve", "--port", "0", *serve_args],
                         env, cwd)
        try:
            line = self.first_line("repro service listening on ")
        except RuntimeError:
            self.stop()
            raise
        self.port = int(line.split()[4].split(":")[1])

    def op(self, name: str) -> dict:
        """One control op over a fresh blocking connection."""
        with socket.create_connection((HOST, self.port), timeout=TIMEOUT) as sock:
            sock.sendall(json.dumps({"op": name}).encode() + b"\n")
            with sock.makefile("rb") as reader:
                reply = reader.readline()
        if not reply:
            raise RuntimeError(f"server closed the connection on op={name}")
        return json.loads(reply)

    def shutdown(self) -> None:
        """The graceful ``shutdown`` op, then wait for the process to end."""
        if self.op("shutdown").get("op") != "bye":
            raise RuntimeError("server did not acknowledge shutdown")
        if self.wait() != 0:
            raise RuntimeError(f"server exited non-zero:\n{''.join(self.log)}")


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing for pid {pid}")


async def _closed_loop(port: int, lines: list[bytes], connections: int):
    streams = [await asyncio.open_connection(HOST, port, limit=1 << 24)
               for _ in range(connections)]
    records: list[tuple[float, float, bytes] | None] = [None] * len(lines)
    cursor = iter(range(len(lines)))

    async def lane(reader, writer) -> None:
        for index in cursor:
            sent = time.perf_counter()
            try:
                writer.write(lines[index])
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), TIMEOUT)
            except (ConnectionError, asyncio.TimeoutError):
                raw = b""
            records[index] = (sent, time.perf_counter(), raw)
            if not raw:
                return  # a dropped connection: its remaining share goes unanswered

    try:
        start = time.perf_counter()
        await asyncio.gather(*(lane(r, w) for r, w in streams))
        window = time.perf_counter() - start
    finally:
        for _, writer in streams:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return window, records


def closed_loop(port: int, lines: list[bytes], connections: int = 2):
    """Send *lines* over *connections* persistent connections, one
    request in flight per connection.  Returns the window's wall
    seconds and, per line, ``(sent, answered, raw answer)`` or ``None``
    for lines never answered (a connection the server dropped)."""
    return asyncio.run(_closed_loop(port, lines, connections))
