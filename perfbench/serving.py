"""The serving workloads: a real ``python -m repro.service --serve`` process.

The server runs as its own process with ``--pool-workers 2`` and a
fresh ``--cache-dir`` per set-up.  Load comes from this process over at
most :data:`CONNECTIONS` keep-alive HTTP/1.1 connections, through the
small asyncio client below (the server's own client opens a connection
per request, which would time connection set-up instead of serving).

Response bodies are kept as bytes while a phase runs and decoded and
checked after it, so the load generator's JSON decoding never delays
the other connection's timing.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "CONNECTIONS",
    "OPEN_LOOP_RATE",
    "POOL_WORKERS",
    "Request",
    "Sent",
    "Server",
    "closed_loop",
    "open_loop",
    "server_stats",
]

#: Worker processes in the server's pool, and client connections.
POOL_WORKERS = 2
CONNECTIONS = 2

#: Open-loop arrival rate of serve_hot, requests per second: half the
#: closed-loop capacity the parent commit showed on the same mix (about
#: 20 requests/s over 2 connections, 2 vCPUs, Intel Xeon).  Fixed, so
#: every commit is measured at the same offered load.
OPEN_LOOP_RATE = 10.0

#: Seconds a request may wait for its answer before it counts as failed.
#: A request takes well under a second even on a busy host; the bound
#: keeps a lost answer from holding a run past its time limit.
REPLY_TIMEOUT = 30.0
#: ``GET /stats`` leaves out a worker that does not answer within its own
#: 2 s; it is asked again this many times until every worker is counted.
STATS_ATTEMPTS = 10

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


@dataclass
class Request:
    """One generated request: its class, seed, shots and wire body."""

    index: int
    label: str
    seed: int
    shots: int
    record: Dict
    body: bytes


@dataclass
class Sent:
    """One request as the client saw it."""

    request: Request
    status: int
    body: bytes
    latency: float
    late: float = 0.0


class Server:
    """``python -m repro.service --serve`` as a child process."""

    def __init__(self, src: str, cache_dir: str):
        self.src = src
        self.cache_dir = cache_dir
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None

    def start(self, timeout: float = 60.0) -> "Server":
        env = dict(os.environ, PYTHONPATH=self.src)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--serve",
                "--host", self.host, "--port", "0",
                "--pool-workers", str(POOL_WORKERS),
                "--cache-dir", self.cache_dir,
            ],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report a listening port")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError("server exited before listening")
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(2))
                return self

    def _drain_stderr(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for line in self.process.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the group if it lingers."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.process = None


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self, method: str, path: str, body: bytes = b"", timeout: float = REPLY_TIMEOUT
    ) -> Tuple[int, bytes]:
        """Send one request; ``(0, b"")`` when the connection failed."""
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body), timeout=timeout
            )
        except (
            OSError, IndexError, ValueError, asyncio.IncompleteReadError, asyncio.TimeoutError
        ):
            await self.close()
            return 0, b""

    async def _exchange(self, method: str, path: str, body: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            await self._open()
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        data = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, data

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def closed_loop(
    connections: List[Connection], requests: List[Request]
) -> Tuple[List[Sent], float]:
    """Each connection sends its next request when the previous returns.

    Returns what was sent and the seconds the whole sequence took.
    """
    sent: List[Sent] = []
    pending = iter(requests)
    start = time.perf_counter()

    async def client(connection: Connection) -> None:
        for request in pending:
            begin = time.perf_counter()
            status, body = await connection.request("POST", "/v1/sample", request.body)
            sent.append(Sent(request, status, body, time.perf_counter() - begin))

    await asyncio.gather(*(client(c) for c in connections))
    return sent, time.perf_counter() - start


async def open_loop(
    connections: List[Connection], requests: List[Request], offsets: List[float]
) -> List[Sent]:
    """Send on a fixed schedule; latency is timed from when a request was due.

    A request waits in the client queue while both connections are busy;
    that wait is part of its latency.  ``Sent.late`` is how far behind
    schedule the generator itself put the request in the queue.
    """
    sent: List[Sent] = []
    work: "asyncio.Queue[Optional[Tuple[Request, float, float]]]" = asyncio.Queue()
    start = time.perf_counter()

    async def generator() -> None:
        for request, offset in zip(requests, offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            work.put_nowait((request, due, time.perf_counter() - due))
        for _ in connections:
            work.put_nowait(None)

    async def client(connection: Connection) -> None:
        while True:
            item = await work.get()
            if item is None:
                return
            request, due, late = item
            status, body = await connection.request("POST", "/v1/sample", request.body)
            sent.append(Sent(request, status, body, time.perf_counter() - due, late))

    await asyncio.gather(generator(), *(client(c) for c in connections))
    return sent


def poisson_offsets(count: int, rate: float, rng: np.random.Generator) -> List[float]:
    """Arrival times of a Poisson process, starting at 0."""
    gaps = rng.exponential(1.0 / rate, size=count)
    gaps[0] = 0.0
    return [float(x) for x in np.cumsum(gaps)]


async def server_stats(connection: Connection) -> Dict[str, float]:
    """Counters summed over the pool's workers, from ``GET /stats``."""
    for _ in range(STATS_ATTEMPTS):
        status, body = await connection.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        pool = json.loads(body)["pool"]
        workers = [w for w in pool.get("workers") or [] if w]
        if len(workers) == POOL_WORKERS:
            break
    else:
        raise RuntimeError(f"/stats counted {len(workers)} of {POOL_WORKERS} workers")
    total = {
        name: float(sum(w.get(name, 0) for w in workers))
        for name in ("builds", "coalesced", "cache_memory_hits", "requests")
    }
    total["store_bytes"] = float(
        max([(w.get("store") or {}).get("bytes", 0) for w in workers] or [0])
    )
    for name in ("shard_memory_hits", "completed", "shed", "dispatched"):
        total[name] = float(pool.get(name, 0))
    return total


def decode(sent: Sent) -> Optional[Dict]:
    """The response record of a 200 answer, or ``None``."""
    if sent.status != 200:
        return None
    try:
        record = json.loads(sent.body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def response_ok(sent: Sent, record: Optional[Dict]) -> bool:
    """HTTP 200, status ``ok``, and the counts add up to the shots asked."""
    if record is None or record.get("status") != "ok":
        return False
    counts = record.get("counts")
    return isinstance(counts, dict) and sum(counts.values()) == sent.request.shots


def body_of(record: Dict) -> bytes:
    return json.dumps(record).encode("utf-8")
