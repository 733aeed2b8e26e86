"""Open-loop HTTP/1.1 load generator over a few keep-alive connections.

The schedule is fixed before the run: every operation has a *due* time
relative to the start. A dispatcher hands each operation to a shared
queue at its due time, whatever the server is doing, and a handful of
connection workers drain the queue. Latency is measured from the due
time, so time spent queued behind a slow server counts (no coordinated
omission). The dispatcher's own lateness (handing an operation over
after its due time) is recorded separately: it is the generator's
health, not the server's.
"""

from __future__ import annotations

import asyncio
import gc
import json
from dataclasses import dataclass, field


@dataclass
class Op:
    """One scheduled request and, after the run, its outcome."""

    due: float
    kind: str
    step: str
    method: str
    path: str
    body: bytes
    meta: dict = field(default_factory=dict)
    sent: float = float("nan")
    done: float = float("nan")
    status: int = 0
    payload: object = None
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


class Connection:
    """A minimal keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(
        self, method: str, path: str, body: bytes = b"",
        content_type: str = "application/json",
    ) -> tuple[int, bytes]:
        await self._ensure()
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            raw = await self._reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            length = 0
            close = False
            for line in lines[1:]:
                key, _, value = line.partition(":")
                key = key.strip().lower()
                if key == "content-length":
                    length = int(value.strip())
                elif key == "connection":
                    close = value.strip().lower() == "close"
            payload = await self._reader.readexactly(length) if length else b""
        except BaseException:
            await self.close()
            raise
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def run_schedule(
    host: str, port: int, ops: list[Op], n_connections: int, origin: float
) -> float:
    """Run *ops* open-loop; each op gets sent/done/status filled in.

    *ops* are due relative to the run's start. All times are recorded
    in seconds since *origin*, a ``time.monotonic()`` reading, so that
    several runs share one clock; each op's due time is moved onto that
    clock too. Returns the run's start on it.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue[Op | None] = asyncio.Queue()
    connections = [Connection(host, port) for _ in range(n_connections)]
    for conn in connections:  # connect before the clock starts
        await conn._ensure()

    async def worker(conn: Connection) -> None:
        while True:
            op = await queue.get()
            if op is None:
                return
            try:
                op.status, op.payload = await conn.request(op.method, op.path, op.body)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            op.done = loop.time() - origin

    # A collection of the harness's large heap would stall the
    # dispatcher mid-run; the run allocates little, so collect once
    # before the clock starts and not again until it stops.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        start = loop.time() + 0.05 - origin
        for op in ops:
            op.due += start
        workers = [asyncio.create_task(worker(conn)) for conn in connections]
        for op in sorted(ops, key=lambda o: o.due):
            delay = origin + op.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            op.sent = loop.time() - origin
            queue.put_nowait(op)
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        gc.enable()
        gc.unfreeze()
    # Responses are decoded after the clock stops, off the client's
    # critical path.
    for op in ops:
        raw, op.payload = op.payload, None
        if raw is not None and raw.strip():
            try:
                op.payload = json.loads(raw)
            except ValueError as exc:
                op.error = f"{type(exc).__name__}: {exc}"
    for conn in connections:
        await conn.close()
    return start


async def simple_request(
    host: str, port: int, method: str, path: str, body: bytes = b"",
    content_type: str = "application/json",
) -> tuple[int, bytes]:
    """One request on a fresh connection (control-plane calls)."""
    conn = Connection(host, port)
    try:
        return await conn.request(method, path, body, content_type)
    finally:
        await conn.close()
