"""The load generator: two keep-alive connections from one asyncio loop.

The box has two cores and the stack under test has three busy processes,
so the generator is one process, and it checks every reply inline with
cheap comparisons (the search oracle is memoized per query).
"""

from __future__ import annotations

import asyncio
import json
import time

CONNECTIONS = 2


class Client:
    """Keep-alive HTTP/1.1 JSON client over asyncio streams."""

    def __init__(self, port: int):
        self._port = port
        self._reader = None
        self._writer = None

    async def request(self, method: str, path: str, payload=None):
        """One round trip: ``(status, decoded body)``."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                "127.0.0.1", self._port
            )
        body = b"" if payload is None else json.dumps(payload).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if payload is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self._writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        raw = await self._reader.readexactly(length)
        return status, json.loads(raw) if raw else None

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None


class CallLog:
    """One row per call: ``[sent, received, due, items, ok, first item]``."""

    def __init__(self):
        self.calls: list[list] = []
        self._items_sent = 0

    def reserve(self, items: int) -> int:
        """Index of the first of the next ``items`` items sent; the
        indexes name items for checks that are settled after the run."""
        first = self._items_sent
        self._items_sent += items
        return first

    def fail_items(self, bad: set) -> None:
        """Take the items in ``bad`` back out of their calls' OK counts."""
        for call in self.calls:
            first, items = call[5], call[3]
            call[4] -= sum(1 for index in range(first, first + items) if index in bad)


async def send_call(client: Client, items: list, checker, log: CallLog, due=None):
    """Send ``items`` as one call, check every reply item, log the call.

    One item goes to its own route (``/v1/rewrite``, ``/v1/search``);
    several go to ``/v1/batch``.  ``due`` is the call's scheduled time
    (open loop); a closed-loop call is due when it is sent.
    """
    if len(items) == 1:
        kind, query, _ = items[0]
        path, payload = f"/v1/{kind}", {"query": query}
    else:
        path = "/v1/batch"
        payload = {"items": [{"kind": kind, "query": query} for kind, query, _ in items]}
    first = log.reserve(len(items))
    sent = time.monotonic()
    status, body = await client.request("POST", path, payload)
    received = time.monotonic()
    ok = 0
    if status != 200:
        checker.reasons[f"http_{status}"] = checker.reasons.get(f"http_{status}", 0) + 1
    else:
        replies = [body] if len(items) == 1 else body.get("results", [])
        if len(replies) != len(items):
            checker.reasons["wrong_result_count"] = (
                checker.reasons.get("wrong_result_count", 0) + 1
            )
        else:
            for offset, (item, reply) in enumerate(zip(items, replies)):
                ok += checker.check(item, reply, sent, received, first + offset)
    log.calls.append(
        [sent, received, sent if due is None else due, len(items), ok, first]
    )
    return body


async def closed_loop(port: int, next_items, checker, log: CallLog, until: float):
    """Both connections send call after call until ``until`` (monotonic)."""

    async def drive():
        client = Client(port)
        try:
            while time.monotonic() < until:
                await send_call(client, next_items(), checker, log)
        finally:
            await client.close()

    await asyncio.gather(*(drive() for _ in range(CONNECTIONS)))


async def open_loop(port: int, schedule: list, checker, log: CallLog):
    """Send ``schedule`` — ``(due, item)`` in due order — each item when it
    is due, or as soon after as one of the two connections is free.  An
    item that waits is still timed from its due time by the caller."""
    pending = iter(schedule)

    async def drive():
        client = Client(port)
        try:
            for due, item in pending:
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                await send_call(client, [item], checker, log, due=due)
        finally:
            await client.close()

    await asyncio.gather(*(drive() for _ in range(CONNECTIONS)))
