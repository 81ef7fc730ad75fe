"""Bounded open-loop load generator for the served workload.

Requests follow a fixed schedule — request ``i`` is due ``i / rate`` seconds
after the start — whatever the server does, so a stall delays every later
request instead of quietly lowering the offered load.  At most
``connections`` requests are outstanding at once; a request whose turn comes
while all of them are busy is sent late, and that lateness is reported as
generator lag.  Latency is timed from the due time, so it includes the lag.

The generator runs in the benchmark's own process, never in the process
hosting the engine, and speaks HTTP/1.1 itself (one connection per request)
rather than through the program's client helpers.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple


async def _read_head(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str]]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before the response")
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return status, headers
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode("ascii")] = value.strip().decode("latin-1")


async def request(
    host: str, port: int, text: str, stream: bool, timeout: float = 30.0
) -> Dict[str, object]:
    """Send one query; return the parsed outcome with its timestamps.

    Keys: ``sent``, ``done``, ``first`` (first streamed row, or the trailer
    when the answer is empty; None for ``/query``), ``status``, ``rows``,
    ``complete`` and ``accesses``.
    """
    body = json.dumps({"query": text}).encode("utf-8")
    path = "/query/stream" if stream else "/query"
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii")
    outcome: Dict[str, object] = {"first": None, "rows": None, "complete": False, "accesses": 0}
    outcome["sent"] = perf_counter()
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    try:
        writer.write(head + body)
        await writer.drain()
        status, headers = await asyncio.wait_for(_read_head(reader), timeout)
        outcome["status"] = status
        if headers.get("transfer-encoding", "").lower() == "chunked":
            rows = []
            buffer = b""
            while True:
                size = int((await asyncio.wait_for(reader.readline(), timeout)).strip() or b"0", 16)
                if size == 0:
                    break
                buffer += await asyncio.wait_for(reader.readexactly(size), timeout)
                await reader.readexactly(2)  # the chunk's CRLF
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    payload = json.loads(line)
                    if outcome["first"] is None:
                        outcome["first"] = perf_counter()
                    if "row" in payload:
                        rows.append(tuple(payload["row"]))
                    elif "summary" in payload:
                        outcome["complete"] = bool(payload["summary"].get("complete"))
                        outcome["accesses"] = int(payload["summary"].get("total_accesses", 0))
                    elif "error" in payload:
                        outcome["status"] = 500
            outcome["rows"] = rows
        else:
            length = int(headers.get("content-length", "0") or "0")
            payload = json.loads(await asyncio.wait_for(reader.readexactly(length), timeout))
            if status == 200:
                outcome["rows"] = [tuple(row) for row in payload.get("answers", ())]
                outcome["complete"] = bool(payload.get("complete"))
                outcome["accesses"] = int(payload.get("total_accesses", 0))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    outcome["done"] = perf_counter()
    return outcome


async def fetch_json(url: str, path: str, timeout: float = 30.0) -> Dict[str, object]:
    """GET one JSON document (the server's ``/metrics``)."""
    host, _, port = url.split("://", 1)[-1].rstrip("/").partition(":")
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, int(port)), timeout)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode("ascii"))
        await writer.drain()
        _, headers = await asyncio.wait_for(_read_head(reader), timeout)
        length = int(headers.get("content-length", "0") or "0")
        return json.loads(await asyncio.wait_for(reader.readexactly(length), timeout))
    finally:
        writer.close()


async def run_schedule(
    url: str, requests: Sequence[Dict[str, object]], rate: float, connections: int
) -> Tuple[List[Dict[str, object]], float]:
    """Offer ``requests`` at ``rate`` per second; return (records, start time).

    Each record carries ``due``, ``sent``, ``done`` and, for streams,
    ``first``; a transport failure is recorded with ``status`` 0.
    """
    host, _, port = url.split("://", 1)[-1].rstrip("/").partition(":")
    records: List[Optional[Dict[str, object]]] = [None] * len(requests)
    start = perf_counter() + 0.02
    cursor = 0

    async def worker() -> None:
        nonlocal cursor
        while cursor < len(requests):
            index = cursor
            cursor += 1
            due = start + index / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            spec = requests[index]
            try:
                outcome = await request(host, int(port), spec["text"], spec["stream"])
            except (OSError, EOFError, asyncio.TimeoutError, ValueError) as error:
                failed = perf_counter()
                outcome = {"status": 0, "error": repr(error), "sent": failed, "done": failed,
                           "first": None, "rows": None, "complete": False, "accesses": 0}
            outcome["due"] = due
            records[index] = outcome

    await asyncio.gather(*(worker() for _ in range(connections)))
    return [record for record in records if record is not None], start
