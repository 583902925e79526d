"""Seeded HTTP load for ``serve_mix``: an open-loop stream, then a
closed-loop capacity phase.

:func:`build_stream` turns a workload seed into the request stream: a
pool of recipes (seeded ``synthetic_protein`` atom counts and seeds,
one per slice of 300-1000 atoms), three tenants, ``eps_epol`` drawn
from {0.9, 0.5} with ``eps_born`` fixed (so the second ε of a recipe
reuses its Born radii), and a distinct idempotency key per request (so
repeats hit the cache instead of coalescing).  Arrival times are a
Poisson process conditioned on its count: ``rate × seconds`` times
drawn uniformly over the window and sorted, so every run of a workload
carries the same number of requests.

:func:`main` runs in its own process, with one sender thread that
opens each request's connection when it is due and multiplexes all the
requests in flight, so the loop is open: a slow response never delays
the next send.  Latency is still measured from the *scheduled* time, so
any lateness of the generator itself is charged to the request, and the
lateness is recorded.  After the open-loop stream, a closed-loop
capacity phase (:func:`run_closed`) keeps ``MAX_IN_FLIGHT`` requests
in flight for a fixed time, so the rate it reaches is set by the
program's speed rather than by the offered load.

This module imports only the standard library: the generator process
starts fast and shares nothing with the server.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import selectors
import socket
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

RECIPES = 8
MIN_ATOMS, MAX_ATOMS = 300, 1000
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
EPS_BORN = 0.9
EPS_EPOL = (0.9, 0.5)
#: Lead time between the generator being ready and the first arrival.
LEAD_S = 0.2
#: Requests in flight at once.  The edge listens with a backlog of only
#: 5 connections; with 16 in flight its latencies reached 7 s during the
#: cold-cache warm-up instead of the load becoming more open.
MAX_IN_FLIGHT = 4


@dataclass(frozen=True)
class Planned:
    """One scheduled request."""

    index: int
    at_s: float          # scheduled send time, from the stream start
    tenant: str
    atoms: int
    seed: int
    eps_epol: float

    @property
    def raw_key(self) -> str:
        return f"mix-{self.index}"

    @property
    def key(self) -> str:
        """The serve-tier key: the edge namespaces client keys by tenant."""
        return f"{self.tenant}:{self.raw_key}"

    def body(self) -> bytes:
        return json.dumps({
            "atoms": self.atoms, "seed": self.seed,
            "eps_born": EPS_BORN, "eps_epol": self.eps_epol,
            "idempotency_key": self.raw_key}, sort_keys=True).encode()


def tenant_token(tenant: str, seed: int) -> str:
    return f"{tenant}-{seed}-token"


def build_stream(seed: int, rate_per_s: float,
                 seconds: float) -> List[Planned]:
    """The seeded request stream (see the module docstring)."""
    rng = random.Random(f"serve_mix:{seed}")
    # One recipe per equal slice of the size range: the pool always
    # spans 300-1000 atoms, so seeds differ in molecules, not in how
    # much work the pool holds.
    width = (MAX_ATOMS - MIN_ATOMS) / RECIPES
    recipes = [(int(MIN_ATOMS + (k + rng.random()) * width),
                rng.randrange(2**31)) for k in range(RECIPES)]
    count = max(1, round(rate_per_s * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    stream = []
    for i, at in enumerate(times):
        atoms, mseed = recipes[rng.randrange(RECIPES)]
        stream.append(Planned(i, at, rng.choice(TENANTS), atoms, mseed,
                              rng.choice(EPS_EPOL)))
    return stream


def stream_digest(stream: Sequence[Planned]) -> str:
    doc = json.dumps([asdict(p) for p in stream], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@dataclass
class Sent:
    """What the client saw for one request (times on the shared
    monotonic clock)."""

    index: int
    scheduled: float
    sent: float
    done: float
    http_status: int
    request_id: str
    result: Dict[str, object]
    error: str = ""

    @property
    def late_s(self) -> float:
        return self.sent - self.scheduled

    @property
    def latency_s(self) -> float:
        """Client latency, measured from the scheduled send time."""
        return self.done - self.scheduled

    @property
    def round_trip_s(self) -> float:
        return self.done - self.sent


def _request_bytes(host: str, port: int, planned: Planned,
                   token: str) -> bytes:
    body = planned.body()
    head = (f"POST /v1/solve HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Authorization: Bearer {token}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return head.encode("ascii") + body


def parse_response(raw: bytes) -> Tuple[int, str, Dict[str, object]]:
    """``(status, X-Request-Id, result)`` of one complete HTTP response
    (the server closes the connection after it, so ``raw`` is all of
    it)."""
    head, sep, payload = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("truncated HTTP response")
    lines = head.decode("iso-8859-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    doc = json.loads(payload.decode("utf-8")) if payload else {}
    result = doc.get("result") if isinstance(doc, dict) else None
    return (status, headers.get("x-request-id", ""),
            result if isinstance(result, dict) else {"body": doc})


class _Flight:
    """One request on its own non-blocking connection; a closed-loop
    request (``due`` None) is due when it is sent."""

    def __init__(self, planned: Planned, due: Optional[float],
                 data: bytes) -> None:
        self.planned = planned
        self.sent = time.monotonic()
        self.due = self.sent if due is None else due
        self.out = memoryview(data)
        self.buf = bytearray()


def _exchange(host: str, port: int, tokens: Dict[str, str],
              pending: Iterator[Tuple[Planned, Optional[float]]],
              stop_at: float, max_in_flight: int) -> List[Sent]:
    """Send ``(request, due)`` pairs in order and collect the answers.

    One thread multiplexes every in-flight request, each on its own
    connection (as ``urllib`` or ``curl`` would send it), so a slow
    response never holds back the next send.  A request goes out at its
    monotonic ``due`` time, or as soon as a slot is free when ``due`` is
    None (its scheduled time is then its send time); nothing is sent
    after ``stop_at``.  (On a kept-alive connection this edge answers
    about 40 ms late: it writes headers and body separately and Nagle's
    algorithm holds the body for the client's delayed ACK.)
    """
    sel = selectors.DefaultSelector()
    records: List[Sent] = []
    head = next(pending, None)

    def finish(sock: socket.socket, flight: _Flight, error: str) -> None:
        done = time.monotonic()
        sel.unregister(sock)
        sock.close()
        status, rid, result = 0, "", {}
        if not error:
            try:
                status, rid, result = parse_response(bytes(flight.buf))
            except (ValueError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append(Sent(flight.planned.index, flight.due, flight.sent,
                            done, status, rid, result, error))

    try:
        while head is not None or sel.get_map():
            now = time.monotonic()
            while head is not None and len(sel.get_map()) < max_in_flight:
                if now >= stop_at:
                    head = None
                    break
                planned, due = head
                if due is not None and due > now:
                    break
                flight = _Flight(planned, due,
                                 _request_bytes(host, port, planned,
                                                tokens[planned.tenant]))
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setblocking(False)
                sock.connect_ex((host, port))
                sel.register(sock, selectors.EVENT_WRITE, flight)
                head = next(pending, None)
                now = time.monotonic()
            timeout = None
            if head is not None and len(sel.get_map()) < max_in_flight:
                # Only an open-loop request can be waiting for its time.
                timeout = max(0.0, head[1] - now)
            if not sel.get_map():
                time.sleep(timeout or 0.0)
                continue
            for key, _mask in sel.select(timeout):
                sock, flight = key.fileobj, key.data
                try:
                    if flight.out:
                        err = sock.getsockopt(socket.SOL_SOCKET,
                                              socket.SO_ERROR)
                        if err:
                            raise OSError(err, os.strerror(err))
                        sent = sock.send(flight.out)
                        flight.out = flight.out[sent:]
                        if not flight.out:
                            sel.modify(sock, selectors.EVENT_READ, flight)
                        continue
                    chunk = sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    finish(sock, flight, f"{type(exc).__name__}: {exc}")
                    continue
                if chunk:
                    flight.buf += chunk
                else:
                    finish(sock, flight, "")
    finally:
        for key in list(sel.get_map().values()):
            key.fileobj.close()
        sel.close()
    return sorted(records, key=lambda r: r.index)


def run_schedule(host: str, port: int, stream: Sequence[Planned],
                 tokens: Dict[str, str], start: float,
                 max_in_flight: int = MAX_IN_FLIGHT) -> List[Sent]:
    """Send ``stream`` open-loop, each request at monotonic time
    ``start + at_s``."""
    return _exchange(host, port, tokens,
                     ((p, start + p.at_s) for p in stream),
                     math.inf, max_in_flight)


def capacity_request(stream: Sequence[Planned], k: int) -> Planned:
    """The ``k``-th request of the closed-loop capacity phase: the open
    stream's requests again, in order, under new indices and so new
    idempotency keys.  The open phase has already solved every (recipe,
    ε) they ask for, so the phase measures the cache-hit path."""
    return replace(stream[k % len(stream)], index=len(stream) + k,
                   at_s=0.0)


def run_closed(host: str, port: int, stream: Sequence[Planned],
               tokens: Dict[str, str], seconds: float) -> List[Sent]:
    """Keep ``MAX_IN_FLIGHT`` capacity-phase requests in flight for
    ``seconds``, then wait for the last answers."""
    return _exchange(host, port, tokens,
                     ((capacity_request(stream, k), None)
                      for k in itertools.count()),
                     time.monotonic() + seconds, MAX_IN_FLIGHT)


def main() -> None:
    """Generator-process entry (``python3 -m perfbench.loadgen``): read
    the job as JSON on stdin, run the open-loop stream and then the
    capacity phase, write both phases' records as JSON on stdout."""
    job = json.load(sys.stdin)
    stream = [Planned(**p) for p in job["stream"]]
    host, port, tokens = job["host"], job["port"], job["tokens"]
    start = time.monotonic() + LEAD_S
    records = {"open": run_schedule(host, port, stream, tokens, start),
               "capacity": []}
    if job["capacity_s"] > 0:
        records["capacity"] = run_closed(host, port, stream, tokens,
                                         job["capacity_s"])
    json.dump({phase: [asdict(r) for r in rs]
               for phase, rs in records.items()}, sys.stdout)


if __name__ == "__main__":
    main()
