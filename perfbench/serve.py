"""``serve_mix``: seeded HTTP traffic through the edge.

Topology: a real :class:`~repro.edge.server.EdgeServer` socket in front
of ``ShardedFleet(shards=2, backend="process")`` with a shared disk
cache tier — two shard processes for the two cores, so wall-clock time
is real rather than the GIL-bound rate of thread shards.  One generator
process (:mod:`perfbench.loadgen`) sends from one sender thread with
at most four requests in flight: first a seeded open-loop stream at a
fixed rate for ``OPEN_S`` seconds, which warms the caches and gives the
client latencies, then a closed-loop capacity phase for the rest of the
run.
``goodput_per_s`` is the capacity phase's median rate of ``ok``
answers within the latency limit, so it falls when any layer on
the request path slows down, not only once the fixed rate saturates the
stack.

Edge parsing and auth, recipe materialization, fleet routing and IPC,
queue wait, cache writes (cold requests) and cache reads (hits) do most
of the work here; traversal work is small.

A traced run times the layers from outside: a delegating wrapper
around ``EdgeApp.handle``, a wrapper around the fleet's ``submit`` and
each shard's ``submit``, done-callbacks on their tickets, and wrappers
around ``synthetic_protein`` and ``sample_surface`` as the edge calls
them; queue wait and service come from each ``SolveResult``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import repro.edge.app as edge_app
import repro.molecules.generator as generator
from repro.config import ApproxParams
from repro.edge import EdgeApp, EdgeServer, TenantConfig, TenantRegistry
from repro.fleet.fleet import ShardedFleet
from repro.guard.solver import GuardedSolver
from repro.molecules import synthetic_protein

from perfbench import loadgen, stats
from perfbench.context import ROOT, STORE, DeterminismStore, peak_rss_mb
from perfbench.outcome import Outcome
from perfbench.pipeline import report_accuracy

#: Offered load of the open-loop phase: low enough that the cold-cache
#: backlog drains and queueing stays out of the median (README.md).
RATE_PER_S = 75.0
#: Length of the open-loop phase, or half of a shorter run.  Its first
#: 2-3 s drain the cold-cache backlog, so it needs about 10 s for its
#: median latency to be a cache hit's; the capacity phase gets the rest
#: of the run.
OPEN_S = 10.0
#: Goodput is the median rate over runs of this many good answers
#: (about half a second of the capacity phase on a 2-core machine).
CHUNK = 250
#: Set-ups timed per run; a stack builds in tens of milliseconds, so
#: more of them than the library workloads' three cost little.
SETUPS = 9
#: A response counts toward goodput only within this latency.
LATENCY_LIMIT_S = 1.0
SHARDS = 2
#: Ceiling on the generator's run past the end of its schedule.
DRAIN_S = 60.0


class _Stack:
    """Fleet + edge app + socket server, built fresh for each pass."""

    def __init__(self, seed: int, tag: str, traced: bool) -> None:
        self.cache_dir = STORE / "serve-cache" / tag
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.fleet = ShardedFleet(shards=SHARDS, backend="process",
                                  cache_dir=str(self.cache_dir))
        self.probe: Optional[Probe] = Probe(self.fleet) if traced else None
        tenants = TenantRegistry([
            TenantConfig(name=t, token=loadgen.tenant_token(t, seed),
                         rate_per_s=10_000.0, burst=10_000)
            for t in loadgen.TENANTS])
        backend = _TimedFleet(self.probe) if self.probe else self.fleet
        self.app = EdgeApp(backend, tenants, seed=seed)
        front = _TimedApp(self.probe, self.app) if self.probe else self.app
        self.server = EdgeServer(front).start()

    def close(self) -> None:
        self.server.close()
        self.fleet.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class Probe:
    """Server-side timestamps for a traced pass, one dict per request.

    All times are ``time.monotonic()``, the clock the generator process
    uses too.  ``handle``, ``materialize`` and ``surface`` are measured
    on the handler thread; ``fleet_submit``/``shard_submit`` when the
    request enters the router and its shard; ``shard_done`` and
    ``fleet_done`` from done-callbacks on the two tickets.
    """

    def __init__(self, fleet: ShardedFleet) -> None:
        self.fleet = fleet
        self.rows: Dict[str, dict] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        for shard in fleet.shards:
            shard.submit = self._shard_submit(shard, shard.submit)

    def _row(self, key: str) -> dict:
        with self._lock:
            return self.rows.setdefault(key, {})

    def _shard_submit(self, shard, submit):
        def timed(request, stall_seconds: float = 0.0):
            row = self._row(request.key())
            row["shard_submit"] = time.monotonic()
            row["shard"] = shard.shard_id
            ticket = submit(request, stall_seconds=stall_seconds)
            ticket.on_done(lambda _t: row.__setitem__(
                "shard_done", time.monotonic()))
            return ticket
        return timed

    @contextmanager
    def materialization(self) -> Iterator[None]:
        """Time ``synthetic_protein`` and ``sample_surface`` as the edge
        calls them while the pass runs."""
        make, sample = edge_app.synthetic_protein, generator.sample_surface

        def timed(field, fn):
            def wrapper(*args, **kwargs):
                t0 = time.monotonic()
                result = fn(*args, **kwargs)
                row = getattr(self._local, "row", None)
                if row is not None:
                    row[field] = row.get(field, 0.0) + (
                        time.monotonic() - t0)
                    if field == "surface":
                        row["qpoints"] = len(result.surface.points)
                return result
            return wrapper

        edge_app.synthetic_protein = timed("materialize", make)
        generator.sample_surface = timed("surface", sample)
        try:
            yield
        finally:
            edge_app.synthetic_protein = make
            generator.sample_surface = sample


class _TimedFleet:
    """The fleet as the edge sees it, stamping each request's submit and
    completion."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe

    def submit(self, request):
        probe = self.probe
        row = probe._row(request.key())
        row["fleet_submit"] = time.monotonic()
        # Adopt what the handler thread measured before the submit.
        row.update(probe._local.row)
        probe._local.row = row
        ticket = probe.fleet.submit(request)
        ticket.on_done(lambda _t: row.__setitem__(
            "fleet_done", time.monotonic()))
        return ticket

    def __getattr__(self, name):
        return getattr(self.probe.fleet, name)


class _TimedApp:
    """Delegates to ``EdgeApp.handle`` and times it."""

    def __init__(self, probe: Probe, app: EdgeApp) -> None:
        self.probe = probe
        self.app = app
        self.read_cap_bytes = app.read_cap_bytes

    def handle(self, method, path, headers=None, body=b"",
               declared_length=None):
        local = self.probe._local
        local.row = {"materialize": 0.0, "surface": 0.0}
        t0 = time.monotonic()
        resp = self.app.handle(method, path, headers, body,
                               declared_length=declared_length)
        local.row["handle"] = time.monotonic() - t0
        local.row = None
        return resp


def _drive(stack: _Stack, stream, seed: int,
           capacity_s: float) -> Tuple[List[loadgen.Sent],
                                       List[loadgen.Sent]]:
    """Run the generator process against ``stack``; return the records
    of its open-loop and capacity phases."""
    host, port = stack.server.address
    job = json.dumps({
        "host": host, "port": port, "capacity_s": capacity_s,
        "tokens": {t: loadgen.tenant_token(t, seed)
                   for t in loadgen.TENANTS},
        "stream": [dataclasses.asdict(p) for p in stream]})
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.loadgen"],
                            cwd=str(ROOT), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(
            job, timeout=stream[-1].at_s + capacity_s + DRAIN_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"load generator exited {proc.returncode}")
    phases = json.loads(stdout)
    return tuple([loadgen.Sent(**r) for r in phases[name]]
                 for name in ("open", "capacity"))


def _pass(seed: int, stream, tag: str, traced: bool,
          capacity_s: float = 0.0):
    """Build a stack, drive the stream (and a capacity phase of
    ``capacity_s``) through it, tear it down."""
    stack = _Stack(seed, tag, traced)
    try:
        if traced:
            with stack.probe.materialization():
                records, capacity = _drive(stack, stream, seed, capacity_s)
        else:
            records, capacity = _drive(stack, stream, seed, capacity_s)
        fleet_stats = stack.fleet.stats()
    finally:
        stack.close()
    return records, capacity, fleet_stats, stack.probe


def _library_energies(stream) -> Dict[Tuple[int, int, float], float]:
    """The in-process energy of every (recipe, ε) the stream asks for."""
    out = {}
    for p in stream:
        key = (p.atoms, p.seed, p.eps_epol)
        if key not in out:
            params = ApproxParams(eps_born=loadgen.EPS_BORN,
                                  eps_epol=p.eps_epol)
            out[key] = GuardedSolver(synthetic_protein(p.atoms, seed=p.seed),
                                     params).report().energy
    return out


def _check_records(out: Outcome, stream, records,
                   library) -> Tuple[List[float], List[float]]:
    """Count failures and check parity for every planned request; return
    the latencies of the ``ok`` answers and the completion times of
    those that passed their checks within the latency limit."""
    by_index = {r.index: r for r in records}
    latencies, good = [], []
    out.attempted += len(stream)
    for p in stream:
        r = by_index.get(p.index)
        ok = r is not None and r.http_status == 200 and \
            r.result.get("status") == "ok"
        if not ok:
            out.failed += 1
            out.check("request_ok", False,
                      f"request {p.index}: " + (
                          "never sent" if r is None else
                          f"HTTP {r.http_status} {r.error or r.result}"))
            continue
        want = float(library[(p.atoms, p.seed, p.eps_epol)]).hex()
        if not out.check("http_library_bitwise",
                         r.result.get("energy_hex") == want,
                         f"request {p.index}: {r.result.get('energy_hex')} "
                         f"!= library {want}"):
            out.failed += 1
        elif r.latency_s <= LATENCY_LIMIT_S:
            good.append(r.done)
        latencies.append(r.latency_s)
    return latencies, good


def _check_capacity(out: Outcome, stream, capacity,
                    library) -> Tuple[float, int]:
    """Check the capacity phase's answers; return its goodput (see
    :func:`median_rate`) and the number of answers."""
    if not out.check("capacity_phase", bool(capacity),
                     "the capacity phase sent nothing"):
        out.failed += 1
        return 0.0, 0
    planned = [loadgen.capacity_request(stream, r.index - len(stream))
               for r in capacity]
    _, good = _check_records(out, planned, capacity, library)
    start = min(r.sent for r in capacity)
    return median_rate(good, start, max(r.done for r in capacity)), \
        len(capacity)


def median_rate(done: List[float], start: float, end: float) -> float:
    """Median rate, per second, over the runs of ``CHUNK`` consecutive
    events in ``done``: ``CHUNK`` divided by the time from the run's
    first event to the next run's first.

    The host's speed wanders over seconds, so the median run is steadier
    than the phase's mean rate.  With too few events for two runs, the
    mean rate from ``start`` to ``end`` stands in.
    """
    done = sorted(done)
    spans = [done[k + CHUNK] - done[k]
             for k in range(0, len(done) - CHUNK, CHUNK)]
    if len(spans) < 2:
        return len(done) / (end - start)
    return CHUNK / stats.median(spans)


def _setup_times(seed: int) -> List[float]:
    """Time building a stack (fleet spawn plus server start) on throwaway
    stacks, tearing each down outside the timing; each pass then builds
    its own."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        stack = _Stack(seed, "setup", traced=False)
        times.append(time.perf_counter() - t0)
        stack.close()
    return times


def run(seed: int, seconds: float, trace: bool, run_key: str) -> Outcome:
    out = Outcome()
    open_s = min(OPEN_S, seconds / 2)
    stream = loadgen.build_stream(seed, RATE_PER_S, open_s)
    digest_stream = loadgen.stream_digest(stream)
    out.check("stream_digest_repeat", digest_stream == loadgen.stream_digest(
        loadgen.build_stream(seed, RATE_PER_S, open_s)),
        "the same seed built two different streams")
    setup_times = _setup_times(seed)
    setup_s = stats.median(setup_times)
    out.record.update(setup_times_s=setup_times, requests=len(stream),
                      stream_sha256=digest_stream, rate_per_s=RATE_PER_S)
    if trace:
        library = _traced(out, seed, stream)
    else:
        t0 = time.monotonic()
        records, capacity, fleet_stats, _ = _pass(
            seed, stream, "plain", False, seconds - open_s)
        elapsed = time.monotonic() - t0
        peak = peak_rss_mb(children=SHARDS)
        library = _library_energies(stream)
        latencies, good_open = _check_records(out, stream, records, library)
        goodput, sent = _check_capacity(out, stream, capacity, library)
        out.record.update(latency_s=stats.summarize(latencies),
                          good_open=len(good_open), capacity_sent=sent,
                          pass_s=elapsed, rerouted=fleet_stats.rerouted)
        out.metrics.update(setup_s=setup_s, goodput_per_s=goodput,
                           peak_rss_mb=peak)
    observed = {"stream": digest_stream}
    observed.update({f"E{a}-{s}-{e}": v.hex()
                     for (a, s, e), v in library.items()})
    clashes = DeterminismStore("serve_mix", seed, run_key).check(observed)
    out.check("seed_determinism", not clashes,
              f"differs from an earlier run of this seed: {clashes[:3]}")
    return out


def _traced(out: Outcome, seed: int, stream) -> Dict:
    """Drive the open-loop stream untraced and then traced, each on a
    fresh stack, and attribute the traced pass's requests to layers."""
    plain, _, _, _ = _pass(seed, stream, "plain", False)
    records, _, fleet_stats, probe = _pass(seed, stream, "traced", True)
    library = _library_energies(stream)
    plain_ok, _ = _check_records(out, stream, plain, library)
    traced_ok, _ = _check_records(out, stream, records, library)
    rows = probe.rows
    planned = {p.index: p for p in stream}
    _outbox_waits(rows)
    wait, service, overhead, edge_self, transport = [], [], [], [], []
    levels: Dict[str, int] = {}
    shards: Dict[int, int] = {}
    materialize = surface = qpoints = 0.0
    misses = degradations = extra = 0
    for r in records:
        row = rows.get(planned[r.index].key)
        res = r.result
        levels[str(res.get("cache"))] = levels.get(str(res.get("cache")),
                                                    0) + 1
        degradations += int(res.get("degradations") or 0)
        extra += max(0, int(res.get("attempt") or 1) - 1)
        if row is None or "fleet_done" not in row:
            continue
        shards[row["shard"]] = shards.get(row["shard"], 0) + 1
        q = row["outbox_wait"] + float(res.get("wait_seconds") or 0.0)
        s = float(res.get("service_seconds") or 0.0)
        fleet_total = row["fleet_done"] - row["fleet_submit"]
        wait.append(q)
        service.append(s)
        overhead.append(fleet_total - q - s)
        edge_self.append(row["handle"] - row["materialize"] - fleet_total)
        transport.append(r.round_trip_s - row["handle"])
        if row["materialize"] > 0.0:
            misses += 1
            materialize += row["materialize"] - row["surface"]
            surface += row["surface"]
            qpoints += row.get("qpoints", 0)
    n = max(1, len(records))

    def ms(values, q):
        return stats.percentile(values, q) * 1e3 if values else 0.0

    out.metrics.update({
        "molecules.surface_s": surface / max(1, misses),
        "molecules.qpoints": qpoints / max(1, misses),
        "guard.degradations": float(degradations),
        "serve.wait_ms_p50": ms(wait, 50), "serve.wait_ms_p90": ms(wait, 90),
        "serve.service_ms_p50": ms(service, 50),
        "serve.service_ms_p90": ms(service, 90),
        "serve.extra_attempts": float(extra),
        "fleet.overhead_ms_p50": ms(overhead, 50),
        "fleet.shard_share_max": max(shards.values()) / n if shards else 0.0,
        "fleet.reroutes": float(fleet_stats.rerouted),
        "edge.self_ms_p50": ms(edge_self, 50),
        "edge.transport_ms_p50": ms(transport, 50),
        "edge.materialize_ms": materialize * 1e3,
        "edge.recipe_misses": float(misses),
        "client.late_ms_p90": ms([r.late_s for r in records], 90),
        "client.latency_ms_p50": ms(plain_ok, 50),
        "client.latency_ms_p90": ms(plain_ok, 90),
        "client.sent": float(len(records)),
        "unattributed_s": 0.0,
    })
    for level in ("epol", "born", "trees", "cold"):
        out.metrics[f"serve.cache_share.{level}"] = levels.get(level, 0) / n
    plain_s, traced_s = sum(plain_ok), sum(traced_ok)
    out.metrics["trace_overhead_share"] = (
        (traced_s - plain_s) / plain_s if plain_s else 0.0)
    report_accuracy(out, [(synthetic_protein(atoms, seed=mseed), energy)
                          for (atoms, mseed, _), energy in library.items()])
    out.record.update(cache_levels=levels, shards=shards)
    return library


def _outbox_waits(rows: Dict[str, dict]) -> None:
    """Time each request spent in its shard's inbox before the shard
    began it.  A process shard serves one request at a time in arrival
    order, so a request starts when it arrives or when the previous one
    on that shard finished, whichever is later."""
    by_shard: Dict[int, List[dict]] = {}
    for row in rows.values():
        if "shard_submit" in row and "shard_done" in row:
            by_shard.setdefault(row["shard"], []).append(row)
    for queue in by_shard.values():
        queue.sort(key=lambda row: row["shard_submit"])
        free_at = float("-inf")
        for row in queue:
            row["outbox_wait"] = max(0.0, free_at - row["shard_submit"])
            free_at = row["shard_done"]
    for row in rows.values():
        row.setdefault("outbox_wait", 0.0)
