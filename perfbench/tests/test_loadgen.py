"""The serve_mix request stream and the open-loop accounting."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import loadgen


def test_same_seed_same_stream():
    a = loadgen.build_stream(7, 150.0, 20)
    b = loadgen.build_stream(7, 150.0, 20)
    assert a == b
    assert loadgen.stream_digest(a) == loadgen.stream_digest(b)


def test_other_seed_other_stream():
    assert (loadgen.stream_digest(loadgen.build_stream(7, 150.0, 20))
            != loadgen.stream_digest(loadgen.build_stream(8, 150.0, 20)))


def test_stream_shape():
    stream = loadgen.build_stream(3, 150.0, 20)
    assert len(stream) == 3000
    times = [p.at_s for p in stream]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 20
    recipes = sorted({(p.atoms, p.seed) for p in stream})
    assert len(recipes) == loadgen.RECIPES
    width = (loadgen.MAX_ATOMS - loadgen.MIN_ATOMS) / loadgen.RECIPES
    for k, (atoms, _) in enumerate(recipes):
        assert loadgen.MIN_ATOMS + k * width <= atoms
        assert atoms <= loadgen.MIN_ATOMS + (k + 1) * width
    assert {p.eps_epol for p in stream} == set(loadgen.EPS_EPOL)
    assert {p.tenant for p in stream} == set(loadgen.TENANTS)
    assert len({p.key for p in stream}) == len(stream)


class _SlowHandler(BaseHTTPRequestHandler):
    delay_s = 0.2

    def do_POST(self):  # noqa: N802 - http.server contract
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay_s)
        body = json.dumps({"result": {"status": "ok"}}).encode()
        self.send_response(200)
        self.send_header("X-Request-Id", "req-1")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_latency_counts_from_the_scheduled_time(slow_server):
    """Three requests due at once, one allowed in flight: the second and
    third go out late, and their latency includes that lateness."""
    host, port = slow_server
    stream = [loadgen.Planned(i, 0.0, loadgen.TENANTS[0], 300, 1, 0.9)
              for i in range(3)]
    tokens = {loadgen.TENANTS[0]: "t"}
    start = time.monotonic() + 0.05
    records = loadgen.run_schedule(host, port, stream, tokens, start,
                                   max_in_flight=1)
    assert [r.index for r in records] == [0, 1, 2]
    delay = _SlowHandler.delay_s
    for i, r in enumerate(records):
        assert r.http_status == 200 and r.request_id == "req-1"
        assert r.scheduled == pytest.approx(start)
        assert r.late_s >= i * delay * 0.9
        assert r.latency_s >= (i + 1) * delay * 0.9
        assert r.latency_s == pytest.approx(r.late_s + r.round_trip_s)


def test_open_loop_sends_on_schedule(slow_server):
    """With room in flight, a slow response does not delay later sends."""
    host, port = slow_server
    stream = [loadgen.Planned(i, 0.01 * i, loadgen.TENANTS[0], 300, 1, 0.9)
              for i in range(3)]
    records = loadgen.run_schedule(host, port, stream,
                                   {loadgen.TENANTS[0]: "t"},
                                   time.monotonic() + 0.05)
    assert max(r.late_s for r in records) < _SlowHandler.delay_s / 2


def test_refused_connection_is_a_failed_record():
    stream = [loadgen.Planned(0, 0.0, loadgen.TENANTS[0], 300, 1, 0.9)]
    records = loadgen.run_schedule("127.0.0.1", 9, stream,
                                   {loadgen.TENANTS[0]: "t"},
                                   time.monotonic())
    assert records[0].http_status == 0 and records[0].error


def test_parse_response():
    raw = (b"HTTP/1.1 200 OK\r\nX-Request-Id: req-9\r\n"
           b"Content-Length: 27\r\n\r\n"
           b'{"result": {"status": "ok"}}')
    assert loadgen.parse_response(raw) == (200, "req-9", {"status": "ok"})
    with pytest.raises(ValueError):
        loadgen.parse_response(b"HTTP/1.1 200 OK\r\n")


def test_capacity_requests_repeat_the_stream_under_new_keys():
    stream = loadgen.build_stream(3, 75.0, 2)
    n = len(stream)
    again = [loadgen.capacity_request(stream, k) for k in range(2 * n)]
    assert [p.index for p in again] == list(range(n, 3 * n))
    for k, p in enumerate(again):
        first = stream[k % n]
        assert (p.tenant, p.atoms, p.seed, p.eps_epol) == (
            first.tenant, first.atoms, first.seed, first.eps_epol)
    keys = {p.key for p in stream} | {p.key for p in again}
    assert len(keys) == 3 * n


def test_closed_loop_keeps_the_window_full_for_its_time(slow_server):
    """Each answer takes 0.2 s and four are in flight, so 0.5 s of
    capacity phase sends three rounds of four; latency counts from the
    send, and the rate is set by the server's speed."""
    host, port = slow_server
    stream = [loadgen.Planned(0, 0.0, loadgen.TENANTS[0], 300, 1, 0.9)]
    t0 = time.monotonic()
    records = loadgen.run_closed(host, port, stream,
                                 {loadgen.TENANTS[0]: "t"}, 0.5)
    elapsed = time.monotonic() - t0
    assert len(records) == 3 * loadgen.MAX_IN_FLIGHT
    assert [r.index for r in records] == list(range(1, len(records) + 1))
    assert all(r.http_status == 200 for r in records)
    assert all(r.scheduled == r.sent for r in records)
    assert all(r.latency_s >= _SlowHandler.delay_s * 0.9 for r in records)
    assert elapsed == pytest.approx(3 * _SlowHandler.delay_s, abs=0.15)
