"""Attribution arithmetic of the serve_mix trace and the result line."""

import pytest

from perfbench import serve
from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.outcome import Outcome


def test_inbox_wait_follows_the_previous_request_on_the_shard():
    rows = {
        "a": {"shard": 0, "shard_submit": 0.0, "shard_done": 1.0},
        "b": {"shard": 0, "shard_submit": 0.2, "shard_done": 1.5},
        "c": {"shard": 0, "shard_submit": 2.0, "shard_done": 2.1},
        "d": {"shard": 1, "shard_submit": 0.3, "shard_done": 0.4},
        "e": {"fleet_submit": 0.0},
    }
    serve._outbox_waits(rows)
    assert rows["a"]["outbox_wait"] == 0.0
    assert rows["b"]["outbox_wait"] == pytest.approx(0.8)
    assert rows["c"]["outbox_wait"] == 0.0
    assert rows["d"]["outbox_wait"] == 0.0
    assert rows["e"]["outbox_wait"] == 0.0


def test_result_line_has_every_metric_of_its_kind():
    from perfbench.run import result_line
    out = Outcome(attempted=3)
    out.check("ok", True)
    out.metrics.update({name: 1.0 for name in END_TO_END})
    line = result_line(out, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(END_TO_END)
    assert line["correct"] is True
    traced = result_line(Outcome(attempted=1), trace=True)
    assert set(traced["metrics"]) == set(PER_LAYER)
    assert all(m["value"] == 0.0 for m in traced["metrics"].values())


def test_missing_or_unknown_metric_is_an_error():
    from perfbench.run import result_line
    with pytest.raises(RuntimeError):
        result_line(Outcome(attempted=1), trace=False)
    out = Outcome(attempted=1)
    out.metrics["born.traverse_seconds"] = 1.0
    with pytest.raises(RuntimeError):
        result_line(out, trace=True)


def test_traced_pipeline_is_the_guarded_solve_bitwise():
    from repro.guard.solver import GuardedSolver
    from repro.molecules import synthetic_protein

    from perfbench.ledger import Ledger
    from perfbench.pipeline import layer_metrics, surfaced, traced_solve

    atoms = synthetic_protein(300, seed=4, with_surface=False)
    ledger = Ledger()
    traced = traced_solve(ledger, atoms)
    untraced = GuardedSolver(surfaced(atoms)).report().energy
    assert traced.hex() == untraced.hex()
    assert surfaced(atoms).surface.points.tobytes() == \
        synthetic_protein(300, seed=4).surface.points.tobytes()
    metrics = layer_metrics(ledger, 1)
    assert set(metrics) <= set(PER_LAYER)
    assert 0.0 < metrics["epol.exact_share"] <= 1.0
    assert metrics["molecules.qpoints"] == len(surfaced(atoms).surface.points)


def test_a_failed_check_makes_the_run_incorrect():
    out = Outcome(attempted=2)
    out.check("first", True)
    out.check("second", False, "detail")
    out.check("first", True)
    assert not out.correct
    assert out.problems == ["second: detail"]


def test_failed_requests_count_but_add_no_latency():
    from perfbench import loadgen

    stream = [loadgen.Planned(i, 0.0, loadgen.TENANTS[0], 300, 1, 0.9)
              for i in range(3)]
    library = {(300, 1, 0.9): 1.5}
    ok = {"status": "ok", "energy_hex": (1.5).hex()}
    records = [
        loadgen.Sent(0, 0.0, 0.0, 0.2, 200, "r0", ok),
        loadgen.Sent(1, 0.0, 0.0, 0.001, 0, "", {}, "ConnectionRefused"),
        loadgen.Sent(2, 0.0, 0.0, 1.5, 200, "r2", ok),
    ]
    out = Outcome()
    latencies, good = serve._check_records(out, stream, records, library)
    assert latencies == [0.2, 1.5]
    assert good == [0.2]      # the 1.5 s answer is past the limit
    assert (out.attempted, out.failed) == (3, 1)
    assert not out.correct


def test_goodput_is_the_median_chunk_rate(monkeypatch):
    monkeypatch.setattr(serve, "CHUNK", 2)
    # Runs of two answers take 0.5, 0.1 and 0.25 s; the odd last answer
    # only closes the third run.
    done = [0.0, 0.2, 0.5, 0.55, 0.6, 0.7, 0.85]
    assert serve.median_rate(done, 0.0, 1.0) == 2 / 0.25
    # Too few answers for two runs: the mean rate over the phase.
    assert serve.median_rate([0.1, 0.2, 0.3], 0.0, 0.5) == 6.0
