"""The layer-to-metric map covers every metric in BENCHMARK.json, and
the README documents them all."""

import re

from perfbench import loadgen, serve
from perfbench.context import ROOT
from perfbench.layers import END_TO_END, LAYERS, PER_LAYER, SPEC, WORKLOADS

README = (ROOT / "perfbench" / "README.md").read_text(encoding="utf-8")


def test_every_per_layer_metric_has_a_layer():
    assert set(LAYERS) == set(PER_LAYER)


def test_setup_has_the_largest_bound():
    bounds = {name: m["bound"] for name, m in END_TO_END.items()}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_a_layer_and_real_targets():
    known = set(END_TO_END) | set(PER_LAYER)
    for name, metric in LAYERS.items():
        assert metric.layer, name
        assert set(metric.on) <= set(WORKLOADS), name
        for target in metric.moves:
            what, _, workload = target.partition("@")
            assert what in known, (name, target)
            assert workload in WORKLOADS, (name, target)


def test_every_end_to_end_metric_is_moved_by_some_layer():
    moved = {t.partition("@")[0] for m in LAYERS.values() for t in m.moves}
    assert set(END_TO_END) - {"setup_s", "peak_rss_mb"} <= moved


def test_readme_documents_every_metric_and_workload():
    for name in list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert re.search(rf"`{re.escape(name)}`", README), name


def test_serve_mix_why_states_the_fixed_rate_and_limit():
    why = next(w["why"] for w in SPEC["workloads"]
               if w["name"] == "serve_mix")
    assert f"{serve.RATE_PER_S:g} req/s" in why
    assert f"{serve.LATENCY_LIMIT_S:g} s" in why
    assert f"{loadgen.RECIPES} recipes" in why
    assert f"{loadgen.MAX_IN_FLIGHT} in flight" in why
