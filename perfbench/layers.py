"""The layer-to-metric map.

``BENCHMARK.json`` at the root of the checkout is the one list of
workloads and metrics, with their units, better directions and bounds;
this module reads it.  What the JSON does not hold is kept here, keyed
by its metric names: the layer each per-layer metric belongs to, the
end-to-end metrics it should move, and the workloads on which it can be
nonzero.  Layer names are the repository's module names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

from perfbench.context import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: Metric name to its BENCHMARK.json entry (``unit``, ``better``, ...).
END_TO_END: Dict[str, dict] = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in SPEC["per_layer"]}

COLD = ("cold_solve_2k", "cold_solve_8k")
LIBRARY = COLD + ("docking_scan",)
SERVE = ("serve_mix",)


@dataclass(frozen=True)
class Layer:
    layer: str
    #: ``metric@workload`` pairs this metric should move.
    moves: Tuple[str, ...]
    #: Workloads on which it can be nonzero.
    on: Tuple[str, ...]


_SOLVES = ("goodput_per_s@cold_solve_2k", "goodput_per_s@cold_solve_8k")
_POSES = ("goodput_per_s@docking_scan",)
_TRAVERSAL = ("goodput_per_s@cold_solve_8k",) + _POSES
_GUARD = ("goodput_per_s@cold_solve_2k",)
_P50 = ("client.latency_ms_p50@serve_mix", "goodput_per_s@serve_mix")
_P90 = ("client.latency_ms_p90@serve_mix",)
_SERVE_TAIL = _P90 + ("goodput_per_s@serve_mix",)


def _layer(layer, moves, on, *names) -> Dict[str, Layer]:
    return {name: Layer(layer, moves, on) for name in names}


def _traversal(layer: str) -> Dict[str, Layer]:
    return _layer(layer, _TRAVERSAL, LIBRARY, *(
        f"{layer}.{name}" for name in (
            "traverse_s", "frontier_visits", "far_evaluations",
            "near_pair_blocks", "exact_interactions", "exact_share")))


LAYERS: Dict[str, Layer] = {
    **_layer("molecules", _SOLVES + _P90, COLD + SERVE,
             "molecules.surface_s", "molecules.qpoints"),
    **_layer("octree", _SOLVES + _POSES, LIBRARY,
             "octree.build_s", "octree.nodes"),
    **_traversal("born"),
    **_layer("born", _TRAVERSAL, LIBRARY, "born.push_s"),
    **_traversal("epol"),
    **_layer("epol", _TRAVERSAL, LIBRARY, "epol.buckets_s",
             "epol.nbuckets"),
    **_layer("guard", _GUARD, COLD, "guard.preflight_s",
             "guard.sentinel_s", "guard.watchdog_s"),
    **_layer("guard", _GUARD, COLD + SERVE, "guard.degradations"),
    **_layer("accuracy", (), WORKLOADS, "energy_rel_err_max"),
    **_layer("serve", _SERVE_TAIL, SERVE, "serve.wait_ms_p50",
             "serve.wait_ms_p90", "serve.service_ms_p50",
             "serve.service_ms_p90", "serve.cache_share.born",
             "serve.cache_share.trees", "serve.cache_share.cold",
             "serve.extra_attempts"),
    **_layer("serve", _P50, SERVE, "serve.cache_share.epol"),
    **_layer("fleet", _P50 + _P90, SERVE, "fleet.overhead_ms_p50"),
    **_layer("fleet", _SERVE_TAIL, SERVE, "fleet.shard_share_max",
             "fleet.reroutes"),
    **_layer("edge", _P50, SERVE, "edge.self_ms_p50",
             "edge.transport_ms_p50"),
    **_layer("edge", _P90, SERVE, "edge.materialize_ms",
             "edge.recipe_misses"),
    **_layer("client", _P90, SERVE, "client.late_ms_p90"),
    **_layer("client", (), SERVE, "client.latency_ms_p50",
             "client.latency_ms_p90", "client.sent"),
    **_layer("all", (), LIBRARY, "unattributed_s"),
    **_layer("all", (), WORKLOADS, "trace_overhead_share"),
}
