"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cold_solve_8k --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the run
context, goes to ``.perfbench/results/``.  The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

# The benchmark runs from a plain source tree; nothing is installed.
_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import repro  # noqa: E402,F401  fails fast outside a source checkout

from perfbench import context  # noqa: E402
from perfbench.layers import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _run_workload(name: str, seed: int, seconds: float, trace: bool,
                  run_key: str):
    if name.startswith("cold_solve"):
        from perfbench import cold
        return cold.run(name, seed, seconds, trace, run_key)
    if name == "docking_scan":
        from perfbench import docking
        return docking.run(seed, seconds, trace, run_key)
    from perfbench import serve
    return serve.run(seed, seconds, trace, run_key)


def result_line(outcome, trace: bool) -> dict:
    """The result line: every metric of this run's kind, with its unit;
    per-layer metrics a workload does not exercise are 0."""
    catalogue = PER_LAYER if trace else END_TO_END
    unknown = sorted(set(outcome.metrics) - set(catalogue))
    missing = [] if trace else sorted(set(catalogue) - set(outcome.metrics))
    if unknown or missing:
        raise RuntimeError(f"metrics outside the catalogue {unknown}, "
                           f"end-to-end metrics not measured {missing}")
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(outcome.metrics.get(name, 0.0)),
                           "unit": spec["unit"]}
                    for name, spec in catalogue.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    trace = bool(args.trace)
    ctx = context.run_context(args.workload, args.seed, args.seconds, trace)
    t0 = time.perf_counter()
    # Runs agree only for the same program, benchmark and run length.
    run_key = hashlib.sha256(
        f"{ctx['source_sha256']}:{ctx['bench_sha256']}:{args.seconds}"
        .encode()).hexdigest()[:16]
    outcome = _run_workload(args.workload, args.seed, args.seconds, trace,
                            run_key)
    context.finish_context(ctx)
    ctx["wall_s"] = time.perf_counter() - t0
    line = result_line(outcome, trace)
    record = {"context": ctx, "checks": outcome.checks,
              "problems": outcome.problems, "detail": outcome.record,
              "result": line}
    path = context.save_result(args.workload, args.seed, trace, record)
    for name, metric in line["metrics"].items():
        print(f"{name:28s} {metric['value']:>14.6g} {metric['unit']}")
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}")
    print(json.dumps({"context": ctx, "record": str(path)},
                     sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
