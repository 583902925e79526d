"""``cold_solve_2k`` / ``cold_solve_8k``: atoms to a guarded energy.

One caller, no concurrency, default ``ApproxParams()`` and
``GuardPolicy()``.  Set-up generates a pool of distinct seeded
``synthetic_protein`` atom sets (no surface); each timed solve takes the
next one and runs ``sample_surface`` then ``GuardedSolver(...).report()``,
so surface sampling, both octree builds, both traversals and the guard
checks are all inside the timed region.  The two sizes separate
per-call constant costs (which matter most at 2000 atoms) from the near
field (which dominates at 8000).
"""

from __future__ import annotations

import math
import time
import traceback
from typing import List

import numpy as np

from repro.guard.solver import GuardedSolver
from repro.molecules import synthetic_protein
from repro.molecules.molecule import Molecule

from perfbench import stats
from perfbench.context import DeterminismStore, peak_rss_mb
from perfbench.ledger import Ledger
from perfbench.outcome import Outcome
from perfbench.pipeline import (
    report_accuracy,
    report_trace,
    surfaced,
    traced_solve,
)

ATOMS = {"cold_solve_2k": 2000, "cold_solve_8k": 8000}
#: Distinct molecules per run: enough that a timed run rarely repeats one.
POOL = {2000: 24, 8000: 5}
#: Molecules a traced run decomposes (fixed, so its counts repeat).
TRACED = {2000: 6, 8000: 2}
SETUPS = 3


def molecule_seeds(seed: int, natoms: int, count: int) -> List[int]:
    rng = np.random.default_rng([seed, natoms])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def timed_setup(build):
    """Run ``build`` ``SETUPS`` times; return the last result and the
    median and individual set-up times."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, stats.median(times), times


def _pool(seed: int, natoms: int) -> List[Molecule]:
    return [synthetic_protein(natoms, seed=s, with_surface=False)
            for s in molecule_seeds(seed, natoms, POOL[natoms])]


def run(workload: str, seed: int, seconds: float, trace: bool,
        run_key: str) -> Outcome:
    natoms = ATOMS[workload]
    out = Outcome()
    pool, setup_s, setup_times = timed_setup(lambda: _pool(seed, natoms))
    out.record["molecule_seeds"] = molecule_seeds(seed, natoms,
                                                  POOL[natoms])
    out.record["setup_times_s"] = setup_times
    observed = {"molecule_seeds": ",".join(
        str(s) for s in out.record["molecule_seeds"])}
    if trace:
        _traced(out, pool[:TRACED[natoms]], observed)
    else:
        _timed(out, pool, seconds, setup_s, observed)
    clashes = DeterminismStore(workload, seed, run_key).check(observed)
    out.check("seed_determinism", not clashes,
              f"differs from an earlier run of this seed: {clashes[:3]}")
    return out


def _solve(out: Outcome, mol: Molecule):
    """One timed cold solve; returns (seconds, report, surfaced
    molecule), or None after counting a failure."""
    t0 = time.perf_counter()
    try:
        solver = GuardedSolver(surfaced(mol))
        report = solver.report()
    except Exception:  # lint: ignore[RPR003] — a failed solve is counted
        out.failed += 1
        out.check("solve", False, traceback.format_exc())
        return None
    return time.perf_counter() - t0, report, solver.molecule


def _energy_ok(out: Outcome, idx: int, energy: float,
               observed: dict) -> bool:
    ok = out.check("finite_energy", math.isfinite(energy),
                   f"molecule {idx}: {energy!r}")
    prev = observed.setdefault(f"E{idx}", float(energy).hex())
    return out.check("repeat_bitwise", prev == float(energy).hex(),
                     f"molecule {idx}: {prev} then "
                     f"{float(energy).hex()}") and ok


def _timed(out: Outcome, pool: List[Molecule], seconds: float,
           setup_s: float, observed: dict) -> None:
    latencies, good, degradations = [], 0, 0
    start = time.perf_counter()
    k = 0
    while True:
        idx = k % len(pool)
        out.attempted += 1
        done = _solve(out, pool[idx])
        if done is not None:
            dt, report, _ = done
            latencies.append(dt)
            degradations += report.degradations
            if _energy_ok(out, idx, report.energy, observed):
                good += 1
            else:
                out.failed += 1
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    summary = stats.summarize(latencies)
    out.record.update(latency_s=summary, solves=k,
                      degradations=degradations, elapsed_s=elapsed)
    out.metrics.update(
        setup_s=setup_s,
        goodput_per_s=good / elapsed,
        peak_rss_mb=peak_rss_mb())


def _traced(out: Outcome, pool: List[Molecule], observed: dict) -> None:
    ledger = Ledger()
    untraced_s = traced_s = 0.0
    solved, degradations = [], 0
    for idx, mol in enumerate(pool):
        out.attempted += 1
        # Alternate which side runs first so warm-up favours neither.
        order = (False, True) if idx % 2 == 0 else (True, False)
        energies = {}
        for traced in order:
            t0 = time.perf_counter()
            if traced:
                energies[True] = traced_solve(ledger, mol)
                traced_s += time.perf_counter() - t0
            else:
                done = _solve(out, mol)
                if done is None:
                    break
                untraced_s += done[0]
                energies[False] = done[1].energy
                degradations += done[1].degradations
                solved.append((done[2], done[1].energy))
        if len(energies) < 2:
            continue
        same = out.check(
            "traced_bitwise", energies[True].hex() == energies[False].hex(),
            f"molecule {idx}: traced {energies[True].hex()} untraced "
            f"{energies[False].hex()}")
        if not (_energy_ok(out, idx, energies[False], observed) and same):
            out.failed += 1
    report_trace(out, ledger, len(solved), traced_s, untraced_s)
    out.metrics["guard.degradations"] = float(degradations)
    report_accuracy(out, solved)
