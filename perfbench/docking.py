"""``docking_scan``: rigid ligand poses against one receptor (§IV-C).

Set-up builds a 2500-atom ``synthetic_protein`` receptor and a 40-atom
``random_ligand``, both with sampled surfaces, and solves each alone
once.  Each timed pose moves the ligand rigidly, merges it with the
receptor and runs ``PolarizationSolver(complex).energy()`` — the
pattern of ``examples/docking_scan.py``.  A pose builds both octrees and
runs both traversals but samples no surface and runs no guard, so a
surface-sampling change predicts no change here while a traversal
change should show.
"""

from __future__ import annotations

import math
import time
import traceback
from typing import Iterator

import numpy as np

from repro.core.solver import PolarizationSolver
from repro.molecules import random_ligand, synthetic_protein
from repro.molecules.molecule import Molecule, SurfaceSamples
from repro.molecules.transform import RigidTransform

from perfbench import stats
from perfbench.cold import timed_setup
from perfbench.context import DeterminismStore, peak_rss_mb
from perfbench.ledger import Ledger
from perfbench.outcome import Outcome
from perfbench.pipeline import report_accuracy, report_trace, traced_solve

RECEPTOR_ATOMS = 2500
LIGAND_ATOMS = 40
#: Gap between the receptor's bounding sphere and the ligand centre (Å).
APPROACH_GAP = 6.0
#: Poses a traced run decomposes (fixed, so its counts repeat).
TRACED_POSES = 6


def setup(seed: int):
    rseed, lseed = (int(s) for s in np.random.default_rng(
        [seed, RECEPTOR_ATOMS]).integers(0, 2**31 - 1, size=2))
    receptor = synthetic_protein(RECEPTOR_ATOMS, seed=rseed,
                                 name="receptor")
    ligand = random_ligand(LIGAND_ATOMS, seed=lseed, name="ligand")
    e_receptor = PolarizationSolver(receptor).energy()
    e_ligand = PolarizationSolver(ligand).energy()
    return receptor, ligand, e_receptor, e_ligand, (rseed, lseed)


def moves(seed: int, receptor: Molecule,
          ligand: Molecule) -> Iterator[RigidTransform]:
    """Seeded poses: the ligand approaches from a random direction at
    grazing distance, spun about a random axis."""
    rng = np.random.default_rng([seed, LIGAND_ATOMS])
    approach = receptor.bounding_radius() + APPROACH_GAP
    while True:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        spin = RigidTransform.rotation_about_axis(
            rng.normal(size=3), rng.uniform(0.0, 2.0 * np.pi))
        yield RigidTransform.translation_of(
            receptor.centroid() + approach * direction
            - ligand.centroid()).compose(spin)


def posed_complex(receptor: Molecule, ligand: Molecule,
                  move: RigidTransform, pose: int) -> Molecule:
    """The receptor merged with the moved ligand, surfaces included."""
    rs, ls = receptor.require_surface(), ligand.require_surface()
    return Molecule(
        np.vstack([receptor.positions, move.apply(ligand.positions)]),
        np.concatenate([receptor.charges, ligand.charges]),
        np.concatenate([receptor.radii, ligand.radii]),
        surface=SurfaceSamples(
            np.vstack([rs.points, move.apply(ls.points)]),
            np.vstack([rs.normals, move.apply_vectors(ls.normals)]),
            np.concatenate([rs.weights, ls.weights])),
        name=f"complex{pose}")


def run(seed: int, seconds: float, trace: bool, run_key: str) -> Outcome:
    out = Outcome()
    (receptor, ligand, e_rec, e_lig, seeds), setup_s, setup_times = \
        timed_setup(lambda: setup(seed))
    out.record.update(setup_times_s=setup_times, molecule_seeds=seeds)
    observed = {"molecule_seeds": f"{seeds[0]},{seeds[1]}",
                "E_receptor": e_rec.hex(), "E_ligand": e_lig.hex()}
    poses = moves(seed, receptor, ligand)
    if trace:
        _traced(out, receptor, ligand, poses, observed)
    else:
        _timed(out, receptor, ligand, poses, seconds, setup_s, observed)
    clashes = DeterminismStore("docking_scan", seed, run_key).check(observed)
    out.check("seed_determinism", not clashes,
              f"differs from an earlier run of this seed: {clashes[:3]}")
    return out


def _pose_ok(out: Outcome, pose: int, energy: float,
             observed: dict) -> bool:
    observed[f"E{pose}"] = float(energy).hex()
    return out.check("finite_energy", math.isfinite(energy),
                     f"pose {pose}: {energy!r}")


def _timed(out, receptor, ligand, poses, seconds, setup_s,
           observed) -> None:
    latencies, good = [], 0
    start = time.perf_counter()
    pose = 0
    while True:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            energy = PolarizationSolver(posed_complex(
                receptor, ligand, next(poses), pose)).energy()
        except Exception:  # lint: ignore[RPR003] — a failed pose is counted
            out.failed += 1
            out.check("pose", False, traceback.format_exc())
        else:
            latencies.append(time.perf_counter() - t0)
            if _pose_ok(out, pose, energy, observed):
                good += 1
            else:
                out.failed += 1
        pose += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    summary = stats.summarize(latencies)
    out.record.update(latency_s=summary, poses=pose, elapsed_s=elapsed)
    out.metrics.update(
        setup_s=setup_s,
        goodput_per_s=good / elapsed,
        peak_rss_mb=peak_rss_mb())


def _traced(out, receptor, ligand, poses, observed) -> None:
    ledger = Ledger()
    untraced_s = traced_s = 0.0
    solved = []
    for pose in range(TRACED_POSES):
        out.attempted += 1
        complex_mol = posed_complex(receptor, ligand, next(poses), pose)
        energies = {}
        for traced in ((False, True) if pose % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced:
                energies[True] = traced_solve(ledger, complex_mol,
                                              guard=False)
                traced_s += time.perf_counter() - t0
            else:
                energies[False] = PolarizationSolver(complex_mol).energy()
                untraced_s += time.perf_counter() - t0
        same = out.check(
            "traced_bitwise", energies[True].hex() == energies[False].hex(),
            f"pose {pose}: traced {energies[True].hex()} untraced "
            f"{energies[False].hex()}")
        if _pose_ok(out, pose, energies[False], observed) and same:
            solved.append((complex_mol, energies[False]))
        else:
            out.failed += 1
    report_trace(out, ledger, TRACED_POSES, traced_s, untraced_s)
    report_accuracy(out, solved)
