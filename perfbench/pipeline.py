"""The solve pipelines, timed from outside, one layer call at a time.

:func:`traced_solve` replays the primary rung of ``GuardedSolver`` (and,
with ``guard=False``, ``PolarizationSolver.energy``) through the same
public functions in the same order, each inside a ledger span.  It
uses the same arithmetic on the same arrays, so its energy must equal
the library's bitwise; the workloads assert that, which is what makes
the per-layer numbers describe the program that the untraced runs
time.
"""

from __future__ import annotations

import numpy as np

from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.core.born_octree import approx_integrals, push_integrals_to_atoms
from repro.core.energy_octree import approx_epol_for_leaves, build_charge_buckets
from repro.core.gb import energy_prefactor
from repro.core.solver import PolarizationSolver
from repro.guard.checks import check_born_radii, check_finite, preflight
from repro.guard.solver import GuardPolicy
from repro.guard.watchdog import check_born_subset
from repro.molecules.molecule import Molecule
from repro.molecules.surface import sample_surface
from repro.octree.build import build_octree

from perfbench.context import NaiveReferences
from perfbench.ledger import Ledger
from perfbench.outcome import Outcome

#: Sanity bound on the error against the exact energy.  It catches a
#: broken solver, not the paper's 1% claim, which is reported as
#: measured in ``energy_rel_err_max``.
SANITY_REL_ERR = 0.05

#: ``synthetic_protein``'s own surface settings, so a molecule sampled
#: here is bitwise the one ``synthetic_protein(n, seed)`` returns.
SURFACE = {"subdivisions": 0, "degree": 1}

_TRAVERSAL_FIELDS = ("frontier_visits", "far_evaluations",
                     "near_pair_blocks", "exact_interactions")


def surfaced(atoms: Molecule) -> Molecule:
    return sample_surface(atoms, **SURFACE)


def traced_solve(ledger: Ledger, molecule: Molecule,
                 guard: bool = True) -> float:
    """One solve with the default ``ApproxParams()`` and ``GuardPolicy()``
    and every layer call inside a span; returns E_pol.

    ``molecule`` without a surface is sampled first (the cold path);
    ``guard=False`` skips preflight, sentinels and the watchdog, as
    ``PolarizationSolver`` does.
    """
    params, policy = ApproxParams(), GuardPolicy()
    if molecule.surface is None:
        with ledger.span("molecules.surface"):
            molecule = surfaced(molecule)
        ledger.count("molecules.qpoints", len(molecule.surface.points))
    surf = molecule.require_surface()
    if guard:
        with ledger.span("guard.preflight"):
            preflight(molecule, params)
    with ledger.span("octree.build"):
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
        q_tree = build_octree(surf.points, params.leaf_size,
                              params.max_depth)
    ledger.count("octree.nodes", atoms_tree.nnodes + q_tree.nnodes)
    with ledger.span("born.traverse"):
        wn_sorted = surf.weighted_normals[q_tree.perm]
        s_node, s_atom, bcounts, _ = approx_integrals(
            atoms_tree, q_tree, wn_sorted, params)
    with ledger.span("born.push"):
        radii = atoms_tree.scatter_to_original(push_integrals_to_atoms(
            atoms_tree, s_node, s_atom, molecule.radii[atoms_tree.perm]))
    if guard:
        with ledger.span("guard.sentinel"):
            check_born_radii("born", radii, intrinsic=molecule.radii)
        with ledger.span("guard.watchdog"):
            check_born_subset(molecule, radii, params,
                              seed=policy.watchdog_seed,
                              samples=policy.watchdog_samples,
                              tolerance=policy.watchdog_tolerance)
    with ledger.span("epol.buckets"):
        q_sorted = molecule.charges[atoms_tree.perm]
        r_sorted = np.asarray(radii, dtype=np.float64)[atoms_tree.perm]
        buckets = build_charge_buckets(atoms_tree, q_sorted, r_sorted,
                                       params.eps_epol)
    with ledger.span("epol.traverse"):
        raw, ecounts, _ = approx_epol_for_leaves(
            atoms_tree, q_sorted, r_sorted, buckets, params)
        energy = energy_prefactor(TAU_WATER) * raw
    if guard:
        with ledger.span("guard.sentinel"):
            check_finite("epol", "E_pol", np.asarray(energy))
    m, n = molecule.natoms, len(surf.points)
    for layer, counts, pairs in (("born", bcounts, m * n),
                                 ("epol", ecounts, m * m)):
        for name in _TRAVERSAL_FIELDS:
            ledger.count(f"{layer}.{name}", getattr(counts, name))
        ledger.count(f"{layer}.pairs", pairs)
    ledger.count("epol.nbuckets", buckets.nbuckets)
    return float(energy)


def layer_metrics(ledger: Ledger, ops: int) -> dict:
    """Per-operation means of a traced ledger, by per-layer metric name
    (span ``x`` is metric ``x_s``; counts keep their names)."""
    out = {f"{span}_s": t / ops for span, t in ledger.self_s.items()}
    out.update({name: value / ops for name, value in ledger.counts.items()
                if not name.endswith(".pairs")})
    for layer in ("born", "epol"):
        pairs = ledger.counts.get(f"{layer}.pairs", 0.0)
        if pairs:
            out[f"{layer}.exact_share"] = (
                ledger.counts[f"{layer}.exact_interactions"] / pairs)
    return out


def report_trace(out: Outcome, ledger: Ledger, ops: int, traced_s: float,
                 untraced_s: float) -> None:
    """Per-layer metrics of ``ops`` traced operations, the time no span
    covered, and the cost of tracing against the same untraced work."""
    ops = max(1, ops)
    unattributed = traced_s - ledger.attributed_s()
    out.metrics.update(layer_metrics(ledger, ops))
    out.metrics["unattributed_s"] = unattributed / ops
    out.metrics["trace_overhead_share"] = (
        (traced_s - untraced_s) / untraced_s if untraced_s else 0.0)
    out.record.update(traced_s=traced_s, untraced_s=untraced_s,
                      unattributed_share=(unattributed / traced_s
                                          if traced_s else 0.0))


def report_accuracy(out: Outcome, solved) -> None:
    """``energy_rel_err_max`` of ``(molecule, energy)`` pairs against the
    exact naive energies, which are computed (or read from the cache)
    here, after every timed region."""
    refs = NaiveReferences()
    errors = []
    for mol, approx in solved:
        exact = refs.energy(mol, lambda m=mol: PolarizationSolver(
            m, method="naive").energy())
        errors.append(abs(approx - exact) / abs(exact))
    out.metrics["energy_rel_err_max"] = max(errors, default=0.0)
    out.check("naive_sanity", all(e <= SANITY_REL_ERR for e in errors),
              f"relative errors {errors}")
    out.record.update(energy_rel_errs=errors, naive_computed=refs.computed,
                      naive_reused=refs.reused)
