"""Dual-tree traversal — the prior-work algorithm behind ``OCT_CILK``.

The paper's §IV opens by noting the "major difference of our approach
from algorithms presented in [6] is that we only traverse one octree
instead of two".  The *two*-octree scheme of Chowdhury & Bajaj [6,7] is
what the shared-memory ``OCT_CILK`` implementation runs, and Fig. 7
compares the two — so this module implements the dual-tree variant:
both octrees are recursed *simultaneously*, descending the larger of
the current pair until either the MAC admits a pseudo-particle
approximation or both sides are leaves.

Relative to the single-tree scheme, far-field approximation can trigger
with *both* sides collapsed (pseudo-atom × pseudo-q-point), which does
less work per accepted pair but requires depositing into internal nodes
of both trees — for Born radii the deposit side is the atoms tree, so
the bookkeeping stays identical and results remain within the same ε
error envelope.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import ApproxParams
from repro.core.born_octree import (
    BornResult,
    PerSourceCounts,
    TraversalCounts,
    _born_far_mask,
    _inv_r6,
    ancestor_prefix,
    push_integrals_to_atoms,
)
from repro.core.energy_octree import EpolResult, build_charge_buckets
from repro.core.gb import energy_prefactor, inv_fgb_still
from repro.core.nearfield import (
    born_near_field,
    component_major,
    epol_near_field,
    mirror_pairs,
)
from repro.obs import record_bucket_metrics, record_traversal_metrics
from repro.constants import TAU_WATER
from repro.molecules.molecule import Molecule
from repro.octree.build import NO_CHILD, Octree, build_octree

#: Dual-tree MAC safety factor.  The single-tree scheme collapses only
#: one side of a pair, so its distance spread is bounded by that side's
#: radius; the dual-tree scheme replaces *both* nodes by pseudo-points,
#: doubling the worst-case spread — the prior-work criterion therefore
#: demands twice the separation for the same ε.  (This is also why the
#: paper's new single-tree algorithm wins on large molecules, Fig. 7.)
DUAL_MAC_SAFETY = 2.0


def node_aggregates(tree: Octree, values_sorted: np.ndarray) -> np.ndarray:
    """Per-node sums of per-point values via one cumulative pass.

    ``values_sorted`` may be ``(n,)`` or ``(n, k)``; returns
    ``(nnodes,)`` or ``(nnodes, k)``.
    """
    v = np.asarray(values_sorted, dtype=np.float64)
    cum = np.concatenate([np.zeros((1,) + v.shape[1:], dtype=np.float64),
                          np.cumsum(v, axis=0)])
    return cum[tree.end] - cum[tree.start]


def _expand_larger(a: np.ndarray, b: np.ndarray,
                   tree_a: Octree, tree_b: Octree
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Expand the larger-radius side of each (a, b) pair into children.

    A side that is a leaf cannot expand; if both are leaves the pair
    should have been routed to the exact kernel before calling this.
    """
    ra = tree_a.radius[a]
    rb = tree_b.radius[b]
    a_leaf = tree_a.is_leaf[a]
    b_leaf = tree_b.is_leaf[b]
    pick_a = (~a_leaf) & (b_leaf | (ra >= rb))

    out_a = []
    out_b = []
    if pick_a.any():
        ia, ib = a[pick_a], b[pick_a]
        ch = tree_a.children[ia]
        valid = ch != NO_CHILD
        out_a.append(ch[valid])
        out_b.append(np.repeat(ib, valid.sum(axis=1)))
    pick_b = ~pick_a
    if pick_b.any():
        ia, ib = a[pick_b], b[pick_b]
        ch = tree_b.children[ib]
        valid = ch != NO_CHILD
        out_b.append(ch[valid])
        out_a.append(np.repeat(ia, valid.sum(axis=1)))
    if not out_a:
        return (np.empty(0, dtype=np.int64),) * 2
    return np.concatenate(out_a), np.concatenate(out_b)


def _per_leaf_counts(tree: Octree, far_by_node: np.ndarray,
                     exact_by_leaf: np.ndarray) -> PerSourceCounts:
    """Attribute internal-node far evaluations down to leaves.

    A far evaluation at internal node ``A`` stands for work on behalf of
    all atoms under ``A``; we apportion it to descendant leaves in
    proportion to their point counts, so the per-leaf task costs sum to
    the traversal totals.
    """
    node_counts = (tree.end - tree.start).astype(np.float64)
    density = far_by_node / node_counts
    anc = ancestor_prefix(tree, density)
    leaves = tree.leaves
    leaf_counts = node_counts[leaves]
    far_leaf = (anc[leaves] + density[leaves]) * leaf_counts
    return PerSourceCounts(
        visits=np.zeros(len(leaves), dtype=np.int64),
        far=far_leaf,
        exact_interactions=exact_by_leaf[leaves],
    )


def born_radii_dualtree(molecule: Molecule,
                        params: ApproxParams = ApproxParams(),
                        atoms_tree: Optional[Octree] = None,
                        q_tree: Optional[Octree] = None) -> BornResult:
    """r⁶ Born radii via simultaneous dual-tree traversal (refs [6,7])."""
    surf = molecule.require_surface()
    if atoms_tree is None:
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
    if q_tree is None:
        q_tree = build_octree(surf.points, params.leaf_size,
                              params.max_depth)
    wn_sorted = surf.weighted_normals[q_tree.perm]
    wn_node = node_aggregates(q_tree, wn_sorted)

    counts = TraversalCounts()
    s_node = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    s_atom = np.zeros(atoms_tree.npoints, dtype=np.float64)
    # Per-atoms-node far-evaluation tallies; pushed down to leaves at the
    # end to feed the OCT_CILK intra-node task model.
    far_by_anode = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    exact_by_aleaf = np.zeros(atoms_tree.nnodes, dtype=np.float64)

    a_front = np.zeros(1, dtype=np.int64)
    q_front = np.zeros(1, dtype=np.int64)
    exact_a: list = []
    exact_q: list = []

    while len(a_front):
        counts.frontier_visits += len(a_front)
        dv = q_tree.center[q_front] - atoms_tree.center[a_front]
        r2 = np.einsum("ij,ij->i", dv, dv)
        r = np.sqrt(r2)
        rsum = atoms_tree.radius[a_front] + q_tree.radius[q_front]
        far = _born_far_mask(r, DUAL_MAC_SAFETY * rsum, params)
        if far.any():
            fa, fq = a_front[far], q_front[far]
            numer = np.einsum("ij,ij->i", wn_node[fq], dv[far])
            np.add.at(s_node, fa, numer * _inv_r6(r2[far],
                                                  params.approx_math))
            np.add.at(far_by_anode, fa, 1.0)
            counts.far_evaluations += int(far.sum())
        rest = ~far
        ra, rq = a_front[rest], q_front[rest]
        both_leaf = atoms_tree.is_leaf[ra] & q_tree.is_leaf[rq]
        if both_leaf.any():
            exact_a.append(ra[both_leaf])
            exact_q.append(rq[both_leaf])
        ia, iq = ra[~both_leaf], rq[~both_leaf]
        if len(ia):
            a_front, q_front = _expand_larger(ia, iq, atoms_tree, q_tree)
        else:
            a_front = np.empty(0, dtype=np.int64)
            q_front = np.empty(0, dtype=np.int64)

    if exact_a:
        ea = np.concatenate(exact_a)
        eq = np.concatenate(exact_q)
        a_lo, a_hi = atoms_tree.start[ea], atoms_tree.end[ea]
        q_lo, q_hi = q_tree.start[eq], q_tree.end[eq]
        block = (a_hi - a_lo) * (q_hi - q_lo)
        counts.near_pair_blocks += len(ea)
        counts.exact_interactions += int(block.sum())
        np.add.at(exact_by_aleaf, ea, block)
        born_near_field(s_atom, a_lo, a_hi,
                        component_major(atoms_tree.points),
                        q_lo, q_hi, component_major(q_tree.points),
                        component_major(wn_sorted), params.approx_math)

    intrinsic_sorted = molecule.radii[atoms_tree.perm]
    radii_sorted = push_integrals_to_atoms(atoms_tree, s_node, s_atom,
                                           intrinsic_sorted)
    radii = atoms_tree.scatter_to_original(radii_sorted)
    per_source = _per_leaf_counts(atoms_tree, far_by_anode, exact_by_aleaf)
    record_traversal_metrics("born", counts, per_source)
    return BornResult(radii=radii, s_node=s_node, s_atom=s_atom,
                      counts=counts, atoms_tree=atoms_tree,
                      qpoints_tree=q_tree, per_source=per_source)


def epol_dualtree(molecule: Molecule,
                  born_radii: np.ndarray,
                  params: ApproxParams = ApproxParams(),
                  atoms_tree: Optional[Octree] = None,
                  tau: float = TAU_WATER,
                  far_chunk: int = 8192) -> EpolResult:
    """GB energy via dual-tree traversal over (atoms, atoms) node pairs.

    Starting from ``(root, root)`` and splitting disjointly guarantees
    each *ordered* atom pair is counted exactly once, matching Eq. 2.
    """
    if atoms_tree is None:
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
    q_sorted = molecule.charges[atoms_tree.perm]
    R_sorted = np.asarray(born_radii)[atoms_tree.perm]
    buckets = build_charge_buckets(atoms_tree, q_sorted, R_sorted,
                                   params.eps_epol)
    mac = DUAL_MAC_SAFETY * (1.0 + 2.0 / params.eps_epol)
    counts = TraversalCounts()
    far_by_unode = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    exact_by_vleaf = np.zeros(atoms_tree.nnodes, dtype=np.float64)

    u_front = np.zeros(1, dtype=np.int64)
    v_front = np.zeros(1, dtype=np.int64)
    exact_u: list = []
    exact_v: list = []
    total = 0.0

    while len(u_front):
        counts.frontier_visits += len(u_front)
        dv = atoms_tree.center[v_front] - atoms_tree.center[u_front]
        r2 = np.einsum("ij,ij->i", dv, dv)
        r = np.sqrt(r2)
        rsum = atoms_tree.radius[u_front] + atoms_tree.radius[v_front]
        # Never approximate a node against itself (r_UV = 0).
        far = (u_front != v_front) & (r > rsum * mac)
        if far.any():
            fu, fv = u_front[far], v_front[far]
            fr2 = r2[far]
            for lo in range(0, len(fu), far_chunk):
                sl = slice(lo, min(lo + far_chunk, len(fu)))
                k = inv_fgb_still(fr2[sl][:, None, None],
                                  buckets.products[None, :, :],
                                  approx_math=params.approx_math)
                total += float(np.einsum("ki,kij,kj->", buckets.table[fu[sl]],
                                         k, buckets.table[fv[sl]]))
            np.add.at(far_by_unode, fu, 1.0)
            counts.far_evaluations += int(far.sum())
        rest = ~far
        ru, rv = u_front[rest], v_front[rest]
        both_leaf = atoms_tree.is_leaf[ru] & atoms_tree.is_leaf[rv]
        if both_leaf.any():
            exact_u.append(ru[both_leaf])
            exact_v.append(rv[both_leaf])
        iu, iv = ru[~both_leaf], rv[~both_leaf]
        if len(iu):
            u_front, v_front = _expand_larger(iu, iv, atoms_tree, atoms_tree)
        else:
            u_front = np.empty(0, dtype=np.int64)
            v_front = np.empty(0, dtype=np.int64)

    if exact_u:
        eu = np.concatenate(exact_u)
        ev = np.concatenate(exact_v)
        start, end = atoms_tree.start, atoms_tree.end
        block = (end[eu] - start[eu]) * (end[ev] - start[ev])
        counts.near_pair_blocks += len(eu)
        counts.exact_interactions += int(block.sum())
        np.add.at(exact_by_vleaf, ev, block)
        lo, hi, weight = mirror_pairs(eu, ev)
        side = (component_major(atoms_tree.points), q_sorted, R_sorted)
        total += epol_near_field(start[lo], end[lo], side,
                                 start[hi], end[hi], side, weight,
                                 params.approx_math)

    per_source = _per_leaf_counts(atoms_tree, far_by_unode, exact_by_vleaf)
    record_traversal_metrics("epol", counts, per_source)
    record_bucket_metrics(buckets)
    return EpolResult(energy=energy_prefactor(tau) * total, counts=counts,
                      buckets=buckets, atoms_tree=atoms_tree,
                      per_source=per_source)
