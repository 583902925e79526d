"""Octree GB polarization energy — the paper's Fig. 3 algorithm.

``APPROX-EPOL(U, V)`` evaluates the interaction of a *leaf* ``V`` of the
atoms octree with the whole tree: starting from the root,

1. a leaf ``U`` is evaluated exactly (all near ancestors descended);
2. a far internal node (``r_UV > (r_U + r_V)(1 + 2/ε)``) is collapsed to
   its Born-radius *charge buckets*: atoms are binned by Born radius on
   a ``(1+ε)``-geometric grid ``[R_min(1+ε)^k, R_min(1+ε)^{k+1})`` and
   only bucket totals interact —
   ``Σ_{i,j} q_U[i] q_V[j] / f_GB(r_UV, R_min²(1+ε)^{i+j})``;
3. otherwise recursion descends ``U``'s children.

Driving every tree leaf ``V`` against the root covers each *ordered*
atom pair exactly once, which is precisely Eq. 2's double sum (self
pairs included via the ``U == V`` exact block).

As in :mod:`repro.core.born_octree`, the recursion is executed as a
vectorised frontier of ``(U, V)`` index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.core.born_octree import PerSourceCounts, TraversalCounts
from repro.core.gb import energy_prefactor, inv_fgb_still
from repro.core.nearfield import (
    component_major,
    epol_near_field,
    mirror_pairs,
)
from repro.obs import (
    record_bucket_metrics,
    record_traversal_metrics,
    traced,
)
from repro.molecules.molecule import Molecule
from repro.octree.build import NO_CHILD, Octree, build_octree

#: Sentinel cap on the (1+ε) bucket grid.  Legitimate radii are capped
#: at RGBMAX (30 Å) and floored near 1 Å, so even ε = 0.01 needs only
#: ~350 buckets; blowing past this means a corrupted radius stretched
#: the span and almost every bucket would sit empty.
MAX_BUCKETS = 512


@dataclass
class ChargeBuckets:
    """Per-node charge totals binned by Born radius (paper Fig. 3).

    Attributes
    ----------
    table:
        ``(nnodes, M_ε)`` bucket sums ``q_U[k]``.
    r_min, r_max:
        Global Born-radius extremes.
    base:
        Geometric bucket ratio ``1 + ε``.
    products:
        ``(M_ε, M_ε)`` matrix ``R_min²(1+ε)^{i+j}`` — the Born-radius
        product proxy used by the far-field kernel.
    """

    table: np.ndarray
    r_min: float
    r_max: float
    base: float
    products: np.ndarray

    @property
    def nbuckets(self) -> int:
        return self.table.shape[1]


@traced("epol.buckets")
def build_charge_buckets(tree: Octree,
                         charges_sorted: np.ndarray,
                         born_sorted: np.ndarray,
                         eps: float,
                         r_range: Optional[Tuple[float, float]] = None
                         ) -> ChargeBuckets:
    """Bucket every node's charge by Born radius on the (1+ε) grid.

    ``r_range`` fixes the grid's ``(R_min, R_max)``; the data-distributed
    solver passes the global extremes so every rank shares one grid.
    """
    from repro.guard.errors import NumericalGuardError
    R = np.asarray(born_sorted, dtype=np.float64)
    # NaN compares False against <= 0, so non-finite entries need their
    # own sentinel or they silently poison every bucket downstream.
    bad = np.flatnonzero(~np.isfinite(R))
    if len(bad):
        raise NumericalGuardError(
            "non-finite Born radii entering the energy pass",
            phase="epol", indices=bad)
    if np.any(R <= 0):
        raise NumericalGuardError(
            "Born radii must be positive", phase="epol",
            indices=np.flatnonzero(R <= 0))
    r_min, r_max = r_range or (float(R.min()), float(R.max()))
    base = 1.0 + eps
    if r_max > r_min:
        m_eps = int(np.floor(np.log(r_max / r_min) / np.log(base))) + 1
    else:
        m_eps = 1
    if m_eps > MAX_BUCKETS:
        # A (1+ε) grid this wide means a corrupted radius stretched
        # r_max/r_min absurdly; the per-node bucket tables would
        # dominate memory with almost every bucket empty.
        raise NumericalGuardError(
            f"charge-bucket grid exploded to {m_eps} buckets "
            f"(cap {MAX_BUCKETS}); Born radii span "
            f"[{r_min:.3g}, {r_max:.3g}] Å", phase="epol",
            hint="a corrupted radius usually causes this — or raise "
                 "eps_epol")
    bucket = np.zeros(len(R), dtype=np.int64)
    if m_eps > 1:
        bucket = np.clip((np.log(R / r_min) / np.log(base)).astype(np.int64),
                         0, m_eps - 1)

    # A node's bucket table is the sum of its points' (bucket, charge)
    # pairs; compute all nodes in one pass with a cumulative table over
    # the sorted atom order, then slice-differences per node.
    onehot_cum = np.zeros((tree.npoints + 1, m_eps), dtype=np.float64)
    np.add.at(onehot_cum, (np.arange(tree.npoints) + 1, bucket),
              charges_sorted)
    onehot_cum = np.cumsum(onehot_cum, axis=0)
    table = onehot_cum[tree.end] - onehot_cum[tree.start]

    powers = r_min * base ** np.arange(m_eps)
    products = np.outer(powers, powers)
    return ChargeBuckets(table=table, r_min=r_min, r_max=r_max,
                         base=base, products=products)


@traced("epol.traversal")
def approx_epol_for_leaves(atoms_tree: Octree,
                           charges_sorted: np.ndarray,
                           born_sorted: np.ndarray,
                           buckets: ChargeBuckets,
                           params: ApproxParams,
                           v_leaf_subset: Optional[np.ndarray] = None,
                           far_chunk: int = 8192
                           ) -> Tuple[float, TraversalCounts,
                                      PerSourceCounts]:
    """Raw double sum ``Σ q q / f_GB`` for a segment of V-leaves.

    ``v_leaf_subset`` holds positions into ``atoms_tree.leaves`` (the
    per-rank segment of the distributed algorithm); ``None`` means all
    leaves.  Multiply the result by
    :func:`repro.core.gb.energy_prefactor` for kcal/mol.  The value
    depends on the subset at rounding level, because only exact leaf
    pairs with both leaves in it are mirrored; counts do not.
    """
    counts = TraversalCounts()
    leaf_ids = atoms_tree.leaves
    if v_leaf_subset is not None:
        leaf_ids = leaf_ids[np.asarray(v_leaf_subset)]
    nv = len(leaf_ids)
    pv_visits = np.zeros(nv, dtype=np.int64)
    pv_far = np.zeros(nv, dtype=np.int64)
    pv_exact = np.zeros(nv, dtype=np.int64)
    per_source = PerSourceCounts(pv_visits, pv_far, pv_exact)
    if nv == 0:
        return 0.0, counts, per_source

    mac = 1.0 + 2.0 / params.eps_epol
    children = atoms_tree.children
    center = atoms_tree.center
    radius = atoms_tree.radius
    is_leaf = atoms_tree.is_leaf

    v_center = center[leaf_ids]
    v_radius = radius[leaf_ids]
    v_rows = np.arange(nv, dtype=np.int64)

    u_front = np.zeros(nv, dtype=np.int64)
    v_front = v_rows.copy()

    total = 0.0
    exact_u: list = []
    exact_v: list = []

    while len(u_front):
        counts.frontier_visits += len(u_front)
        pv_visits += np.bincount(v_front, minlength=nv)
        leafmask = is_leaf[u_front]
        if leafmask.any():
            exact_u.append(u_front[leafmask])
            exact_v.append(v_front[leafmask])
        u_rest = u_front[~leafmask]
        v_rest = v_front[~leafmask]
        u_front = np.empty(0, dtype=np.int64)
        v_front = np.empty(0, dtype=np.int64)
        if len(u_rest):
            dv = v_center[v_rest] - center[u_rest]
            r2 = np.einsum("ij,ij->i", dv, dv)
            r = np.sqrt(r2)
            far = r > (radius[u_rest] + v_radius[v_rest]) * mac
            if far.any():
                fu, fv = u_rest[far], v_rest[far]
                fr2 = r2[far]
                for lo in range(0, len(fu), far_chunk):
                    sl = slice(lo, min(lo + far_chunk, len(fu)))
                    k = inv_fgb_still(
                        fr2[sl][:, None, None],
                        buckets.products[None, :, :],
                        approx_math=params.approx_math)
                    qu = buckets.table[fu[sl]]
                    qv = buckets.table[leaf_ids[fv[sl]]]
                    total += float(np.einsum("ki,kij,kj->", qu, k, qv))
                counts.far_evaluations += int(far.sum())
                pv_far += np.bincount(fv, minlength=nv)
            near = ~far
            iu, iv = u_rest[near], v_rest[near]
            if len(iu):
                ch = children[iu]
                valid = ch != NO_CHILD
                u_front = ch[valid]
                v_front = np.repeat(iv, valid.sum(axis=1))

    # Exact leaf–leaf blocks.  Counts stay in ordered (U, V) pairs; the
    # values come from mirror_pairs' plan, which evaluates a pair whose
    # mirror is also in this call's list once, with weight 2.
    if exact_u:
        eu = np.concatenate(exact_u)
        ev = np.concatenate(exact_v)
        start, end = atoms_tree.start, atoms_tree.end
        vleaf = leaf_ids[ev]
        block = (end[eu] - start[eu]) * (end[vleaf] - start[vleaf])
        counts.near_pair_blocks += len(eu)
        counts.exact_interactions += int(block.sum())
        np.add.at(pv_exact, ev, block)
        lo, hi, weight = mirror_pairs(eu, vleaf)
        side = (component_major(atoms_tree.points), charges_sorted,
                born_sorted)
        total += epol_near_field(start[lo], end[lo], side,
                                 start[hi], end[hi], side, weight,
                                 params.approx_math)

    return total, counts, per_source


@dataclass
class EpolResult:
    """Output of the octree energy solver (energy in kcal/mol)."""

    energy: float
    counts: TraversalCounts
    buckets: ChargeBuckets
    atoms_tree: Octree
    per_source: Optional[PerSourceCounts] = None


def epol_octree(molecule: Molecule,
                born_radii: np.ndarray,
                params: ApproxParams = ApproxParams(),
                atoms_tree: Optional[Octree] = None,
                tau: float = TAU_WATER) -> EpolResult:
    """Serial octree ``E_pol`` for a whole molecule (kcal/mol)."""
    if atoms_tree is None:
        atoms_tree = build_octree(molecule.positions, params.leaf_size,
                                  params.max_depth)
    q_sorted = molecule.charges[atoms_tree.perm]
    R_sorted = np.asarray(born_radii)[atoms_tree.perm]
    buckets = build_charge_buckets(atoms_tree, q_sorted, R_sorted,
                                   params.eps_epol)
    raw, counts, per_source = approx_epol_for_leaves(
        atoms_tree, q_sorted, R_sorted, buckets, params)
    record_traversal_metrics("epol", counts, per_source)
    record_bucket_metrics(buckets)
    return EpolResult(energy=energy_prefactor(tau) * raw, counts=counts,
                      buckets=buckets, atoms_tree=atoms_tree,
                      per_source=per_source)
