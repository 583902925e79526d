"""Data-distributed GB solver — the paper's stated future work.

The paper only implements *work* division ("each process has a complete
set of data", §IV-A) and closes with "distributing data as well as
computation is also an interesting approach to explore".  This module
explores it, in the classic locally-essential-tree style:

1. Atoms and quadrature points are Morton-sorted once and cut into P
   contiguous blocks; rank *r* stores **only** its blocks (memory per
   rank ∝ M/P instead of M).
2. Each rank builds *local* octrees over its blocks.
3. **Summary exchange** (small): every rank allgathers
   (a) its Q-leaf pseudo-q-points — centre, radius, Σ w·n — and
   (b) its atoms-tree skeleton with per-node charge-bucket tables.
4. **Born phase**: a rank accumulates the full r⁶ integral for *its*
   atoms: local q-points via the ordinary traversal; remote Q-leaves
   via their pseudo-q-point when far; when a remote Q-leaf is too close
   for the MAC, its actual points are fetched once as *ghosts* (real
   point-to-point traffic on the simulated MPI).
5. **Energy phase**: a rank computes the energy rows of its atoms:
   local tree as usual; remote ranks through their summary skeletons —
   bucket kernels when far, descending when near, fetching ghost atoms
   (positions, charges, Born radii) at near remote leaves.
6. A scalar ``Reduce`` finishes E_pol.  No O(M) collective ever runs.

Every ordered atom pair is covered exactly once (rows are owned by the
rank holding the row atom), so the result lands within the same ε
envelope as the work-division algorithm — verified in
``tests/parallel/test_datadist.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineSpec, lonestar4
from repro.cluster.simmpi import SimCluster
from repro.cluster.trace import RunStats
from repro.config import ApproxParams
from repro.constants import TAU_WATER
from repro.core.born_octree import (
    _born_far_mask,
    _inv_r6,
    approx_integrals,
    push_integrals_to_atoms,
    qleaf_aggregates,
)
from repro.core.energy_octree import (
    approx_epol_for_leaves,
    build_charge_buckets,
)
from repro.core.gb import energy_prefactor, inv_fgb_still
from repro.core.nearfield import (
    born_near_field,
    component_major,
    epol_near_field,
)
from repro.molecules.molecule import Molecule
from repro.octree import morton
from repro.octree.build import NO_CHILD, Octree, build_octree
from repro.parallel.partition import segment_bounds


@dataclass
class QLeafSummaries:
    """Pseudo-q-point summary of one rank's Q-tree leaves."""

    center: np.ndarray      # (L, 3)
    radius: np.ndarray      # (L,)
    wn: np.ndarray          # (L, 3) Σ w·n per leaf
    start: np.ndarray       # (L,) local sorted-point offsets
    end: np.ndarray

    @classmethod
    def from_tree(cls, q_tree: Octree,
                  wn_sorted: np.ndarray) -> "QLeafSummaries":
        leaves = q_tree.leaves
        return cls(center=q_tree.center[leaves],
                   radius=q_tree.radius[leaves],
                   wn=qleaf_aggregates(q_tree, wn_sorted),
                   start=q_tree.start[leaves],
                   end=q_tree.end[leaves])

    def __len__(self) -> int:
        return len(self.radius)

    def nbytes(self) -> int:
        return (self.center.nbytes + self.radius.nbytes + self.wn.nbytes
                + self.start.nbytes + self.end.nbytes)


@dataclass
class AtomTreeSummary:
    """Skeleton of one rank's atoms octree + charge buckets (no points)."""

    center: np.ndarray      # (n, 3)
    radius: np.ndarray
    children: np.ndarray    # (n, 8)
    is_leaf: np.ndarray
    start: np.ndarray
    end: np.ndarray
    buckets: np.ndarray     # (n, M_ε)

    @classmethod
    def from_tree(cls, tree: Octree, buckets: np.ndarray
                  ) -> "AtomTreeSummary":
        return cls(center=tree.center, radius=tree.radius,
                   children=tree.children, is_leaf=tree.is_leaf,
                   start=tree.start, end=tree.end, buckets=buckets)

    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.center, self.radius,
                                      self.children, self.is_leaf,
                                      self.start, self.end, self.buckets))


@dataclass
class DataDistOutcome:
    """Result of a data-distributed run."""

    energy: float
    born_radii: np.ndarray            # original atom order, full
    stats: RunStats
    #: Per-rank resident bytes (block + summaries + ghosts).
    rank_bytes: List[int]
    #: Total ghost points/atoms fetched across all ranks.
    ghost_qpoints: int
    ghost_atoms: int


def _classify_remote_qleaves(atoms_tree: Octree,
                             summaries: QLeafSummaries,
                             params: ApproxParams
                             ) -> Tuple[np.ndarray, int, List, List]:
    """Traverse the local atoms tree against remote Q-leaf summaries.

    Returns far-field deposits (s_node), the visit count, and the lists
    of (local atoms leaf, remote Q-leaf row) pairs that need the remote
    leaf's actual points.
    """
    nq = len(summaries)
    s_node = np.zeros(atoms_tree.nnodes, dtype=np.float64)
    need_a: List[np.ndarray] = []
    need_q: List[np.ndarray] = []
    visits = 0
    if nq == 0:
        return s_node, 0, [], []

    a_front = np.zeros(nq, dtype=np.int64)
    q_front = np.arange(nq, dtype=np.int64)
    while len(a_front):
        visits += len(a_front)
        dv = summaries.center[q_front] - atoms_tree.center[a_front]
        r2 = np.einsum("ij,ij->i", dv, dv)
        r = np.sqrt(r2)
        rsum = atoms_tree.radius[a_front] + summaries.radius[q_front]
        far = _born_far_mask(r, rsum, params)
        if far.any():
            fa, fq = a_front[far], q_front[far]
            numer = np.einsum("ij,ij->i", summaries.wn[fq], dv[far])
            s_node += np.bincount(fa,
                                  weights=numer * _inv_r6(
                                      r2[far], params.approx_math),
                                  minlength=atoms_tree.nnodes)
        rest = ~far
        ra, rq = a_front[rest], q_front[rest]
        leafmask = atoms_tree.is_leaf[ra]
        if leafmask.any():
            need_a.append(ra[leafmask])
            need_q.append(rq[leafmask])
        ia, iq = ra[~leafmask], rq[~leafmask]
        if len(ia):
            ch = atoms_tree.children[ia]
            valid = ch != NO_CHILD
            a_front = ch[valid]
            q_front = np.repeat(iq, valid.sum(axis=1))
        else:
            a_front = np.empty(0, dtype=np.int64)
            q_front = np.empty(0, dtype=np.int64)
    return s_node, visits, need_a, need_q


def _ghost_ranges(ghosts: Dict[int, tuple], wanted: np.ndarray
                  ) -> Tuple[tuple, np.ndarray, np.ndarray]:
    """Stack fetched ghost arrays into contiguous per-field arrays.

    ``ghosts`` maps a remote leaf key to a tuple of per-point arrays.
    Returns the stacked fields and each ``wanted`` key's row range.
    """
    keys = sorted(ghosts)
    sizes = np.array([len(ghosts[k][0]) for k in keys], dtype=np.int64)
    ends = np.cumsum(sizes)
    fields = tuple(np.concatenate([ghosts[k][f] for k in keys])
                   for f in range(len(ghosts[keys[0]])))
    at = np.searchsorted(np.array(keys, dtype=np.int64), wanted)
    return fields, (ends - sizes)[at], ends[at]


def _energy_vs_remote_tree(atoms_tree: Octree,
                           local_buckets: np.ndarray,
                           remote: AtomTreeSummary,
                           products: np.ndarray,
                           params: ApproxParams
                           ) -> Tuple[float, List[Tuple[int, int]]]:
    """Energy of local V-leaves against one remote summary tree.

    Returns the far-field partial sum plus the (local leaf, remote
    leaf) pairs that need remote ghost atoms for exact evaluation.
    """
    mac = 1.0 + 2.0 / params.eps_epol
    leaves = atoms_tree.leaves
    v_center = atoms_tree.center[leaves]
    v_radius = atoms_tree.radius[leaves]

    nv = len(leaves)
    u_front = np.zeros(nv, dtype=np.int64)   # remote node ids
    v_front = np.arange(nv, dtype=np.int64)  # local leaf rows
    total = 0.0
    need: List[Tuple[int, int]] = []

    while len(u_front):
        dv = v_center[v_front] - remote.center[u_front]
        r = np.sqrt(np.einsum("ij,ij->i", dv, dv))
        far = r > (remote.radius[u_front] + v_radius[v_front]) * mac
        if far.any():
            fu, fv = u_front[far], v_front[far]
            fr2 = (r[far]) ** 2
            k = inv_fgb_still(fr2[:, None, None], products[None, :, :],
                              approx_math=params.approx_math)
            qu = remote.buckets[fu]
            qv = local_buckets[leaves[fv]]
            total += float(np.einsum("ki,kij,kj->", qu, k, qv))
        rest = ~far
        ru, rv = u_front[rest], v_front[rest]
        leafmask = remote.is_leaf[ru]
        for u, v in zip(ru[leafmask], rv[leafmask]):
            need.append((int(v), int(u)))
        iu, iv = ru[~leafmask], rv[~leafmask]
        if len(iu):
            ch = remote.children[iu]
            valid = ch != NO_CHILD
            u_front = ch[valid]
            v_front = np.repeat(iv, valid.sum(axis=1))
        else:
            u_front = np.empty(0, dtype=np.int64)
            v_front = np.empty(0, dtype=np.int64)
    return total, need


def _morton_codes(points: np.ndarray) -> np.ndarray:
    origin, edge = morton.bounding_cube(points)
    return morton.morton_encode(morton.quantize(points, origin, edge))


def _make_blocks(molecule: Molecule, surf, P: int,
                 presort: str, machine, cost) -> list:
    """Deal Morton-contiguous (atoms, q-points) blocks to P ranks.

    ``presort="central"`` sorts in one place (cheap stand-in);
    ``presort="sample"`` runs the real distributed sample sort of
    :mod:`repro.parallel.sample_sort` over the simulated cluster, so no
    rank ever holds the full sorted arrays.
    """
    a_codes = _morton_codes(molecule.positions)
    q_codes = _morton_codes(surf.points)

    if presort == "sample":
        from repro.parallel.sample_sort import sample_sort
        a_payload = np.column_stack([
            molecule.positions, molecule.charges, molecule.radii,
            np.arange(molecule.natoms, dtype=np.float64)])
        a_out = sample_sort(a_codes, P, payload=a_payload,
                            machine=machine, cost=cost)
        q_payload = np.hstack([surf.points, surf.weighted_normals])
        q_out = sample_sort(q_codes, P, payload=q_payload,
                            machine=machine, cost=cost)
        blocks = []
        for r in range(P):
            a = a_out.payload_slabs[r]
            qp = q_out.payload_slabs[r]
            blocks.append({
                "pos": a[:, 0:3].copy(),
                "q": a[:, 3].copy(),
                "rad": a[:, 4].copy(),
                "atom_ids": a[:, 5].astype(np.int64),
                "qpts": qp[:, 0:3].copy(),
                "qwn": qp[:, 3:6].copy(),
            })
        return blocks

    a_order = np.argsort(a_codes, kind="stable")
    q_order = np.argsort(q_codes, kind="stable")
    a_bounds = segment_bounds(molecule.natoms, P)
    q_bounds = segment_bounds(len(surf.points), P)
    blocks = []
    for r in range(P):
        ai = a_order[a_bounds[r]:a_bounds[r + 1]]
        qi = q_order[q_bounds[r]:q_bounds[r + 1]]
        blocks.append({
            "pos": molecule.positions[ai],
            "q": molecule.charges[ai],
            "rad": molecule.radii[ai],
            "atom_ids": ai,
            "qpts": surf.points[qi],
            "qwn": surf.weighted_normals[qi],
        })
    return blocks


def run_data_distributed(molecule: Molecule,
                         params: ApproxParams = ApproxParams(),
                         processes: int = 4,
                         threads: int = 1,
                         machine: Optional[MachineSpec] = None,
                         cost: Optional[CostModel] = None,
                         tau: float = TAU_WATER,
                         presort: str = "central") -> DataDistOutcome:
    """Run the data-distributed algorithm on the simulated cluster.

    ``presort`` selects the Morton-ordering preprocessing: ``"central"``
    (default, one-place argsort) or ``"sample"`` (genuine distributed
    sample sort — see :mod:`repro.parallel.sample_sort`).
    """
    if presort not in ("central", "sample"):
        raise ValueError("presort must be 'central' or 'sample'")
    machine = machine or lonestar4()
    cost = cost or CostModel(machine=machine)
    surf = molecule.require_surface()
    P = processes

    blocks = _make_blocks(molecule, surf, P, presort, machine, cost)

    def rankfn(comm):
        blk = blocks[comm.rank]
        local = Molecule(blk["pos"], blk["q"], blk["rad"],
                         name=f"block{comm.rank}")
        atoms_tree = build_octree(local.positions, params.leaf_size,
                                  params.max_depth)
        q_tree = build_octree(blk["qpts"], params.leaf_size,
                              params.max_depth)
        wn_sorted = blk["qwn"][q_tree.perm]
        local_t = component_major(atoms_tree.points)
        block_bytes = (local.nbytes() + blk["qpts"].nbytes
                       + blk["qwn"].nbytes + atoms_tree.nbytes()
                       + q_tree.nbytes())

        # ---- summary exchange (Born) ----------------------------------
        my_qsum = QLeafSummaries.from_tree(q_tree, wn_sorted)
        all_qsum: List[QLeafSummaries] = comm.allgather(my_qsum)
        summary_bytes = sum(s.nbytes() for s in all_qsum)

        # ---- Born phase ------------------------------------------------
        # Local block: the ordinary single-tree traversal.
        s_node, s_atom, cnt, _ = approx_integrals(
            atoms_tree, q_tree, wn_sorted, params)
        comm.compute(cost.born_compute_seconds(
            cnt.frontier_visits, cnt.far_evaluations,
            cnt.exact_interactions, params.approx_math))

        # Remote blocks: far via summaries, near via ghost fetches.
        wanted: Dict[int, set] = {s: set() for s in range(comm.size)}
        pending = {}
        for s in range(comm.size):
            if s == comm.rank:
                continue
            sn, visits, need_a, need_q = _classify_remote_qleaves(
                atoms_tree, all_qsum[s], params)
            s_node += sn
            comm.compute(cost.born_compute_seconds(visits, visits, 0,
                                                   params.approx_math))
            if need_a:
                na = np.concatenate(need_a)
                nq = np.concatenate(need_q)
            else:
                na = np.empty(0, dtype=np.int64)
                nq = np.empty(0, dtype=np.int64)
            pending[s] = (na, nq)
            wanted[s].update(int(x) for x in np.unique(nq))

        # Ghost request exchange: who needs which of my Q-leaves.
        requests = comm.allgather({s: sorted(w)
                                   for s, w in wanted.items()})
        ghost_q_sent = 0
        for s in range(comm.size):
            if s == comm.rank:
                continue
            rows = requests[s].get(comm.rank, [])
            payload = {}
            for row in rows:
                sl = slice(int(my_qsum.start[row]),
                           int(my_qsum.end[row]))
                payload[row] = (q_tree.points[sl], wn_sorted[sl])
                ghost_q_sent += sl.stop - sl.start
            comm.send(payload, dest=s, tag=1)
        ghost_qpoints = 0
        ghost_bytes = 0
        for s in range(comm.size):
            if s == comm.rank:
                continue
            payload = comm.recv(source=s, tag=1)
            ghost_qpoints += sum(len(p) for p, _ in payload.values())
            ghost_bytes += sum(p.nbytes + w.nbytes
                               for p, w in payload.values())
            na, nq = pending[s]
            if len(na):
                (gp, gw), q_lo, q_hi = _ghost_ranges(payload, nq)
                a_lo, a_hi = atoms_tree.start[na], atoms_tree.end[na]
                born_near_field(s_atom, a_lo, a_hi, local_t, q_lo, q_hi,
                                component_major(gp), component_major(gw),
                                params.approx_math)
                inter = int(((a_hi - a_lo) * (q_hi - q_lo)).sum())
                comm.compute(cost.born_compute_seconds(0, 0, inter,
                                                       params.approx_math))

        intrinsic_sorted = local.radii[atoms_tree.perm]
        radii_sorted = push_integrals_to_atoms(atoms_tree, s_node, s_atom,
                                               intrinsic_sorted)
        comm.compute(cost.push_compute_seconds(local.natoms,
                                               atoms_tree.nnodes))
        R_local = atoms_tree.scatter_to_original(radii_sorted)

        # ---- energy phase ---------------------------------------------
        # Global bucket geometry needs global R_min/R_max.
        r_min = comm.allreduce(float(R_local.min()), op="min")
        r_max = comm.allreduce(float(R_local.max()), op="max")
        q_sorted = local.charges[atoms_tree.perm]
        R_sorted = R_local[atoms_tree.perm]
        buckets = build_charge_buckets(atoms_tree, q_sorted, R_sorted,
                                       params.eps_epol, (r_min, r_max))
        table, products = buckets.table, buckets.products
        m_eps = buckets.nbuckets
        raw, cnt2, _ = approx_epol_for_leaves(
            atoms_tree, q_sorted, R_sorted, buckets, params)
        comm.compute(cost.epol_compute_seconds(
            cnt2.frontier_visits, cnt2.far_evaluations,
            cnt2.exact_interactions, m_eps, params.approx_math))

        # Summary skeleton exchange for remote energy.
        my_asum = AtomTreeSummary.from_tree(atoms_tree, table)
        all_asum: List[AtomTreeSummary] = comm.allgather(my_asum)
        summary_bytes += sum(s.nbytes() for s in all_asum)

        need_atoms: Dict[int, List[Tuple[int, int]]] = {}
        for s in range(comm.size):
            if s == comm.rank:
                continue
            part, need = _energy_vs_remote_tree(
                atoms_tree, table, all_asum[s], products, params)
            raw += part
            need_atoms[s] = need

        # Ghost atom exchange (positions + charges + Born radii).
        reqs = comm.allgather({s: sorted({u for _, u in need})
                               for s, need in need_atoms.items()})
        for s in range(comm.size):
            if s == comm.rank:
                continue
            rows = reqs[s].get(comm.rank, [])
            payload = {}
            for node in rows:
                sl = slice(int(atoms_tree.start[node]),
                           int(atoms_tree.end[node]))
                payload[node] = (atoms_tree.points[sl], q_sorted[sl],
                                 R_sorted[sl])
            comm.send(payload, dest=s, tag=2)
        ghost_atoms = 0
        for s in range(comm.size):
            if s == comm.rank:
                continue
            payload = comm.recv(source=s, tag=2)
            ghost_atoms += sum(len(p) for p, _, _ in payload.values())
            ghost_bytes += sum(p.nbytes + qq.nbytes + rr.nbytes
                               for p, qq, rr in payload.values())
            inter = 0
            if need_atoms[s]:
                vrow, unode = np.array(need_atoms[s], dtype=np.int64).T
                (gp, gq, gR), u_lo, u_hi = _ghost_ranges(payload, unode)
                vleaf = atoms_tree.leaves[vrow]
                v_lo, v_hi = atoms_tree.start[vleaf], atoms_tree.end[vleaf]
                raw += epol_near_field(
                    u_lo, u_hi, (component_major(gp), gq, gR),
                    v_lo, v_hi, (local_t, q_sorted, R_sorted),
                    approx_math=params.approx_math)
                inter = int(((u_hi - u_lo) * (v_hi - v_lo)).sum())
            comm.compute(cost.epol_compute_seconds(0, 0, inter, m_eps,
                                                   params.approx_math))

        comm.charge_memory(block_bytes + summary_bytes + ghost_bytes)
        total_raw = comm.reduce(raw, root=0)
        energy = (energy_prefactor(tau) * total_raw
                  if comm.rank == 0 else None)
        return (energy, blk["atom_ids"], R_local,
                ghost_qpoints, ghost_atoms)

    cluster = SimCluster(P, threads_per_rank=threads, machine=machine,
                         cost=cost)
    results, stats = cluster.run(rankfn)

    radii = np.empty(molecule.natoms, dtype=np.float64)
    ghost_q = 0
    ghost_a = 0
    for energy_r, ids, R_local, gq, ga in results:
        radii[ids] = R_local
        ghost_q += gq
        ghost_a += ga
    return DataDistOutcome(
        energy=results[0][0],
        born_radii=radii,
        stats=stats,
        rank_bytes=[r.memory_bytes for r in stats.ranks],
        ghost_qpoints=ghost_q,
        ghost_atoms=ghost_a,
    )
