"""Octree construction over Morton-sorted points.

The tree is stored as flat numpy arrays ("structure of arrays"), one
entry per node, with children discovered by binary search on the sorted
Morton codes — so construction is O(n log n) and the memory footprint is
linear in the number of points, *independent of any approximation
parameter* (the paper's key advantage over cutoff nonbonded lists).

Every node owns the contiguous slice ``[start, end)`` of the sorted
point arrays.  Solvers attach their own per-node aggregate payloads
(charge buckets, weighted-normal sums) as plain arrays indexed by node
id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.obs import traced
from repro.octree import morton
from repro.molecules.transform import RigidTransform

#: Sentinel for "no child" in the children table.
NO_CHILD = -1


@dataclass
class Octree:
    """A built octree over a point set.

    Attributes
    ----------
    points:
        ``(n, 3)`` points in Morton order (a *copy*, sorted).
    perm:
        ``(n,)`` original index of each sorted point, i.e.
        ``points[i] == original_points[perm[i]]``.
    start, end:
        ``(nnodes,)`` — node *i* owns sorted points ``start[i]:end[i]``.
    children:
        ``(nnodes, 8)`` child node ids, :data:`NO_CHILD` where absent.
    parent:
        ``(nnodes,)`` parent node id, −1 at the root.
    depth:
        ``(nnodes,)`` node depth (root = 0).
    center:
        ``(nnodes, 3)`` geometric centre of each node's points (the
        pseudo-particle position used by the far-field approximation).
    radius:
        ``(nnodes,)`` radius of the smallest ``center``-centred ball
        enclosing the node's points.
    is_leaf:
        ``(nnodes,)`` boolean.
    leaves:
        ids of all leaf nodes, ordered by ``start`` (i.e. in Morton
        order), which is the order the paper's static work division
        slices into per-process segments.
    """

    points: np.ndarray
    perm: np.ndarray
    start: np.ndarray
    end: np.ndarray
    children: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    is_leaf: np.ndarray
    leaves: np.ndarray
    leaf_size: int
    build_ops: int = 0

    @property
    def nnodes(self) -> int:
        return len(self.start)

    @property
    def npoints(self) -> int:
        return len(self.points)

    @property
    def root(self) -> int:
        return 0

    def count(self, node: int) -> int:
        """Number of points under ``node``."""
        return int(self.end[node] - self.start[node])

    def slice_of(self, node: int) -> slice:
        """Sorted-array slice owned by ``node``."""
        return slice(int(self.start[node]), int(self.end[node]))

    def child_ids(self, node: int) -> np.ndarray:
        """Existing children of ``node``."""
        ch = self.children[node]
        return ch[ch != NO_CHILD]

    def max_depth(self) -> int:
        return int(self.depth.max())

    def nbytes(self) -> int:
        """Bytes of live array data (memory model input)."""
        total = 0
        for arr in (self.points, self.perm, self.start, self.end,
                    self.children, self.parent, self.depth, self.center,
                    self.radius, self.is_leaf, self.leaves):
            total += arr.nbytes
        return total

    def gather_sorted(self, values: np.ndarray) -> np.ndarray:
        """Reorder per-point ``values`` (original order) into tree order."""
        return np.asarray(values)[self.perm]

    def scatter_to_original(self, values_sorted: np.ndarray) -> np.ndarray:
        """Reorder per-point tree-order values back to the original order."""
        out = np.empty_like(values_sorted)
        out[self.perm] = values_sorted
        return out

    def transformed(self, transform: RigidTransform) -> "Octree":
        """Apply a rigid transform without rebuilding (paper §IV-C Step 1).

        Topology, slices, permutation and radii are reused; only points
        and node centres move.  This is what makes octree construction a
        one-time preprocessing cost in docking scans.
        """
        return Octree(
            points=transform.apply(self.points),
            perm=self.perm,
            start=self.start,
            end=self.end,
            children=self.children,
            parent=self.parent,
            depth=self.depth,
            center=transform.apply(self.center),
            radius=self.radius,
            is_leaf=self.is_leaf,
            leaves=self.leaves,
            leaf_size=self.leaf_size,
            build_ops=0,
        )


@traced("solve.octree_build")
def build_octree(points: np.ndarray,
                 leaf_size: int = 32,
                 max_depth: int = morton.BITS_PER_AXIS) -> Octree:
    """Build an octree over ``points``.

    A node is subdivided while it holds more than ``leaf_size`` points
    and is shallower than ``max_depth``.  Empty octants produce no node
    (the children table stores :data:`NO_CHILD`).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    n = len(pts)
    if n == 0:
        raise ValueError("cannot build an octree over zero points")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    if not 1 <= max_depth <= morton.BITS_PER_AXIS:
        raise ValueError(f"max_depth must be in [1, {morton.BITS_PER_AXIS}]")

    origin, edge = morton.bounding_cube(pts)
    codes = morton.morton_encode(morton.quantize(pts, origin, edge))
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    pts_sorted = pts[order]

    # Flat-array accumulation; nodes appended in DFS order so a parent
    # always precedes its children (useful for top-down passes).
    start: List[int] = []
    end: List[int] = []
    children: List[List[int]] = []
    parent: List[int] = []
    depth_l: List[int] = []
    build_ops = 0

    # Iterative DFS with an explicit stack: (start, end, depth, parent_id,
    # parent_slot).
    stack = [(0, n, 0, -1, -1)]
    while stack:
        s, e, d, par, slot = stack.pop()
        node_id = len(start)
        start.append(s)
        end.append(e)
        children.append([NO_CHILD] * 8)
        parent.append(par)
        depth_l.append(d)
        if par >= 0:
            children[par][slot] = node_id
        count = e - s
        build_ops += count
        if count <= leaf_size or d >= max_depth:
            continue
        # Split [s, e) into octants by the 3 Morton bits at this depth.
        oct_bits = morton.octant_at_depth(codes[s:e], d)
        # codes are sorted, so octants are contiguous runs.
        boundaries = np.searchsorted(oct_bits, np.arange(9))
        for o in range(7, -1, -1):  # reversed so DFS visits octant 0 first
            cs, ce = s + boundaries[o], s + boundaries[o + 1]
            if ce > cs:
                stack.append((cs, ce, d + 1, node_id, o))

    start_a = np.array(start, dtype=np.int64)
    end_a = np.array(end, dtype=np.int64)
    children_a = np.array(children, dtype=np.int64)
    parent_a = np.array(parent, dtype=np.int64)
    depth_a = np.array(depth_l, dtype=np.int64)
    nnodes = len(start_a)

    # A node is a leaf iff it produced no children.
    is_leaf = np.all(children_a == NO_CHILD, axis=1)

    # Node centres and enclosing radii, one node at a time.  A reduceat
    # segment sum would not be bitwise equal to ``mean`` (which sums
    # pairwise), and both trees together build in a few hundredths of
    # a second, so the loop stays.
    center = np.empty((nnodes, 3), dtype=np.float64)
    radius = np.empty(nnodes, dtype=np.float64)
    for i in range(nnodes):
        sl = slice(start_a[i], end_a[i])
        c = pts_sorted[sl].mean(axis=0)
        center[i] = c
        d2 = np.sum((pts_sorted[sl] - c) ** 2, axis=1)
        radius[i] = np.sqrt(d2.max())

    leaf_ids = np.flatnonzero(is_leaf)
    leaf_ids = leaf_ids[np.argsort(start_a[leaf_ids], kind="stable")]

    return Octree(
        points=pts_sorted,
        perm=order.astype(np.int64),
        start=start_a,
        end=end_a,
        children=children_a,
        parent=parent_a,
        depth=depth_a,
        center=center,
        radius=radius,
        is_leaf=is_leaf,
        leaves=leaf_ids,
        leaf_size=leaf_size,
        build_ops=build_ops,
    )
