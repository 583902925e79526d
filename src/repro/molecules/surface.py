"""Molecular-surface sampling with Gaussian quadrature points.

The paper's r⁶ Born-radius integral (Eq. 4) is a surface integral
evaluated at Gaussian quadrature points of a triangulated molecular
surface, each carrying a weight ``w_k`` and an outward unit normal
``n_k``.  We build the surface as the boundary of the union of atom
spheres (the van der Waals / solvent-excluded surface for probe radius
0): every atom sphere is triangulated by an icosphere and Dunavant
quadrature points are placed on each spherical triangle.

Points buried inside any other atom are then culled together with their
weights.  Only overlapping spheres can bury each other's points, so the
cull first finds every overlapping atom pair with a vectorised cell join
(:func:`overlapping_pairs`), then tests each pair's points in fixed-size
chunks and scatters the verdicts into one burial mask.  A point is
culled if any pair buries it, so neither the pair order nor the chunking
can change which points survive.

For a closed sphere the weights sum to ``4πr²`` by construction, which
gives the library its sharpest correctness test: a single isolated atom
of radius R must come back from the r⁶ solver with Born radius exactly R
(up to quadrature error).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.geomutil import icosphere, ranges_to_indices
from repro.obs import traced
from repro.molecules.molecule import Molecule, SurfaceSamples
from repro.molecules.quadrature import dunavant_rule


def _unit_sphere_samples(subdivisions: int, degree: int):
    """Quadrature points/normals/weights on the unit sphere.

    Points are projected from planar triangle quadrature onto the sphere;
    weights are uniformly rescaled so they sum to exactly ``4π`` (the
    sphere's area), removing the planar-faceting area deficit.
    """
    verts, faces = icosphere(subdivisions)
    tri = verts[faces]                       # (t, 3, 3)
    bary, w = dunavant_rule(degree)
    pts = np.einsum("nk,tkx->tnx", bary, tri)            # (t, n, 3)
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    area = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    weights = (area[:, None] * w[None, :]).reshape(-1)
    pts = pts.reshape(-1, 3)
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / norms                        # project to sphere surface
    weights = weights * (4.0 * np.pi / weights.sum())
    return pts, weights


#: Samples tested per chunk of the burial cull (about 6.5k atom pairs at
#: 20 samples per atom): bounds the cull's temporaries to a few MB.
_CULL_CHUNK_SAMPLES = 1 << 17

#: Atoms whose partners one step of :func:`overlapping_pairs` finds: at
#: protein density about 40k candidate pairs, a few MB of temporaries.
_JOIN_CHUNK_ATOMS = 512

#: The 27 cell offsets of a 3×3×3 neighbourhood, one per row.
_NEIGHBOUR_OFFSETS = np.stack(np.meshgrid(
    [-1, 0, 1], [-1, 0, 1], [-1, 0, 1], indexing="ij"), axis=-1).reshape(-1, 3)


def overlapping_pairs(centers: np.ndarray, radii: np.ndarray
                      ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ordered pairs ``(a, b)``, ``a ≠ b``, of overlapping spheres.

    A pair is kept when ``|c_a − c_b| < r_a + r_b`` (strict, so spheres
    that only touch are not a pair); both orders of every pair are
    produced.  Pairs come as ``int64`` index-array chunks, one chunk per
    ``_JOIN_CHUNK_ATOMS`` first atoms ``a``, so memory stays bounded.

    Centres are binned into cubic cells of edge ``2·max(r)``, so every
    overlapping partner lies in one of the 27 cells around an atom.
    Atoms are sorted by cell key; the atoms of a partner cell are then
    one contiguous range of that order, found with ``searchsorted`` and
    expanded with :func:`ranges_to_indices`.  Each chunk is a handful of
    array operations: there is no Python loop over cells.
    """
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    m = len(centers)
    if m < 2:
        return
    # The relative pad keeps binning round-off from ever putting an
    # overlapping partner two cells away.
    cell = max(2.0 * float(radii.max()) * (1.0 + 1e-9), 1e-6)
    ijk = np.floor((centers - centers.min(axis=0)) / cell).astype(np.int64)
    # One empty layer of cells on each side: a neighbour offset then
    # never wraps into another row of the flattened key.
    dims = ijk.max(axis=0) + 3
    if int(dims[0]) * int(dims[1]) * int(dims[2]) > np.iinfo(np.int64).max:
        from repro.guard.errors import DegenerateGeometryError
        raise DegenerateGeometryError(
            "atoms span too many cells for an int64 cell key",
            phase="sample_surface",
            hint="coordinates are likely corrupt or in the wrong unit")
    strides = np.array([dims[1] * dims[2], dims[2], 1], dtype=np.int64)
    key = (ijk + 1) @ strides
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    shifts = _NEIGHBOUR_OFFSETS @ strides
    axes = [np.ascontiguousarray(x) for x in centers.T]
    for s in range(0, m, _JOIN_CHUNK_ATOMS):
        block = key[s:s + _JOIN_CHUNK_ATOMS]
        want = (block[:, None] + shifts[None, :]).ravel()
        lo = np.searchsorted(sorted_key, want, side="left")
        hi = np.searchsorted(sorted_key, want, side="right")
        rows = np.arange(s, s + len(block), dtype=np.int64)
        a = rows.repeat(len(shifts)).repeat(hi - lo)
        b = order[ranges_to_indices(lo, hi)]
        distinct = a != b
        a, b = a[distinct], b[distinct]
        # |c_a − c_b| summed in the order np.linalg.norm uses.
        dx, dy, dz = (x[a] - x[b] for x in axes)
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        close = d < radii[a] + radii[b]
        if close.any():
            yield a[close], b[close]


@traced("solve.sample_surface")
def sample_surface(molecule: Molecule,
                   subdivisions: int = 1,
                   degree: int = 1,
                   probe_radius: float = 0.0,
                   cull_tolerance: float = 1e-9) -> Molecule:
    """Attach surface quadrature samples to ``molecule``.

    Parameters
    ----------
    molecule:
        Input molecule (its existing surface, if any, is replaced).
    subdivisions:
        Icosphere subdivision level per atom: 20·4^s triangles.
    degree:
        Dunavant quadrature degree per triangle (1 → 1 point, 2 → 3, …).
    probe_radius:
        Solvent probe radius added to every atom radius before sampling
        and culling (0 → van der Waals surface, 1.4 → water SAS).
    cull_tolerance:
        A sample survives only if it lies at least this far outside every
        *other* inflated atom sphere.

    Returns
    -------
    Molecule
        A copy of ``molecule`` carrying :class:`SurfaceSamples` whose
        normals point outward (radially from their parent atom).

    Notes
    -----
    The pair search is numpy only, on purpose.  ``scipy.spatial.cKDTree``
    finds the same pairs, but importing ``scipy.spatial`` also loads
    ``scipy.special`` and adds a fixed 31–36 MB of resident memory to
    every process that samples a surface.  The common sample-and-solve
    path imports no scipy; only the guard's rare exact re-check of atoms
    near a surface point still uses ``cKDTree``.
    """
    unit_pts, unit_w = _unit_sphere_samples(subdivisions, degree)
    k = len(unit_pts)
    centers = molecule.positions
    radii = molecule.radii + probe_radius
    m = molecule.natoms

    # All candidate samples, one row of k per atom.
    pts = centers[:, None, :] + radii[:, None, None] * unit_pts[None, :, :]

    buried = np.zeros((m, k), dtype=bool)
    step = max(1, _CULL_CHUNK_SAMPLES // k)
    for a_all, b_all in overlapping_pairs(centers, radii):
        for s in range(0, len(a_all), step):
            a, b = a_all[s:s + step], b_all[s:s + step]
            # Samples of atoms `a` that fall inside spheres `b`: one
            # (npairs, k) block, |p − c_b|² summed in np.sum's order.
            diff = pts[a] - centers[b][:, None, :]
            diff *= diff
            d2 = diff[..., 0] + diff[..., 1]
            d2 += diff[..., 2]
            pair, sample = np.nonzero(
                d2 < (radii[b][:, None] - cull_tolerance) ** 2)
            # A sample is culled if any pair buries it; the scatter is
            # order-free, so chunking cannot change the mask.
            buried[a[pair], sample] = True
    keep = ~buried.ravel()

    pts = pts.reshape(-1, 3)
    normals = np.broadcast_to(unit_pts[None, :, :], (m, k, 3)).reshape(-1, 3)
    weights = (radii[:, None] ** 2 * unit_w[None, :]).reshape(-1)

    if not keep.any():
        from repro.guard.errors import DegenerateGeometryError
        raise DegenerateGeometryError(
            f"molecule {molecule.name!r}: every surface sample was buried; "
            "geometry is degenerate (all atoms mutually contained)",
            phase="sample_surface",
            hint="run repro doctor — atoms likely coincide or nest")

    surface = SurfaceSamples(pts[keep], normals[keep], weights[keep])
    out = molecule.with_surface(surface)
    return out


def exposed_fraction(molecule: Molecule) -> float:
    """Fraction of the total sphere area that survived burial culling.

    Requires surface samples; useful as a packing-density diagnostic for
    the synthetic generators (folded proteins expose ~25–40 % of their
    total van der Waals sphere area).
    """
    surf = molecule.require_surface()
    full = 4.0 * np.pi * float(np.sum(molecule.radii ** 2))
    return surf.total_area() / full
