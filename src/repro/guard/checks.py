"""Preflight validation and runtime numerical sentinels.

Two call styles over the same checks:

* :func:`diagnose_molecule` returns a list of :class:`Diagnostic`
  records (errors, warnings and notes) without raising — this is what
  ``repro doctor`` prints;
* :func:`preflight` raises the first *error*-severity diagnostic as
  the matching typed exception — this is what
  :class:`repro.guard.solver.GuardedSolver` runs before touching the
  kernels.

The sentinel helpers (:func:`check_finite`, :func:`check_positive`,
:func:`check_born_radii`) are the per-phase runtime guards: cheap
vectorised ``isfinite`` scans, run under ``np.errstate`` so the scan
itself never emits floating-point warnings, that convert silent
garbage (NaN/Inf propagating out of a kernel) into a
:class:`~repro.guard.errors.NumericalGuardError` naming the phase and
the offending indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ApproxParams
from repro.guard.errors import (
    DegenerateGeometryError,
    MoleculeFormatError,
    NumericalGuardError,
    format_indices,
)
from repro.molecules.molecule import Molecule

__all__ = [
    "Diagnostic",
    "diagnose_molecule",
    "preflight",
    "check_finite",
    "check_positive",
    "check_born_radii",
    "COINCIDENT_TOL",
    "EXTREME_COORDINATE",
]

#: Two atoms closer than this (Å) are treated as coincident.
COINCIDENT_TOL = 1e-8

#: Coordinates beyond this magnitude (Å) exhaust the Morton grid's
#: useful resolution and flag a likely unit mix-up (nm vs Å, or pm).
EXTREME_COORDINATE = 1e6


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the preflight validator.

    ``severity`` is ``"error"`` (the solve would crash or lie),
    ``"warning"`` (legal but suspicious) or ``"note"``.  ``fixable``
    marks findings ``repro doctor`` can name a concrete fix for, which
    ``hint`` spells out.
    """

    severity: str
    code: str
    message: str
    indices: Tuple[int, ...] = ()
    fixable: bool = False
    hint: str = ""

    def render(self) -> str:
        idx = (f" {format_indices(self.indices)}" if self.indices else "")
        hint = f"  [fix: {self.hint}]" if self.hint else ""
        return f"{self.severity.upper():7s} {self.code} {self.message}{idx}{hint}"


def _nonfinite_indices(arr: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(arr)
    if arr.ndim > 1:
        finite = finite.all(axis=tuple(range(1, arr.ndim)))
    return np.flatnonzero(~finite)


def _coincident_pairs(positions: np.ndarray,
                      tol: float = COINCIDENT_TOL) -> np.ndarray:
    """Indices of atoms that share a position with an earlier atom.

    Sort-and-compare: after a lexicographic sort, every member of a
    coincident cluster is adjacent to another member, so one adjacent
    diff finds them all in O(M log M).
    """
    m = len(positions)
    if m < 2:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort(positions.T)
    sp = positions[order]
    close = np.linalg.norm(np.diff(sp, axis=0), axis=1) <= tol
    hits = np.zeros(m, dtype=bool)
    hits[1:] |= close
    hits[:-1] |= close
    return np.sort(order[hits])


def diagnose_molecule(molecule: Molecule,
                      params: Optional[ApproxParams] = None
                      ) -> List[Diagnostic]:
    """Validate a molecule (and optional params); never raises."""
    out: List[Diagnostic] = []
    pos, q, r = molecule.positions, molecule.charges, molecule.radii

    for name, arr, code in (("positions", pos, "GRD101"),
                            ("charges", q, "GRD102"),
                            ("radii", r, "GRD103")):
        bad = _nonfinite_indices(arr)
        if len(bad):
            out.append(Diagnostic(
                "error", code, f"non-finite {name}", tuple(bad), True,
                f"drop or re-derive the listed atoms' {name}"))

    bad = np.flatnonzero(~(r > 0.0) & np.isfinite(r))
    if len(bad):
        out.append(Diagnostic(
            "error", "GRD104", "non-positive atom radii", tuple(bad), True,
            "assign van der Waals radii (repro.molecules.atom_data)"))

    if not len(_nonfinite_indices(pos)):
        dup = _coincident_pairs(pos)
        if len(dup):
            out.append(Diagnostic(
                "error", "GRD105",
                f"coincident atoms (closer than {COINCIDENT_TOL:g} Å)",
                tuple(dup), True,
                "merge duplicates or perturb one of each pair"))
        with np.errstate(invalid="ignore"):
            extreme = np.flatnonzero(
                np.abs(np.nan_to_num(pos)).max(axis=1) > EXTREME_COORDINATE)
        if len(extreme):
            out.append(Diagnostic(
                "warning", "GRD106",
                f"coordinates beyond {EXTREME_COORDINATE:g} Å "
                f"(unit mix-up?)", tuple(extreme), True,
                "check input units — coordinates must be in Å"))

    if np.all(q == 0.0):
        out.append(Diagnostic(
            "warning", "GRD107", "all charges are zero (E_pol will be 0)",
            (), True, "apply a charge model (PQR input carries charges)"))
    if molecule.natoms == 1:
        out.append(Diagnostic(
            "note", "GRD108", "single-atom molecule: Born radius should "
            "equal the intrinsic radius", ()))

    surf = molecule.surface
    if surf is None:
        out.append(Diagnostic(
            "note", "GRD110", "no surface samples yet (the solver calls "
            "sample_surface automatically)", ()))
    else:
        for name, arr, code in (("surface points", surf.points, "GRD111"),
                                ("surface normals", surf.normals, "GRD111"),
                                ("surface weights", surf.weights, "GRD111")):
            bad = _nonfinite_indices(arr)
            if len(bad):
                out.append(Diagnostic(
                    "error", "GRD111", f"non-finite {name}", tuple(bad),
                    True, "re-run sample_surface on a cleaned molecule"))
        if not len(surf.points):
            out.append(Diagnostic(
                "error", "GRD112", "surface has zero quadrature points",
                (), True, "lower cull_tolerance or check atom radii"))
        elif np.any(surf.weights < 0.0):
            out.append(Diagnostic(
                "warning", "GRD112", "negative quadrature weights",
                tuple(np.flatnonzero(surf.weights < 0.0))))
        if (len(surf.points) and not len(_nonfinite_indices(pos))
                and not len(_nonfinite_indices(surf.points))):
            bad = _atoms_touching_surface(pos, surf.points)
            if len(bad):
                out.append(Diagnostic(
                    "error", "GRD113",
                    "quadrature point coincides with an atom centre "
                    "(singular integrand)", tuple(bad), True,
                    "re-sample the surface or perturb the atom"))

    if params is not None and params.eps_born > 2.0:
        out.append(Diagnostic(
            "warning", "GRD120",
            f"eps_born={params.eps_born:g} is far beyond the paper's "
            f"studied range (0.1–0.9)", (), True,
            "use eps_born <= 0.9 for published accuracy"))
    return out


#: Element budget of one candidate-by-atom distance block in
#: :func:`_atoms_touching_surface`'s exact re-check.
_RECHECK_CHUNK = 1 << 20

#: Spatial-hash mixing primes (Teschner et al. style).
_HASH_P = (np.int64(73856093), np.int64(19349663), np.int64(83492791))


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    """Hash integer grid cells to one int64 key each (overflow wraps)."""
    with np.errstate(over="ignore"):
        return (cells[:, 0] * _HASH_P[0] ^ cells[:, 1] * _HASH_P[1]
                ^ cells[:, 2] * _HASH_P[2])


def _keys_present(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    i = np.searchsorted(sorted_keys, keys)
    i[i == len(sorted_keys)] = 0
    return sorted_keys[i] == keys


def _atoms_touching_surface(pos: np.ndarray, qpts: np.ndarray,
                            tol: float = COINCIDENT_TOL) -> np.ndarray:
    """Atom indices whose centre lies on a quadrature point.

    This check runs in every preflight and must stay far below solve
    time, so the all-miss common case is a vectorised spatial-hash
    join: both point sets are quantised onto a grid much coarser than
    ``tol`` (a within-``tol`` pair shares a cell, up to boundary
    straddle, which only the rare near-boundary points re-check across
    their up-to-8 candidate cells).  Hash collisions and straddle only
    ever *add* candidates; an exact nearest-atom test of the (normally
    empty) candidate set, in chunks against all atoms, keeps the result
    exact without loading scipy on the cold path.
    """
    cell = 1024.0 * tol
    akeys = np.unique(_cell_keys(np.floor(pos / cell).astype(np.int64)))
    scaled = qpts / cell
    base = np.floor(scaled)
    frac = scaled - base
    base = base.astype(np.int64)
    cand = _keys_present(akeys, _cell_keys(base))
    eps = tol / cell
    near = (frac < eps) | (frac > 1.0 - eps)
    straddle = np.flatnonzero(near.any(axis=1))
    if len(straddle):
        lo = base[straddle] - (frac[straddle] < eps)
        hi = base[straddle] + (frac[straddle] > 1.0 - eps)
        scand = np.zeros(len(straddle), dtype=bool)
        for bits in range(1, 8):
            corner = np.where(np.array([bits & 1, bits & 2, bits & 4],
                                       dtype=bool), hi, lo)
            scand |= _keys_present(akeys, _cell_keys(corner))
        cand[straddle] |= scand
    if not cand.any():
        return np.empty(0, dtype=np.int64)
    hits = []
    rows = max(1, _RECHECK_CHUNK // max(len(pos), 1))
    for chunk in np.array_split(qpts[cand], -(-int(cand.sum()) // rows)):
        d2 = np.zeros((len(chunk), len(pos)))
        for k in range(3):
            d2 += np.subtract.outer(chunk[:, k], pos[:, k]) ** 2
        j = np.argmin(d2, axis=1)
        hits.append(j[d2[np.arange(len(j)), j] < tol * tol])
    return np.unique(np.concatenate(hits))


#: Diagnostic code → exception class for :func:`preflight`.
_ERROR_CLASSES = {
    "GRD101": MoleculeFormatError,
    "GRD102": MoleculeFormatError,
    "GRD103": MoleculeFormatError,
    "GRD104": DegenerateGeometryError,
    "GRD105": DegenerateGeometryError,
    "GRD111": MoleculeFormatError,
    "GRD112": DegenerateGeometryError,
    "GRD113": DegenerateGeometryError,
}


def preflight(molecule: Molecule,
              params: Optional[ApproxParams] = None) -> List[Diagnostic]:
    """Raise the first error-severity diagnostic; return all findings.

    The raised type matches the finding: format problems (non-finite
    input arrays) surface as :class:`MoleculeFormatError`, geometry
    problems (coincident atoms, singular surface points) as
    :class:`DegenerateGeometryError`.
    """
    findings = diagnose_molecule(molecule, params)
    for d in findings:
        if d.severity == "error":
            cls = _ERROR_CLASSES.get(d.code, DegenerateGeometryError)
            raise cls(d.message, indices=d.indices, hint=d.hint)
    return findings


# -- runtime sentinels -----------------------------------------------------


def check_finite(phase: str, name: str, arr: np.ndarray,
                 hint: str = "") -> np.ndarray:
    """Raise :class:`NumericalGuardError` if ``arr`` has NaN/Inf."""
    a = np.asarray(arr)
    bad = _nonfinite_indices(a)
    if len(bad):
        raise NumericalGuardError(
            f"non-finite values in {name}", phase=phase, indices=bad,
            hint=hint or "re-run with the naive method to isolate the "
                         "kernel, or file the molecule with repro doctor")
    return arr


def check_positive(phase: str, name: str, arr: np.ndarray,
                   hint: str = "") -> np.ndarray:
    """Finite *and* strictly positive, else :class:`NumericalGuardError`."""
    check_finite(phase, name, arr, hint=hint)
    a = np.asarray(arr)
    bad = np.flatnonzero(~(a > 0.0))
    if len(bad):
        raise NumericalGuardError(
            f"non-positive values in {name}", phase=phase, indices=bad,
            hint=hint)
    return arr


def check_born_radii(phase: str, radii: np.ndarray,
                     intrinsic: Optional[np.ndarray] = None) -> np.ndarray:
    """Sentinel for a Born-radii array: finite, positive and (when the
    intrinsic radii are given) at or above the intrinsic floor the
    push phase guarantees."""
    check_positive(phase, "Born radii", radii,
                   hint="Born radii are floored at the intrinsic radius; "
                        "non-positive values mean a corrupted integral")
    if intrinsic is not None:
        r = np.asarray(radii)
        with np.errstate(invalid="ignore"):
            bad = np.flatnonzero(r < np.asarray(intrinsic) * (1.0 - 1e-12))
        if len(bad):
            raise NumericalGuardError(
                "Born radii below the intrinsic-radius floor",
                phase=phase, indices=bad,
                hint="the push phase enforces R >= r_vdw; smaller values "
                     "mean the radii array was corrupted after the solve")
    return radii
