"""Surface sampling: area exactness, burial culling, normals."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.guard.errors import DegenerateGeometryError
from repro.molecules import surface
from repro.molecules.generator import synthetic_protein
from repro.molecules.molecule import Molecule
from repro.molecules.surface import (
    _unit_sphere_samples,
    exposed_fraction,
    overlapping_pairs,
    sample_surface,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _sphere(radius=2.0, center=(0, 0, 0)):
    return Molecule(np.array([center], dtype=float), np.array([1.0]),
                    np.array([radius]))


class TestSingleSphere:
    def test_area_is_exact(self):
        mol = sample_surface(_sphere(2.0), subdivisions=2, degree=2)
        assert mol.surface.total_area() == pytest.approx(
            4.0 * np.pi * 4.0, rel=1e-12)

    def test_normals_radial_unit(self):
        mol = sample_surface(_sphere(3.0), subdivisions=1, degree=1)
        s = mol.surface
        assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0)
        radial = s.points / np.linalg.norm(s.points, axis=1, keepdims=True)
        assert np.allclose(radial, s.normals, atol=1e-12)

    def test_points_on_sphere(self):
        mol = sample_surface(_sphere(2.5), subdivisions=2, degree=3)
        r = np.linalg.norm(mol.surface.points, axis=1)
        assert np.allclose(r, 2.5, atol=1e-12)

    def test_probe_radius_inflates(self):
        mol = sample_surface(_sphere(2.0), probe_radius=1.4)
        r = np.linalg.norm(mol.surface.points, axis=1)
        assert np.allclose(r, 3.4, atol=1e-12)


class TestBurialCulling:
    def test_fully_buried_atom_contributes_nothing(self):
        mol = Molecule(np.array([[0.0, 0, 0], [0.0, 0, 0.1]]),
                       np.zeros(2), np.array([3.0, 0.5]))
        out = sample_surface(mol, subdivisions=1)
        # All surviving samples sit on the big sphere.
        d_big = np.linalg.norm(out.surface.points, axis=1)
        assert np.allclose(d_big, 3.0, atol=1e-9)

    def test_two_overlapping_spheres_lose_lens_area(self):
        mol = Molecule(np.array([[0.0, 0, 0], [2.0, 0, 0]]),
                       np.zeros(2), np.array([1.5, 1.5]))
        out = sample_surface(mol, subdivisions=2, degree=2)
        full = 2 * 4 * np.pi * 1.5 ** 2
        area = out.surface.total_area()
        assert area < full * 0.95            # lens removed
        assert area > full * 0.5             # but most area survives

    def test_disjoint_spheres_keep_full_area(self):
        mol = Molecule(np.array([[0.0, 0, 0], [10.0, 0, 0]]),
                       np.zeros(2), np.array([1.5, 1.5]))
        out = sample_surface(mol, subdivisions=2, degree=2)
        full = 2 * 4 * np.pi * 1.5 ** 2
        assert out.surface.total_area() == pytest.approx(full, rel=1e-9)

    def test_contained_sphere_fully_culled(self):
        """A sphere strictly inside a bigger one contributes no samples."""
        mol = Molecule(np.array([[0.0, 0, 0], [0.0, 0, 0.1]]),
                       np.zeros(2), np.array([1.0, 3.0]))
        out = sample_surface(mol, subdivisions=1)
        r = np.linalg.norm(out.surface.points - [0.0, 0, 0.1], axis=1)
        assert np.allclose(r, 3.0, atol=1e-9)
        # Total area equals the big sphere's alone.
        assert out.surface.total_area() == pytest.approx(
            4 * np.pi * 9.0, rel=1e-9)

    def test_coincident_equal_spheres_share_surface(self):
        """Two identical coincident spheres: samples sit exactly on both
        surfaces and survive culling (distance == radius is 'on', not
        'inside')."""
        mol = Molecule(np.zeros((2, 3)), np.zeros(2), np.ones(2))
        out = sample_surface(mol, subdivisions=0)
        assert len(out.surface) > 0

    def test_every_sample_buried_is_degenerate(self):
        """A negative tolerance makes coincident equal spheres bury each
        other's samples completely: no surface is left to integrate."""
        mol = Molecule(np.zeros((2, 3)), np.zeros(2), np.ones(2))
        with pytest.raises(DegenerateGeometryError) as info:
            sample_surface(mol, subdivisions=0, cull_tolerance=-1e-6)
        assert info.value.phase == "sample_surface"


class TestExposedFraction:
    def test_isolated_sphere_fraction_one(self):
        mol = sample_surface(_sphere(), subdivisions=1)
        assert exposed_fraction(mol) == pytest.approx(1.0, rel=1e-9)

    def test_protein_fraction_realistic(self, protein_small):
        frac = exposed_fraction(protein_small)
        assert 0.03 < frac < 0.6  # folded proteins bury most sphere area


def _brute_force_surface(molecule, subdivisions, degree, probe_radius,
                         cull_tolerance=1e-9):
    """Reference sampler: the same candidates and buried test as
    :func:`sample_surface`, but an O(M²) all-pairs overlap search, one
    atom at a time, with no cell structure."""
    unit_pts, unit_w = _unit_sphere_samples(subdivisions, degree)
    k = len(unit_pts)
    centers = molecule.positions
    radii = molecule.radii + probe_radius
    m = molecule.natoms
    pts = (centers[:, None, :]
           + radii[:, None, None] * unit_pts[None, :, :]).reshape(-1, 3)
    normals = np.broadcast_to(unit_pts[None, :, :], (m, k, 3)).reshape(-1, 3)
    weights = (radii[:, None] ** 2 * unit_w[None, :]).reshape(-1)
    keep = np.ones(len(pts), dtype=bool)
    for a in range(m):
        d = np.linalg.norm(centers - centers[a], axis=1)
        others = np.flatnonzero(d < radii + radii[a])
        others = others[others != a]
        own = pts[a * k:(a + 1) * k]
        d2 = np.sum((own[None, :, :] - centers[others][:, None, :]) ** 2,
                    axis=2)
        buried = d2 < (radii[others][:, None] - cull_tolerance) ** 2
        keep[a * k:(a + 1) * k] = ~buried.any(axis=0)
    return pts[keep], normals[keep], weights[keep]


@pytest.fixture(scope="module")
def bare_proteins():
    return {(n, seed): synthetic_protein(n, seed=seed, with_surface=False)
            for n in (300, 2000) for seed in (1, 2, 3)}


class TestBruteForceParity:
    """The sampler's cull must match an all-pairs cull bit for bit."""

    @pytest.mark.parametrize("probe_radius", [0.0, 1.4])
    @pytest.mark.parametrize("subdivisions", [0, 1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("natoms", [300, 2000])
    def test_samples_bitwise_equal(self, bare_proteins, natoms, seed,
                                   subdivisions, probe_radius):
        mol = bare_proteins[(natoms, seed)]
        got = sample_surface(mol, subdivisions=subdivisions,
                             probe_radius=probe_radius).surface
        pts, normals, weights = _brute_force_surface(
            mol, subdivisions, 1, probe_radius)
        assert 0 < len(weights) < mol.natoms * len(
            _unit_sphere_samples(subdivisions, 1)[1])
        assert got.points.tobytes() == pts.tobytes()
        assert got.normals.tobytes() == normals.tobytes()
        assert got.weights.tobytes() == weights.tobytes()


def _brute_force_pairs(centers, radii):
    m = len(centers)
    return sorted((a, b) for a in range(m) for b in range(m)
                  if a != b and np.linalg.norm(centers[a] - centers[b])
                  < radii[a] + radii[b])


def _joined_pairs(centers, radii, chunk_atoms=surface._JOIN_CHUNK_ATOMS):
    with mock.patch.object(surface, "_JOIN_CHUNK_ATOMS", chunk_atoms):
        chunks = list(overlapping_pairs(centers, radii))
    pairs = [(int(a), int(b)) for aa, bb in chunks for a, b in zip(aa, bb)]
    assert len(set(pairs)) == len(pairs), "pair produced twice"
    return sorted(pairs)


# Half-integer coordinates and radii make coincident atoms and exactly
# touching pairs (d == r_a + r_b) common; floats cover the rest.
_coord = st.one_of(st.integers(-8, 8).map(lambda i: i / 2.0),
                   st.floats(-30.0, 30.0))
_radius = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                    st.floats(0.1, 3.0))


@st.composite
def _spheres(draw):
    m = draw(st.integers(1, 24))
    centers = np.array(draw(st.lists(st.tuples(_coord, _coord, _coord),
                                     min_size=m, max_size=m)), dtype=float)
    if draw(st.booleans()):
        centers[:, draw(st.integers(0, 2))] = draw(_coord)   # flat
    radii = np.array(draw(st.lists(_radius, min_size=m, max_size=m)))
    return centers, radii


class TestOverlappingPairs:
    """The cell join against an all-pairs search."""

    @given(_spheres(), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    @example((np.zeros((1, 3)), np.ones(1)), 1)                  # m = 1
    @example((np.array([[0.0, 0, 0], [1.5, 0, 0]]),
              np.array([1.0, 1.0])), 1)                          # m = 2
    @example((np.zeros((3, 3)), np.array([1.0, 2.0, 0.5])), 2)   # coincident
    @example((np.array([[0.0, 0, 0], [2.0, 0, 0], [-1.0, -3.0, 0]]),
              np.array([1.0, 1.0, 1.0])), 3)                     # touching
    @example((np.array([[-0.1, -0.2, -0.3], [0.2, 0.1, -0.2],
                        [0.0, 0.3, 0.1]]),
              np.array([3.0, 3.0, 3.0])), 30)                    # one cell
    def test_matches_brute_force(self, spheres, chunk_atoms):
        centers, radii = spheres
        assert (_joined_pairs(centers, radii, chunk_atoms)
                == _brute_force_pairs(centers, radii))

    def test_touching_pair_is_excluded(self):
        centers = np.array([[-3.0, -1.0, -2.0], [-1.0, -1.0, -2.0]])
        assert _joined_pairs(centers, np.array([1.0, 1.0])) == []
        assert _joined_pairs(centers, np.array([1.0, 1.5])) == [
            (0, 1), (1, 0)]

    def test_cell_key_overflow_is_refused(self):
        centers = np.array([[0.0, 0, 0], [1e7, 1e7, 1e7]])
        with pytest.raises(DegenerateGeometryError, match="int64 cell key"):
            list(overlapping_pairs(centers, np.array([0.5, 0.5])))


def test_sample_and_solve_load_no_scipy():
    """The cold path stays numpy-only: importing scipy.spatial would add
    a fixed ~30 MB of resident memory to every solving process."""
    code = (
        "import sys\n"
        "from repro.core.solver import PolarizationSolver\n"
        "from repro.guard.solver import GuardedSolver\n"
        "from repro.molecules import sample_surface, synthetic_protein\n"
        "mol = sample_surface(synthetic_protein(300, seed=1,"
        " with_surface=False), subdivisions=0)\n"
        "GuardedSolver(mol).report()\n"
        "PolarizationSolver(mol).energy()\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]", proc.stdout
