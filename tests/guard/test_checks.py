"""Preflight diagnostics and the runtime numerical sentinels."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.config import ApproxParams
from repro.guard import checks
from repro.guard.checks import (
    check_born_radii,
    check_finite,
    check_positive,
    diagnose_molecule,
    preflight,
)
from repro.guard.errors import (
    DegenerateGeometryError,
    MoleculeFormatError,
    NumericalGuardError,
)
from repro.molecules import sample_surface, synthetic_protein
from repro.molecules.molecule import Molecule


def _codes(findings):
    return [d.code for d in findings]


def _mol(pos, q=None, r=None, **kw):
    pos = np.asarray(pos, dtype=np.float64)
    n = len(pos)
    return Molecule(pos,
                    np.ones(n) if q is None else np.asarray(q, float),
                    np.full(n, 1.5) if r is None else np.asarray(r, float),
                    **kw)


class TestDiagnose:
    def test_healthy_molecule_has_no_errors(self):
        mol = synthetic_protein(120, seed=4)
        findings = diagnose_molecule(mol, ApproxParams())
        assert not [d for d in findings if d.severity == "error"]

    def test_nan_positions_flagged(self):
        mol = _mol([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        mol.positions[1, 1] = np.nan
        findings = diagnose_molecule(mol)
        assert "GRD101" in _codes(findings)
        (d,) = [d for d in findings if d.code == "GRD101"]
        assert d.indices == (1,) and d.severity == "error"

    def test_nan_radii_flagged(self):
        mol = _mol([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        mol.radii[0] = np.nan  # NaN passes the constructor's <= 0 check
        assert "GRD103" in _codes(diagnose_molecule(mol))

    def test_coincident_atoms_flagged(self):
        mol = _mol([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        findings = diagnose_molecule(mol)
        (d,) = [d for d in findings if d.code == "GRD105"]
        assert d.indices == (0, 1)

    def test_extreme_coordinates_warn(self):
        mol = _mol([[0.0, 0.0, 0.0], [2.5e6, 0.0, 0.0]])
        (d,) = [d for d in diagnose_molecule(mol) if d.code == "GRD106"]
        assert d.severity == "warning" and d.indices == (1,)

    def test_zero_charges_warn(self):
        mol = _mol([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0]], q=[0.0, 0.0])
        assert "GRD107" in _codes(diagnose_molecule(mol))

    def test_single_atom_noted(self):
        mol = _mol([[0.0, 0.0, 0.0]])
        assert "GRD108" in _codes(diagnose_molecule(mol))

    def test_missing_surface_noted(self):
        mol = _mol([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0]])
        assert "GRD110" in _codes(diagnose_molecule(mol))

    def test_loose_eps_warns(self):
        mol = synthetic_protein(60, seed=4, with_surface=False)
        findings = diagnose_molecule(mol, ApproxParams(eps_born=5.0))
        assert "GRD120" in _codes(findings)

    def test_render_mentions_code_and_fix(self):
        mol = _mol([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        (d,) = [d for d in diagnose_molecule(mol) if d.code == "GRD105"]
        out = d.render()
        assert "GRD105" in out and "[fix:" in out


class TestPreflight:
    def test_healthy_molecule_passes(self):
        mol = synthetic_protein(120, seed=4)
        findings = preflight(mol, ApproxParams())
        assert not [d for d in findings if d.severity == "error"]

    def test_coincident_atoms_raise_geometry_error(self):
        mol = _mol([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometryError):
            preflight(mol)

    def test_nan_positions_raise_format_error(self):
        mol = _mol([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        mol.positions[0, 0] = np.inf
        with pytest.raises(MoleculeFormatError):
            preflight(mol)

    def test_warnings_do_not_raise(self):
        mol = _mol([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0]], q=[0.0, 0.0])
        findings = preflight(mol)
        assert "GRD107" in _codes(findings)


class TestSentinels:
    def test_check_finite_passes_clean(self):
        arr = np.arange(5.0)
        assert check_finite("born", "x", arr) is arr

    def test_check_finite_names_phase_and_indices(self):
        arr = np.array([1.0, np.nan, 3.0, np.inf])
        with pytest.raises(NumericalGuardError) as ei:
            check_finite("epol", "E_pol", arr)
        assert ei.value.phase == "epol"
        assert ei.value.indices == (1, 3)

    def test_check_positive_rejects_zero(self):
        with pytest.raises(NumericalGuardError) as ei:
            check_positive("born", "radii", np.array([1.0, 0.0]))
        assert ei.value.indices == (1,)

    def test_born_radii_floor(self):
        radii = np.array([2.0, 1.0])
        intrinsic = np.array([1.5, 1.5])
        with pytest.raises(NumericalGuardError) as ei:
            check_born_radii("born", radii, intrinsic=intrinsic)
        assert ei.value.indices == (1,)

    def test_born_radii_at_floor_passes(self):
        radii = np.array([1.5, 2.0])
        intrinsic = np.array([1.5, 1.5])
        check_born_radii("born", radii, intrinsic=intrinsic)


class TestSurfaceChecks:
    def test_singular_quadrature_point_is_an_error(self):
        mol = sample_surface(_mol([[0.0, 0.0, 0.0], [7.0, 0.0, 0.0]]))
        # Drop an atom centre exactly onto a quadrature point.
        mol.positions[1] = mol.surface.points[0]
        findings = diagnose_molecule(mol)
        assert "GRD113" in _codes(findings)
        with pytest.raises(DegenerateGeometryError):
            preflight(mol)

    def test_exact_recheck_finds_the_nearest_atom_in_chunks(self):
        rng = np.random.default_rng(4)
        pos = rng.normal(scale=5.0, size=(40, 3))
        qpts = rng.normal(scale=5.0, size=(200, 3))
        qpts[[3, 50, 51, 120]] = pos[[7, 7, 22, 39]] + 1e-9
        with mock.patch.object(checks, "_RECHECK_CHUNK", 50):
            got = checks._atoms_touching_surface(pos, qpts)
        assert got.tolist() == [7, 22, 39]

    def test_planted_coincidence_loads_no_scipy(self):
        """A hit on the singular-integrand check stays numpy-only, so no
        molecule pays scipy's ~30 MB import on the cold path."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.guard.checks import _atoms_touching_surface\n"
            "from repro.molecules import synthetic_protein\n"
            "mol = synthetic_protein(300, seed=1)\n"
            "q = mol.surface.points.copy()\n"
            "q[17] = mol.positions[123]\n"
            "print(_atoms_touching_surface(mol.positions, q).tolist())\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(root / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-2:] == ["[123]", "[]"], \
            proc.stdout
