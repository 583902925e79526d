"""Near-field kernels: parity with the einsum formulations they replaced,
the mirrored-pair planner, and solve-level parity with pinned results.

The pinned file ``data/nearfield_pins.npz`` holds, for
``synthetic_protein(n, seed)`` at n ∈ {300, 2000} and seeds 1–3 with
default :class:`ApproxParams`, the energy and ``TraversalCounts`` of the
``octree`` and ``dualtree`` solvers and the octree Born radii, computed
with the per-leaf ``(rows, cols, 3)`` einsum kernels.  Counts must match
exactly; energies and radii may move by summation order only (≤1e-12
relative).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ApproxParams
from repro.core.born_octree import approx_integrals, born_radii_octree
from repro.core.energy_octree import (
    approx_epol_for_leaves,
    build_charge_buckets,
)
from repro.core.gb import fast_rsqrt, inv_fgb_still, pair_energy_matrix
from repro.core.nearfield import (
    born_block,
    component_major,
    epol_block,
    epol_near_field,
    mirror_pairs,
)
from repro.core.solver import PolarizationSolver
from repro.molecules import synthetic_protein
from repro.octree.build import build_octree

PINS = Path(__file__).parent / "data" / "nearfield_pins.npz"
TOL = 1e-12


# -- the kernels these replaced, kept verbatim as references -------------

def _inv_r6_ref(r2, approx_math):
    if approx_math:
        y = fast_rsqrt(np.maximum(r2, 1e-30))
        p = y * y
        return p * p * p
    return 1.0 / np.maximum(r2, 1e-30) ** 3


def born_terms_ref(apts, qpts, wn, approx_math):
    diff = qpts[None, :, :] - apts[:, None, :]
    r2 = np.einsum("aqk,aqk->aq", diff, diff)
    numer = np.einsum("aqk,qk->aq", diff, wn)
    return numer * _inv_r6_ref(r2, approx_math)


def epol_terms_ref(pu, qu, Ru, pv, qv, Rv, approx_math):
    diff = pu[:, None, :] - pv[None, :, :]
    r2 = np.einsum("uvk,uvk->uv", diff, diff)
    inv = inv_fgb_still(r2, Ru[:, None] * Rv[None, :],
                        approx_math=approx_math)
    return qu[:, None] * inv * qv[None, :]


def _born_case(rng, na, nq, coincide):
    apts = rng.normal(scale=3.0, size=(na, 3))
    qpts = rng.normal(scale=3.0, size=(nq, 3))
    if coincide:
        qpts[0] = apts[-1]
    wn = rng.normal(size=(nq, 3))
    return apts, qpts, wn


def _epol_case(rng, nu, nv, coincide):
    pu = rng.normal(scale=3.0, size=(nu, 3))
    pv = rng.normal(scale=3.0, size=(nv, 3))
    if coincide:
        pv[0] = pu[-1]
    return (pu, rng.normal(size=nu), rng.uniform(1.0, 4.0, nu),
            pv, rng.normal(size=nv), rng.uniform(1.0, 4.0, nv))


SHAPES = [(1, 1), (1, 7), (9, 1), (5, 13), (32, 300)]


class TestBornBlock:
    @pytest.mark.parametrize("approx_math", [False, True])
    @pytest.mark.parametrize("na,nq", SHAPES)
    @pytest.mark.parametrize("coincide", [False, True])
    def test_matches_einsum_reference(self, na, nq, coincide, approx_math):
        rng = np.random.default_rng(na * 1000 + nq)
        apts, qpts, wn = _born_case(rng, na, nq, coincide)
        terms = born_terms_ref(apts, qpts, wn, approx_math)
        got = born_block(component_major(apts), component_major(qpts),
                         component_major(wn), approx_math)
        assert got.shape == (na,)
        assert np.all(np.isfinite(got))
        scale = np.abs(terms).sum(axis=1)
        assert np.all(np.abs(got - terms.sum(axis=1)) <= TOL * scale)

    def test_coincident_point_contributes_nothing(self):
        got = born_block(np.zeros((3, 1)), np.zeros((3, 1)),
                         np.ones((3, 1)))
        assert got.tolist() == [0.0]


class TestEpolBlock:
    @pytest.mark.parametrize("approx_math", [False, True])
    @pytest.mark.parametrize("nu,nv", SHAPES)
    @pytest.mark.parametrize("coincide", [False, True])
    def test_matches_einsum_reference(self, nu, nv, coincide, approx_math):
        rng = np.random.default_rng(nu * 1000 + nv + 7)
        pu, qu, Ru, pv, qv, Rv = _epol_case(rng, nu, nv, coincide)
        terms = epol_terms_ref(pu, qu, Ru, pv, qv, Rv, approx_math)
        got = epol_block(component_major(pu), qu, Ru,
                         component_major(pv), qv, Rv, approx_math)
        assert abs(got - terms.sum()) <= TOL * np.abs(terms).sum()

    def test_coincident_atoms_use_born_radius_product(self):
        # f_GB(r=0) = sqrt(R_i R_j).
        got = epol_block(np.zeros((3, 1)), np.array([1.0]), np.array([4.0]),
                         np.zeros((3, 1)), np.array([1.0]), np.array([9.0]))
        assert got == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_pair_energy_matrix_wraps_the_kernel(self):
        rng = np.random.default_rng(3)
        pu, qu, Ru, pv, qv, Rv = _epol_case(rng, 6, 4, False)
        want = epol_block(component_major(pu), qu, Ru,
                          component_major(pv), qv, Rv)
        assert pair_energy_matrix(pu, qu, Ru, pv, qv, Rv) == want


# -- mirrored-pair planner ------------------------------------------------

ordered_pairs = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(pairs=ordered_pairs, data=st.data())
def test_mirror_weights_sum_to_ordered_occurrences(pairs, data):
    # A random sub-list stands in for a v_leaf_subset call's exact list.
    pairs = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))
                      if pairs else st.just(pairs))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    lo, hi, w = mirror_pairs(u, v)
    assert np.all(lo <= hi)
    assert len(set(zip(lo.tolist(), hi.tolist()))) == len(lo)
    for a, b, weight in zip(lo.tolist(), hi.tolist(), w.tolist()):
        ordered = sum(1 for p in pairs if p in ((a, b), (b, a)))
        assert weight == ordered
    assert int(w.sum()) == len(pairs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), npairs=st.integers(1, 25))
def test_weighted_plan_equals_ordered_evaluation(seed, npairs):
    """Evaluating the plan once per unordered pair with its weight gives
    the ordered-pair sum, self blocks and asymmetric pairs included."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 6, size=6)
    end = np.cumsum(sizes)
    start = end - sizes
    n = int(end[-1])
    side = (component_major(rng.normal(scale=3.0, size=(n, 3))),
            rng.normal(size=n), rng.uniform(1.0, 4.0, n))
    u = rng.integers(0, 6, size=npairs)
    v = rng.integers(0, 6, size=npairs)
    want = epol_near_field(start[u], end[u], side, start[v], end[v], side)
    lo, hi, w = mirror_pairs(u, v)
    got = epol_near_field(start[lo], end[lo], side, start[hi], end[hi],
                          side, w)
    # 1/f_GB > 0, so |charges| give the sum of |terms|: the error scale.
    abs_side = (side[0], np.abs(side[1]), side[2])
    scale = epol_near_field(start[u], end[u], abs_side,
                            start[v], end[v], abs_side)
    assert abs(got - want) <= TOL * scale


def test_leaf_subsets_partition_the_energy(protein_small):
    """Each subset call mirrors only within itself; the subsets still sum
    to the whole call, and their ordered counts add up exactly."""
    params = ApproxParams()
    born = born_radii_octree(protein_small, params)
    tree = born.atoms_tree
    q = protein_small.charges[tree.perm]
    R = born.radii[tree.perm]
    buckets = build_charge_buckets(tree, q, R, params.eps_epol)
    full, cfull, _ = approx_epol_for_leaves(tree, q, R, buckets, params)
    rows = np.random.default_rng(5).permutation(len(tree.leaves))
    parts = np.array_split(rows, 3)
    raws, cnts = zip(*[approx_epol_for_leaves(tree, q, R, buckets, params,
                                              v_leaf_subset=np.sort(p))[:2]
                       for p in parts])
    assert sum(raws) == pytest.approx(full, rel=TOL)
    merged = cnts[0].merged(cnts[1]).merged(cnts[2])
    assert merged == cfull


def test_born_subsets_count_ordered_blocks(protein_small):
    params = ApproxParams()
    surf = protein_small.require_surface()
    atoms = build_octree(protein_small.positions, params.leaf_size)
    qtree = build_octree(surf.points, params.leaf_size)
    wn = surf.weighted_normals[qtree.perm]
    _, s_full, c_full, per = approx_integrals(atoms, qtree, wn, params)
    half = len(qtree.leaves) // 2
    parts = [np.arange(half), np.arange(half, len(qtree.leaves))]
    outs = [approx_integrals(atoms, qtree, wn, params, q_leaf_subset=p)
            for p in parts]
    assert outs[0][2].merged(outs[1][2]) == c_full
    assert np.array_equal(np.concatenate([o[3].exact_interactions
                                          for o in outs]),
                          per.exact_interactions)
    s_sum = outs[0][1] + outs[1][1]
    assert np.allclose(s_sum, s_full, rtol=TOL,
                       atol=TOL * np.abs(s_full).max())


# -- solve-level parity with the pinned results ---------------------------

def _counts(result):
    c = result.counts
    return [c.frontier_visits, c.far_evaluations, c.near_pair_blocks,
            c.exact_interactions]


@pytest.mark.parametrize("method", ["octree", "dualtree"])
@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_matches_pinned_reference(n, seed, method):
    pins = np.load(PINS)
    key = f"{method}_{n}_{seed}"
    solver = PolarizationSolver(synthetic_protein(n, seed=seed),
                                ApproxParams(), method=method)
    energy = solver.energy()
    counts = _counts(solver.born_result) + _counts(solver.epol_result)
    assert counts == pins[key + "_counts"].tolist()
    want = float(pins[key + "_energy"])
    assert abs(energy - want) <= TOL * abs(want)
    if key + "_radii" in pins:
        want_r = pins[key + "_radii"]
        got_r = solver.born_radii()
        assert np.all(np.abs(got_r - want_r) <= TOL * want_r)
