"""Exact leaf-block kernels shared by every traversal's near field.

Serial, dual-tree and data-distributed traversals hand their exact pair
lists to :func:`born_near_field` and :func:`epol_near_field`.  Blocks
are component-major: ``(3, n)`` coordinates, ``r²`` accumulated one axis
at a time into ``(rows, cols)`` buffers, ``1/r⁶`` and ``1/f_GB`` formed
in place, and final sums without BLAS.  :func:`mirror_pairs` evaluates
each mirrored energy leaf pair once (Eq. 2 is symmetric).  See
DESIGN.md §9.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.gb import fast_rsqrt, inv_fgb_still
from repro.geomutil import ranges_to_indices


def component_major(points: np.ndarray) -> np.ndarray:
    """``(n, 3)`` points as a contiguous ``(3, n)`` array."""
    return np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)


def born_block(a_t: np.ndarray, q_t: np.ndarray, wn_t: np.ndarray,
               approx_math: bool = False) -> np.ndarray:
    """Exact r⁶ Born integrals of atoms ``a_t`` over q-points ``q_t``.

    Returns ``Σ_q ((x_q − x_a)·w_q) / |x_q − x_a|⁶`` for every atom
    ``a``; ``wn_t`` holds the weighted normals ``w_q n_q``.  All three
    arrays are component-major ``(3, n)``.
    """
    d = np.subtract(q_t[0], a_t[0][:, None])
    numer = np.multiply(d, wn_t[0])
    r2 = np.multiply(d, d)
    t = np.empty_like(d)
    for k in (1, 2):
        np.subtract(q_t[k], a_t[k][:, None], out=d)
        np.multiply(d, wn_t[k], out=t)
        numer += t
        d *= d
        r2 += d
    np.maximum(r2, 1e-30, out=r2)
    if approx_math:
        y = fast_rsqrt(r2)
        y *= y
        np.multiply(y, y, out=t)
        t *= y
        numer *= t
    else:
        np.multiply(r2, r2, out=t)
        t *= r2
        numer /= t
    return np.sum(numer, axis=1)


def epol_block(u_t: np.ndarray, qw_u: np.ndarray, R_u: np.ndarray,
               v_t: np.ndarray, q_v: np.ndarray, R_v: np.ndarray,
               approx_math: bool = False) -> float:
    """Exact ``Σ_{a∈U, b∈V} qw_a q_b / f_GB(a, b)`` for two atom blocks.

    ``u_t``/``v_t`` are component-major ``(3, n)`` positions.  ``qw_u``
    is ``U``'s charges, each already multiplied by its pair weight.
    """
    # Rows are V atoms, columns the (gathered, longer) U side, so numpy's
    # inner loops run along the long axis.
    r2 = np.subtract(v_t[0][:, None], u_t[0])
    r2 *= r2
    d = np.empty_like(r2)
    for k in (1, 2):
        np.subtract(v_t[k][:, None], u_t[k], out=d)
        d *= d
        r2 += d
    rr = np.multiply(R_v[:, None], R_u)
    if approx_math:
        inv = inv_fgb_still(r2, rr, approx_math=True)
    else:
        # 1/sqrt(r² + RR·exp(−r²/(4RR))) into one buffer.  Scaling by
        # −4 is exact, so this is gb.inv_fgb_still bit for bit.
        inv = d
        np.multiply((-4.0 * R_v)[:, None], R_u, out=inv)
        np.divide(r2, inv, out=inv)
        np.exp(inv, out=inv)
        inv *= rr
        inv += r2
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
    return float(np.einsum("v,v->", q_v, np.einsum("vu,u->v", inv, qw_u)))


def mirror_pairs(u: np.ndarray, v: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold ordered energy block pairs ``(u[i], v[i])`` into unordered ones.

    Returns ``(lo, hi, weight)`` with ``lo ≤ hi``: one entry per
    distinct unordered pair, weighted by the number of ordered pairs it
    stands for (2 for a pair present in both orders, 1 for an
    asymmetric pair or a ``U == V`` self block).  Pairs come out sorted
    by ``(hi, lo)``.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    width = int(hi.max()) + 1 if len(hi) else 1
    keys, weight = np.unique(hi * width + lo, return_counts=True)
    return keys % width, keys // width, weight.astype(np.int64)


def _grouped(t_lo: np.ndarray, t_hi: np.ndarray,
             s_lo: np.ndarray, s_hi: np.ndarray):
    """Per distinct target range ``[s, e)``, in a stable order: yield
    ``(s, e, block rows, gathered source indices)``."""
    order = np.argsort(t_lo, kind="stable")
    key = t_lo[order]
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        g = order[lo:hi]
        yield (int(t_lo[g[0]]), int(t_hi[g[0]]), g,
               ranges_to_indices(s_lo[g], s_hi[g]))


def born_near_field(s_atom: np.ndarray,
                    a_lo: np.ndarray, a_hi: np.ndarray, a_t: np.ndarray,
                    q_lo: np.ndarray, q_hi: np.ndarray, q_t: np.ndarray,
                    wn_t: np.ndarray, approx_math: bool = False) -> None:
    """Add exact Born blocks into ``s_atom`` (sorted atom order).

    Block ``i`` pairs atoms ``[a_lo[i], a_hi[i])`` of ``a_t`` with
    q-points ``[q_lo[i], q_hi[i])`` of ``q_t``/``wn_t``.  Blocks that
    share an atom range run as one kernel over the gathered q-points,
    in list order.  Atom ranges must be nonempty, equal or disjoint.
    """
    for s, e, _, qsel in _grouped(a_lo, a_hi, q_lo, q_hi):
        s_atom[s:e] += born_block(a_t[:, s:e], q_t[:, qsel],
                                  wn_t[:, qsel], approx_math)


def epol_near_field(u_lo: np.ndarray, u_hi: np.ndarray, u_side: tuple,
                    v_lo: np.ndarray, v_hi: np.ndarray, v_side: tuple,
                    weight: Optional[np.ndarray] = None,
                    approx_math: bool = False) -> float:
    """Raw ``Σ w · q q / f_GB`` over exact energy blocks.

    A side is ``(points_t, charges, born_radii)``.  Block ``i`` pairs
    atoms ``[u_lo[i], u_hi[i])`` of ``u_side`` with ``[v_lo[i], v_hi[i])``
    of ``v_side``, weighted by ``weight[i]`` (1 when ``None``).  Blocks
    sharing a ``v`` range run as one kernel over the gathered ``u``
    atoms; ``v`` ranges must be equal or disjoint.
    """
    u_t, q_u, R_u = u_side
    v_t, q_v, R_v = v_side
    total = 0.0
    for s, e, g, usel in _grouped(v_lo, v_hi, u_lo, u_hi):
        qw = q_u[usel]
        if weight is not None:
            qw = qw * np.repeat(weight[g], u_hi[g] - u_lo[g])
        total += epol_block(u_t[:, usel], qw, R_u[usel],
                            v_t[:, s:e], q_v[s:e], R_v[s:e], approx_math)
    return total
