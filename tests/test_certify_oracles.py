"""Independent checks of the exact curvature extremes.

* A seeded random-plane sampler, with K evaluated from the full Riemann
  tensor in coordinate components: no sampled plane may beat the reported
  extremes.
* A hypothesis property over admissible windows: the extremes equal the
  eigenvalues of the frame form assembled from the component table, and
  both witness planes attain them.
* A symbolic proof that -2 < K < 0 on every plane where f = 1 + e^-t, the
  bound ``tail_k_bound`` states past the grid.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from solcusp.certify import extremize_k, extremize_point, tail_k_bound
from solcusp.curvature import (
    PAIRS,
    component_table,
    metric_at,
    riemann_closed,
    sectional_curvature,
)
from solcusp.warp import Interpolated, PureExp, ShiftedExp, build_interpolation

from diagnostic_metrics import hyperbolic_metric_point, sol_product_metric_point

N_PLANES = 20_000
# block of each 2-form of PAIRS in the frame form: {xy}, {xz, xt}, {yz, yt}, {zt}
PAIR_BLOCK = np.array([0, 1, 1, 2, 2, 3])


def sampled_curvatures(p, rng, n=N_PLANES):
    """K of n random planes, from R_ijkl u^i v^j u^k v^l / Gram."""
    scales = p.frame_scales()
    u = rng.standard_normal((n, 4)) * scales
    v = rng.standard_normal((n, 4)) * scales
    R = riemann_closed(p).full
    num = np.einsum("ijkl,ni,nj,nk,nl->n", R, u, v, u, v)
    g = np.diag(p.g)
    uu = np.einsum("ni,i,ni->n", u, g, u)
    vv = np.einsum("ni,i,ni->n", v, g, v)
    uv = np.einsum("ni,i,ni->n", u, g, v)
    gram = uu * vv - uv * uv
    keep = gram > 1e-6 * uu * vv
    return num[keep] / gram[keep]


ORACLE_POINTS = (
    [(f"pure-exp t={t}", metric_at(PureExp(), t, 0.0)) for t in (-5.0, -2.0, -0.5)]
    + [(f"shifted-exp t={t}", metric_at(ShiftedExp(), t, 0.0))
       for t in (-5.0, -1.0, 0.5, 4.0, 9.0)]
    + [(f"interpolated t={t}", metric_at(Interpolated(-4.0, -1.0), t, 0.0))
       for t in (-5.0, -3.5, -2.5, -1.5, -0.5, 3.0)]
    + [("hyperbolic", hyperbolic_metric_point(0.3)),
       ("sol-product", sol_product_metric_point(0.4))]
)


@pytest.mark.parametrize("name,p", ORACLE_POINTS, ids=[n for n, _ in ORACLE_POINTS])
def test_sampled_planes_never_beat_the_exact_extremes(name, p):
    b = extremize_point(p)
    k = sampled_curvatures(p, np.random.default_rng(20240607))
    assert k.size > 0.9 * N_PLANES
    assert k.min() >= b.k_min - 1e-12 * max(1.0, abs(b.k_min))
    assert k.max() <= b.k_max + 1e-12 * max(1.0, abs(b.k_max))
    # and the extremes are not loose: the sampler gets close to them
    assert k.min() <= b.k_min + 0.05 * max(1.0, abs(b.k_min))
    assert k.max() >= b.k_max - 0.05 * max(1.0, abs(b.k_max))


def table_form(warp, t, z):
    """6x6 frame form assembled from the eight tabulated components."""
    scales = metric_at(warp, t, z).frame_scales()
    Q = np.zeros((6, 6))
    for (i, j, k, l), value in component_table(warp, t, z).items():
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -sign
        if k > l:
            k, l, sign = l, k, -sign
        a, b = PAIRS.index((i, j)), PAIRS.index((k, l))
        Q[a, b] = Q[b, a] = sign * value * np.prod(scales[[i, j, k, l]])
    return Q


@settings(max_examples=80, deadline=None)
@given(
    t_hi=st.floats(min_value=-1.5, max_value=-0.1),
    width=st.floats(min_value=0.5, max_value=4.0),
    t=st.floats(min_value=-8.0, max_value=12.0),
    z=st.floats(min_value=-1.0, max_value=1.0),
)
def test_extremes_match_table_form_and_witnesses(t_hi, width, t, z):
    warp = build_interpolation(t_hi - width, t_hi)
    b = extremize_k(warp, t)
    eig = np.linalg.eigvalsh(table_form(warp, t, z))
    assert abs(b.k_min - eig[0]) <= 1e-12 * max(1.0, abs(eig[0]))
    assert abs(b.k_max - eig[-1]) <= 1e-12 * max(1.0, abs(eig[-1]))
    assert b.method_agreement <= 1e-12
    # exact zeros between the blocks keep every eigenvector, and so every
    # witness, inside one block
    Q = riemann_closed(metric_at(warp, t, z)).pair_matrix(frame=True)
    assert np.all(Q[PAIR_BLOCK[:, None] != PAIR_BLOCK] == 0.0)
    p = metric_at(warp, t, 0.0)
    R = riemann_closed(p)
    for k, plane in ((b.k_min, b.argmin_plane), (b.k_max, b.argmax_plane)):
        uc, vc = plane.plane_coord()
        assert abs(sectional_curvature(R, p, uc, vc) - k) <= 1e-12 * max(1.0, abs(k))


# ---------------------------------------------------------------------------
# symbolic proof of the tail bound
# ---------------------------------------------------------------------------

def symbolic_frame_form():
    """Frame form of the cusp metric with f = 1 + e^-t, in e = e^-t.

    Riemann tensor from the metric by the library's convention,
    R_ijkl = g_im (d_k G^m_lj - d_l G^m_kj + G^m_kp G^p_lj - G^m_lp G^p_kj),
    coordinates (x, y, z, t); returns the 6x6 matrix and the symbols.
    """
    x, y, z, t = coords = sp.symbols("x y z t", real=True)
    e = sp.symbols("e", positive=True)
    f = 1 + sp.exp(-t)
    g = sp.diag(sp.exp(-2 * t - 2 * z), sp.exp(-2 * t + 2 * z), f**2, 1)
    gi = g.inv()
    n = 4
    gam = [[[sum(gi[m, q] * (sp.diff(g[q, j], coords[k]) + sp.diff(g[q, k], coords[j])
                             - sp.diff(g[j, k], coords[q])) for q in range(n)) / 2
             for k in range(n)] for j in range(n)] for m in range(n)]

    def riemann(i, j, k, l):
        up = [sp.diff(gam[m][l][j], coords[k]) - sp.diff(gam[m][k][j], coords[l])
              + sum(gam[m][k][p] * gam[p][l][j] - gam[m][l][p] * gam[p][k][j]
                    for p in range(n))
              for m in range(n)]
        return sum(g[i, m] * up[m] for m in range(n))

    Q = sp.zeros(6, 6)
    for a, (i, j) in enumerate(PAIRS):
        for b, (k, l) in enumerate(PAIRS):
            norm = sp.sqrt(g[i, i] * g[j, j] * g[k, k] * g[l, l])
            Q[a, b] = sp.simplify(
                (riemann(i, j, k, l) / norm).subs(sp.exp(-t), e).subs(sp.exp(t), 1 / e))
    return Q, e, t, z


def positive_for_positive_e(expr, e):
    """True when expr is a ratio of nonzero polynomials in e whose
    coefficients are all >= 0 (or all <= 0 in both): then expr > 0 for e > 0."""
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    signs = []
    for part in (num, den):
        coeffs = sp.Poly(sp.expand(part), e).all_coeffs()
        if all(c >= 0 for c in coeffs) and any(c != 0 for c in coeffs):
            signs.append(1)
        elif all(c <= 0 for c in coeffs) and any(c != 0 for c in coeffs):
            signs.append(-1)
        else:
            return False
    return signs[0] == signs[1]


@pytest.fixture(scope="module")
def shifted_form():
    return symbolic_frame_form()


def test_symbolic_form_matches_the_closed_pipeline(shifted_form):
    Q, e, t, z = shifted_form
    assert all(sp.simplify(sp.diff(q, z)) == 0 for q in Q)
    Qf = sp.lambdify(e, Q)
    for tv in (-2.0, 0.0, 1.5, 6.0):
        got = riemann_closed(metric_at(ShiftedExp(), tv, 0.3)).pair_matrix(frame=True)
        assert np.max(np.abs(np.array(Qf(np.exp(-tv)), dtype=float) - got)) <= 1e-12


def test_shifted_regime_curvature_lies_in_minus_two_to_zero(shifted_form):
    Q, e, _, _ = shifted_form
    # block-diagonal over {xy}, {xz, xt}, {yz, yt}, {zt}
    blocks = [[0], [1, 2], [3, 4], [5]]
    block_of = {a: n for n, blk in enumerate(blocks) for a in blk}
    for a in range(6):
        for b in range(6):
            if block_of[a] != block_of[b]:
                assert Q[a, b] == 0
    # the pair bound quoted for {xz, xt}
    a11 = Q[1, 1] + 2
    det = (Q[1, 1] + 2) * (Q[2, 2] + 2) - Q[1, 2] ** 2
    assert sp.simplify(a11 - (1 + 3 * e + e**2) / (1 + e) ** 2) == 0
    assert sp.simplify(det - ((1 + 3 * e + e**2) * (1 + e) ** 2 - 1) / (1 + e) ** 4) == 0
    # Sylvester: Q + 2I and -Q are positive definite on every block, so
    # -2 < lambda_min(Q) <= K <= lambda_max(Q) < 0 on every plane
    for shift in (sp.eye(6) * 2 + Q, -Q):
        for blk in blocks:
            a = blk[0]
            assert positive_for_positive_e(shift[a, a], e)
            if len(blk) == 2:
                b = blk[1]
                assert positive_for_positive_e(
                    shift[a, a] * shift[b, b] - shift[a, b] ** 2, e)
    assert tail_k_bound(ShiftedExp(), 0.0) == -2.0
