"""Independent checks of the exact curvature extremes.

* A seeded random-plane sampler, with K evaluated from the full Riemann
  tensor in coordinate components: no sampled plane may beat the reported
  extremes.
* A hypothesis property over admissible windows: the extremes equal the
  eigenvalues of the frame form assembled from the component table, and
  the planes of both attaining blocks attain them.
* A symbolic proof that -2 < K < 0 on every plane where f = 1 + e^-t, and
  the exact frame form where f = e^-t: K = -1 on the t-planes, e^2t - 1 on
  xy and -e^2t - 1 on xz and yz.
* A symbolic proof, for any f > 0, of the four-block frame form and of the
  eigenvalues ``certify``'s closed-form kernel computes from it, and of
  the pinching lemma ``certify`` decides from: -2 < K < 0 on every plane
  wherever f > 1, -f <= f' < 0, 0 < f'' < 2f and margin d > 0.
* Symbolic limits that make that range exact: K tends to -2 and to 0 as
  (f, f', f'') -> (1, 0, 0), on the shifted tail t -> oo, and on pure-exp
  as t -> 0-, so lambda^2 = 2 is the least scale.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from solcusp.certify import extremize_k, extremize_point
from solcusp.curvature import (
    PAIRS,
    component_table,
    metric_at,
    riemann_closed,
)
from solcusp.warp import Interpolated, PureExp, ShiftedExp, build_interpolation

from diagnostic_metrics import (
    frame_scales,
    hyperbolic_metric_point,
    sectional_curvature,
    sol_product_metric_point,
    witness_plane,
)

N_PLANES = 20_000
# block of each 2-form of PAIRS in the frame form: {xy}, {xz, xt}, {yz, yt}, {zt}
PAIR_BLOCK = np.array([0, 1, 1, 2, 2, 3])


def sampled_curvatures(p, rng, n=N_PLANES):
    """K of n random planes, from R_ijkl u^i v^j u^k v^l / Gram."""
    scales = frame_scales(p)
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
    k_min, k_max = extremize_point(p)
    k = sampled_curvatures(p, np.random.default_rng(20240607))
    assert k.size > 0.9 * N_PLANES
    assert k.min() >= k_min - 1e-12 * max(1.0, abs(k_min))
    assert k.max() <= k_max + 1e-12 * max(1.0, abs(k_max))
    # and the extremes are not loose: the sampler gets close to them
    assert k.min() <= k_min + 0.05 * max(1.0, abs(k_min))
    assert k.max() >= k_max - 0.05 * max(1.0, abs(k_max))


def table_form(warp, t, z):
    """6x6 frame form assembled from the eight tabulated components."""
    scales = frame_scales(metric_at(warp, t, z))
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
    # exact zeros between the blocks keep every eigenvector, and so every
    # witness, inside one block
    Q = riemann_closed(metric_at(warp, t, z)).pair_matrix(frame=True)
    assert np.all(Q[PAIR_BLOCK[:, None] != PAIR_BLOCK] == 0.0)
    p = metric_at(warp, t, 0.0)
    R = riemann_closed(p)
    scales = frame_scales(p)
    for k, code, lowest in ((b.k_min, b.block_min, True), (b.k_max, b.block_max, False)):
        uc, vc = witness_plane(warp, t, code, lowest) * scales
        assert abs(sectional_curvature(R, p, uc, vc) - k) <= 1e-12 * max(1.0, abs(k))


# ---------------------------------------------------------------------------
# symbolic proof of the tail bound
# ---------------------------------------------------------------------------

def symbolic_frame_form(warp):
    """Frame form of the cusp metric with f = warp(t), in e = e^-t.

    Riemann tensor from the metric by the library's convention,
    R_ijkl = g_im (d_k G^m_lj - d_l G^m_kj + G^m_kp G^p_lj - G^m_lp G^p_kj),
    coordinates (x, y, z, t); returns the 6x6 matrix and the symbols.
    """
    x, y, z, t = coords = sp.symbols("x y z t", real=True)
    e = sp.symbols("e", positive=True)
    f = warp(t)
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
    return symbolic_frame_form(lambda t: 1 + sp.exp(-t))


@pytest.fixture(scope="module")
def pure_exp_form():
    return symbolic_frame_form(lambda t: sp.exp(-t))


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


def test_pure_exp_regime_frame_form_is_exact(pure_exp_form):
    Q, e, _, _ = pure_exp_form
    # no z, and in PAIRS order xy, xz, xt, yz, yt, zt with e^2t = 1/e^2:
    # zero outside the four blocks and inside them, K(xt) = K(yt) = K(zt) = -1,
    # K(xy) = e^2t - 1 and K(xz) = K(yz) = -e^2t - 1
    assert set().union(*(q.free_symbols for q in Q)) <= {e}
    e2t = 1 / e**2
    assert sp.simplify(Q - sp.diag(e2t - 1, -e2t - 1, -1, -e2t - 1, -1, -1)) == sp.zeros(6, 6)
    # the same form in the closed pipeline: pure-exp, and the interpolated
    # warp below its window
    Qf = sp.lambdify(e, Q)
    for warp, tv in ((PureExp(), -3.0), (PureExp(), -0.5), (Interpolated(-4.0, -1.0), -5.0)):
        got = riemann_closed(metric_at(warp, tv, 0.3)).pair_matrix(frame=True)
        assert np.max(np.abs(np.array(Qf(np.exp(-tv)), dtype=float) - got)) <= 1e-12


@pytest.fixture(scope="module")
def any_f_form():
    return symbolic_frame_form(lambda t: sp.Function("f", positive=True)(t))


def test_frame_form_has_the_kernels_four_blocks_for_any_f(any_f_form):
    # for a symbolic f > 0 the form has no z, is zero outside {xy},
    # {xz, xt}, {yz, yt} and {zt}, and has the entries certify's kernel
    # reads: this licenses the kernel for any warp, duck-typed ones included
    Q, _, t, z = any_f_form
    f = sp.Function("f", positive=True)(t)
    fp, fpp = f.diff(t), f.diff(t, 2)
    a = f - 1
    A, B = (f * fp - 1) / f**2, (f + fp) / f**2
    assert all(sp.diff(q, z) == 0 for q in Q)
    assert all(Q[i, j] == 0 for i in range(6) for j in range(6) if PAIR_BLOCK[i] != PAIR_BLOCK[j])
    expected = sp.diag(-a * (f + 1) / f**2, sp.Matrix([[A, -B], [-B, -1]]),
                       sp.Matrix([[A, B], [B, -1]]), -fpp / f)
    assert sp.simplify(Q - expected) == sp.zeros(6, 6)
    # K of the block witness e_x ^ (alpha e_z + beta e_t), from the form
    alpha, beta = sp.symbols("alpha beta", real=True)
    w = sp.Matrix([0, alpha, beta, 0, 0, 0])
    assert sp.simplify((w.T * Q * w)[0] - (alpha**2 * A - 2 * alpha * beta * B - beta**2)) == 0


def test_block_eigenvalues_are_the_kernels_closed_forms():
    # lambda_-+ = (A - 1)/2 -+ hypot((A + 1)/2, B) are the eigenvalues of
    # both blocks [[A, -+B], [-+B, -1]]: their product is the determinant
    # -A - B^2, from which the kernel takes lambda_+, and their sum the trace
    A, B, lam = sp.symbols("A B lambda", real=True)
    root = sp.sqrt(((A + 1) / 2) ** 2 + B**2)
    lo, hi = (A - 1) / 2 - root, (A - 1) / 2 + root
    assert sp.expand(lo * hi - (-A - B**2)) == 0
    assert sp.expand(lo + hi - (A - 1)) == 0
    for b in (B, -B):
        block = sp.Matrix([[A, -b], [-b, -1]])
        assert sp.expand((lam * sp.eye(2) - block).det() - (lam - lo) * (lam - hi)) == 0


def test_pinching_lemma_puts_every_plane_in_minus_two_to_zero():
    # with x = f'/f and y = 1/f: A = x - y^2, B = y (1 + x), the {xz, xt}
    # determinant -A - B^2 is d/f^2, and K(xy) = -a (f + 1)/f^2 = -(1 - y^2)
    f, fp = sp.symbols("f", positive=True), sp.symbols("fp", real=True)
    x, y = fp / f, 1 / f
    A, B = (f * fp - 1) / f**2, (f + fp) / f**2
    d = 1 - f * fp - (1 + fp / f) ** 2
    assert sp.simplify(A - (x - y**2)) == 0 and sp.simplify(B - y * (1 + x)) == 0
    assert sp.simplify(-A - B**2 - d / f**2) == 0
    assert sp.simplify(-(f - 1) * (f + 1) / f**2 + (1 - y**2)) == 0
    # lambda_- = (A - 1)/2 - hypot((A + 1)/2, B) > -2 iff (A + 3)/2 exceeds
    # the hypot: where A + 3 > 0, iff the difference of the squares,
    # A + 2 - B^2, is positive
    X, Y = sp.symbols("x y", real=True)
    Ax, Bx = X - Y**2, Y * (1 + X)
    assert sp.expand(((Ax + 3) / 2) ** 2 - ((Ax + 1) / 2) ** 2 - Bx**2 - (Ax + 2 - Bx**2)) == 0
    assert sp.expand(Ax + 2 - Bx**2 - (-X * (1 + X) + (1 - Y**2) * (1 + (1 + X) ** 2))) == 0
    # f > 1 and -f <= f' < 0 put x = r - 1 with r = 1 + f'/f in [0, 1) and
    # y^2 = 1 - w with w in (0, 1); then K(xy) = -w lies in (-1, 0), and
    r, q = sp.symbols("r q", nonnegative=True)       # q stands for 1 - r
    w = sp.symbols("w", positive=True)
    at = {X: r - 1, Y: sp.sqrt(1 - w)}
    assert sp.expand((Ax + 2 - Bx**2).subs(at) - (r * (1 - r) + w * (1 + r**2))) == 0
    assert (r * q + w * (1 + r**2)).is_positive
    assert sp.expand((Ax + 3).subs(at) - (r + w + 1)) == 0
    # so -2 < lambda_- <= lambda_+ = (d/f^2)/lambda_- < 0 when d > 0 (and
    # lambda_- < 0), and -2 < K(zt) = -f''/f < 0 when 0 < f'' < 2f.  Both
    # closed-form regimes meet the hypotheses, with f' = -E and f'' = E for
    # E = e^-t: f = E where E = 1 + w > 1 (t < 0), f = 1 + E at every t
    E = sp.symbols("E", positive=True)
    for f_, E_ in ((1 + w, 1 + w), (1 + E, E)):
        assert (f_ - 1).is_positive and (f_ - E_).is_nonnegative
        assert (2 * f_ - E_).is_positive


def test_the_curvature_range_is_exactly_minus_two_to_zero():
    # the lemma above gives -2 < K < 0 strictly; these limits show that
    # neither end can move in, so lambda^2 = 2 is the least scale that puts
    # K / lambda^2 in (-1, 0).  As (f, f', f'') -> (1, 0, 0) the extremes
    # are continuous (f > 0, the root's argument tends to 1): lambda_- -> -2
    # and K(xy) -> 0, with lambda_+ and K(zt) -> 0 too
    f, fp, fpp = sp.symbols("f fp fpp", real=True)
    A, B = (f * fp - 1) / f**2, (f + fp) / f**2
    radicand = ((A + 1) / 2) ** 2 + B**2
    lam_lo = (A - 1) / 2 - sp.sqrt(radicand)
    lam_hi = (-A - B**2) / lam_lo
    k_xy, k_zt = -(f - 1) * (f + 1) / f**2, -fpp / f
    at = {f: 1, fp: 0, fpp: 0}
    assert radicand.subs(at) == 1
    assert [e.subs(at) for e in (lam_lo, lam_hi, k_xy, k_zt)] == [-2, 0, 0, 0]
    # shifted-exp, and an interpolated warp above t_hi: f = 1 + E with
    # E = e^-t -> 0+ as t -> oo, where the infimum (in the mixed blocks) and
    # the supremum are approached
    E = sp.symbols("E", positive=True)
    tail = {f: 1 + E, fp: -E, fpp: E}
    assert [sp.limit(e.subs(tail), E, 0, "+") for e in (lam_lo, lam_hi, k_xy, k_zt)] == [-2, 0, 0, 0]
    # pure-exp: lambda_- = -1 - e^2t and K(xy) = e^2t - 1, which tend to -2
    # and 0 as t -> 0-, the end of its range t < 0
    t = sp.symbols("t", real=True)
    pure = {f: sp.exp(-t), fp: -sp.exp(-t), fpp: sp.exp(-t)}
    assert sp.simplify(lam_lo.subs(pure) + 1 + sp.exp(2 * t)) == 0
    assert sp.simplify(k_xy.subs(pure) - (sp.exp(2 * t) - 1)) == 0
    assert [sp.limit(e.subs(pure), t, 0, "-") for e in (lam_lo, k_xy)] == [-2, 0]
