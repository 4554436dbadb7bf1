"""Proofs of every fact ``warp.window_witness`` rests on.

The builder accepts a transition window t_lo < t_hi <= 0 when, on each
cell of a fixed table in u = (t - t_lo)/W, W = t_hi - t_lo,

    (max of s' at the cell ends + M2 h/2) e^t < W          (margin b)
    (max of |s''| at the cell ends + M3 h/2) e^t < W^2     (margin c, f'' < 2f)

with e^t at the cell's right end.  Here:

* sympy shows that margins a and d need no check inside the window, that
  the margins outside it are positive closed forms, and that the window
  meets the pinching lemma's hypotheses f > 1, -f <= f' < 0, f'' < 2f;
* sympy checks the formulas for s', s'', s''' used below, and the symmetry
  s(1 - u) = 1 - s(u), so sups over (0, 1) are sups over (0, 1/2];
* ``mpmath.iv`` proves M1 >= sup s', M2 >= sup |s''| and M3 >= sup |s'''|:
  by bisection on [1/32, 1/2], where sigma <= 1/2 keeps 1 - sigma free of
  cancellation, and by an analytic bound on the sliver (0, 1/32];
* mpmath checks that the float table matches its exact values far inside
  the proof's rounding allowance, and the float step s, s', s'' its
  50-digit values to 16 eps of their sups;
* any window 4 wide is proved, so the widening search ends;
* the |s''| row accepts the windows, and gives the witnesses, of the
  max(-s'', 0) row it replaced, and k_min > -2 on sampled built windows;
* the binding cells, the only ones ``window_witness`` evaluates, give the
  whole table's witness, ties and overflows included, and a ratio equal to
  the bound is refused.
"""

from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import iv

import per_point_reference as ref
from solcusp import warp
from solcusp.certify import _closed_extremes
from solcusp.warp import Interpolated, build_interpolation, condition_margins, window_witness

from test_warp_bits import u_at_g

# proved bound on sup s'; the table's cells need s' < 2 + M2 h/2 < 4
M1 = 2.01
M2, M3 = warp._S2_BOUND, warp._S3_BOUND
# the sliver (0, EPS] is bounded analytically, [EPS, 1/2] by bisection
EPS = 1.0 / 32


def step_derivatives(u, exp):
    """s', s'', s''' of s(u) = 1/(1 + exp(1/u - 1/(1 - u))).

    Plain arithmetic only, so sympy symbols and mpmath intervals both run
    through it.  With g = 1/u - 1/(1 - u), sigma = s and w = sigma(1 - sigma).
    """
    v = 1 - u
    g = 1 / u - 1 / v
    sig = 1 / (1 + exp(g))
    w = sig * (1 - sig)
    g1 = -1 / u**2 - 1 / v**2
    g2 = 2 / u**3 - 2 / v**3
    g3 = -6 / u**4 - 6 / v**4
    return (-w * g1,
            w * (1 - 2 * sig) * g1**2 - w * g2,
            w * ((6 * w - 1) * g1**3 + 3 * (1 - 2 * sig) * g1 * g2 - g3))


def float_step(u):
    """(s, s', s'') of the float step on a sorted u: 0 below the run that
    ``_step`` takes, s = 1 and s' = s'' = 0 above it."""
    lo, hi = np.searchsorted(u, warp._STEP_RUN)
    got = np.zeros((3, u.size))
    got[0, hi:] = 1.0
    warp._step(u[lo:hi].copy(), 0.0, 1.0, *got[:, lo:hi])
    return got


def test_margins_a_and_d_need_no_check_inside_the_window():
    # inside: f = E + s with E = e^-t > 1 (t < t_hi <= 0), 0 < s < 1 and
    # s' >= 0, so b = E - s'/W <= E < f; write E = 1 + p, p > 0
    p, s, s1, W = sp.symbols("p s s1 W", positive=True)
    E, f = 1 + p, 1 + p + s
    b = E - s1 / W
    assert (f - 1).is_positive                      # margin a
    assert (E - b).is_nonnegative and (f - E).is_positive
    # d = 1 - f f' - (1 + f'/f)^2 with f' = -b is x (f^2 + 2 - x), x = b/f
    F, B = sp.symbols("F B", positive=True)
    d = 1 - F * (-B) - (1 + (-B) / F) ** 2
    x = B / F
    assert sp.simplify(d - x * (F**2 + 2 - x)) == 0
    # and with 0 < b < f the second factor is positive: f^2 + 1 + (f - b)/f
    r = sp.symbols("r", positive=True)                 # r = f - b
    assert sp.expand((F**2 + 2 - x).subs(B, F - r) - (F**2 + 1 + r / F)) == 0
    # so d > 0 exactly when b > 0, and b, c reduce to s' e^t < W, -s'' e^t < W^2
    t, s2 = sp.symbols("t s2", real=True)
    assert sp.simplify((sp.exp(-t) - s1 / W) * sp.exp(t) * W - (W - s1 * sp.exp(t))) == 0
    assert sp.simplify((sp.exp(-t) + s2 / W**2) * sp.exp(t) * W**2
                       - (W**2 + s2 * sp.exp(t))) == 0


def test_the_window_meets_the_pinching_hypotheses():
    # inside, f = E + s > E = e^-t > 1 (t < 0), f' = -E + s'/W < 0 by margin
    # b and f' + f = s + s'/W >= 0 (s, s' >= 0).  f'' = E + s''/W^2, and
    # (2f - f'') e^t W^2 = W^2 - s'' e^t + 2 s e^t W^2, positive when
    # |s''| e^t < W^2: the row of margin c bounds |s''|, not only -s''
    t, s2 = sp.symbols("t s2", real=True)
    s, s1, W = sp.symbols("s s1 W", positive=True)
    E = sp.exp(-t)
    f, fp, fpp = E + s, -E + s1 / W, E + s2 / W**2
    assert sp.simplify(fp + f - (s + s1 / W)) == 0 and (s + s1 / W).is_positive
    assert sp.simplify((2 * f - fpp) * sp.exp(t) * W**2
                       - (W**2 - s2 * sp.exp(t) + 2 * s * sp.exp(t) * W**2)) == 0


def test_margins_outside_the_window_are_positive_closed_forms():
    t = sp.symbols("t", negative=True)                  # below t_lo < 0
    f = sp.exp(-t)
    m = [f - 1, -sp.diff(f, t), sp.diff(f, t, 2),
         1 - f * sp.diff(f, t) - (1 + sp.diff(f, t) / f) ** 2]
    assert [sp.simplify(a - b) for a, b in zip(m, [sp.exp(-t) - 1, sp.exp(-t), sp.exp(-t),
                                                  1 + sp.exp(-2 * t)])] == [0] * 4
    assert all(sp.simplify(a).is_positive for a in m[1:])
    # a = e^-t - 1 is the integral of e^-tau > 0 over tau in (t, 0), t < 0
    tau = sp.symbols("tau", real=True)
    assert sp.simplify(sp.integrate(sp.exp(-tau), (tau, t, 0)) - m[0]) == 0
    # above t_hi: f = 1 + E, E = e^-t > 0; (1 + E)^2 d = 3E + 4E^2 + 3E^3 + E^4
    tt = sp.symbols("t", real=True)
    E = sp.symbols("E", positive=True)
    f = 1 + sp.exp(-tt)
    fp, fpp = sp.diff(f, tt), sp.diff(f, tt, 2)
    d = (1 - f * fp - (1 + fp / f) ** 2).subs(sp.exp(-tt), E)
    assert sp.expand(sp.simplify(d * (1 + E) ** 2)) == 3 * E + 4 * E**2 + 3 * E**3 + E**4
    assert all(sp.simplify(v.subs(sp.exp(-tt), E)) == E for v in (f - 1, -fp, fpp))


def test_step_formulas_and_symmetry():
    u = sp.symbols("u", positive=True)
    s = 1 / (1 + sp.exp(1 / u - 1 / (1 - u)))
    for k, formula in enumerate(step_derivatives(u, sp.exp), 1):
        assert sp.simplify(sp.diff(s, u, k) - formula) == 0
    # s(1 - u) = 1 - s(u): s' and s''' are even about 1/2, s'' is odd
    assert sp.simplify(s.subs(u, 1 - u) + s - 1) == 0
    # s > 0, and s' = -w g' >= 0 since g' = -1/u^2 - 1/(1-u)^2 < 0
    assert step_derivatives(u, sp.exp)[0].subs(u, sp.Rational(1, 2)) == 2


def test_derivative_bounds_on_the_sliver_next_to_zero():
    # on (0, 1/2]: g >= 1/u - 2, so w <= sigma <= e^-g <= e^(2 - 1/u);
    # |g'| <= 2/u^2, |g''| <= 4/u^3, |g'''| <= 12/u^4; |1 - 2 sigma| <= 1
    # and |6w - 1| <= 1.  Hence |s'| <= 2 q/u^2, |s''| <= 8 q/u^4 and
    # |s'''| <= 44 q/u^6 with q = e^(2 - 1/u); e^(-1/u)/u^k increases on
    # (0, 1/k], so on (0, EPS] each bound is largest at EPS <= 1/6
    assert EPS <= 1 / 6
    e = iv.mpf(EPS)
    q = iv.exp(2 - 1 / e)
    for k, c, bound in ((2, 2, M1), (4, 8, M2), (6, 44, M3)):
        assert (c * q / e**k).b < bound


def prove_bounds(lo, hi, bounds):
    """Bisect [lo, hi] until each box's enclosures of |s'|, |s''|, |s'''|
    lie below ``bounds``; returns the number of boxes."""
    stack, boxes = [(mpmath.mpf(lo), mpmath.mpf(hi))], 0
    while stack:
        a, b = stack.pop()
        boxes += 1
        enclosures = step_derivatives(iv.mpf([a, b]), iv.exp)
        if all(max(abs(v.a), abs(v.b)) < m for v, m in zip(enclosures, bounds)):
            continue
        assert b - a > 1e-12, f"no proof on [{a}, {b}]: {enclosures}"
        mid = (a + b) / 2
        stack += [(a, mid), (mid, b)]
    return boxes


def test_interval_proof_of_the_derivative_bounds():
    assert prove_bounds(EPS, 0.5, (M1, M2, M3)) < 10_000
    # the bounds are tight: attained values within a fraction of a percent
    # (s' and s'' are 0 off the step's run)
    _, s1, s2 = float_step(np.linspace(0.0, 1.0, 200_001))
    assert 2.0 - 1e-9 < s1.max() and M2 - 0.01 < np.abs(s2).max() < M2


def test_float_table_matches_its_exact_values():
    # each cell bound is (max of the node values' moduli) + M h/2; the float
    # table must match the exact one far inside the 1e-9 rounding allowance
    # (exact on u <= 1/2; s' is even and s'' odd about 1/2)
    n = warp._PROOF_CELLS
    with mpmath.workdps(30):
        exact = [step_derivatives(mpmath.mpf(i) / n, mpmath.exp)[:2] for i in range(1, n // 2 + 1)]
        s1 = [0] + [e[0] for e in exact] + [e[0] for e in exact[-2::-1]] + [0]
        s2 = [0] + [e[1] for e in exact] + [-e[1] for e in exact[-2::-1]] + [0]
        half = mpmath.mpf(0.5) / n
        b = [max(s1[i], s1[i + 1]) + M2 * half for i in range(n)]
        c = [max(abs(s2[i]), abs(s2[i + 1])) + M3 * half for i in range(n)]
        rel = max(max(abs(float(b[i] / warp._CELL_BOUNDS[0][i] - 1)),
                      abs(float(c[i] / warp._CELL_BOUNDS[1][i] - 1))) for i in range(n))
    assert rel < 1e-12
    assert np.array_equal(warp._CELL_END, np.arange(1, n + 1) / n)


def test_any_window_four_wide_is_proved():
    # e^t <= 1 in every window, and the table stays below 4 and 16
    assert warp._CELL_BOUNDS[0].max() < 4.0 * (1.0 - warp._ROUNDING)
    assert warp._CELL_BOUNDS[1].max() < 16.0 * (1.0 - warp._ROUNDING)
    for t_hi in (0.0, -1e-300, -3.0, -700.0, -1e7):
        assert window_witness(Interpolated(t_hi - 4.0, t_hi)) is None


@settings(max_examples=200, deadline=None)
@given(cell=st.integers(0, warp._PROOF_CELLS - 1), frac=st.floats(0.0, 1.0))
def test_table_bounds_the_step_inside_each_cell(cell, frac):
    # a float spot check of the cell bounds, which the proofs above make exact
    u = (cell + frac) / warp._PROOF_CELLS
    assume(0.0 < u < 1.0)
    s1, s2, _ = step_derivatives(mpmath.mpf(u), mpmath.exp)
    assert s1 <= warp._CELL_BOUNDS[0][cell] and abs(s2) <= warp._CELL_BOUNDS[1][cell]


def test_the_float_step_is_within_rounding_of_its_exact_values():
    # 50-digit values from the formulas above on u <= 1/2, where sigma <= 1/2,
    # and by the symmetry on u > 1/2, at both clip ends (|g| = 500), where
    # sigma^2 underflows (g = 372), and on [0.95, 0.998]: each float s^(k)
    # must lie within 16 eps sup |s^(k)|, the sups 1, M1 and M2.  With
    # w = sigma (1 - sigma), which cancels as u -> 1, s'' missed this by 5e3
    ends = [u_at_g(c) for c in (500.0, -500.0, 499.0, -499.0, 372.0, -372.0)]
    clip_ends = [u + np.spacing(u) * np.arange(-3, 4) for u in ends]
    u = np.unique(np.concatenate([np.linspace(0.0, 1.0, 251)[1:-1],
                                  np.linspace(0.95, 0.998, 60), *clip_ends]))
    assert u.size >= 300 and 0.0 < u[0] and u[-1] < 1.0
    got = float_step(u)
    with mpmath.workdps(50):
        for n, x in enumerate(u):
            flip = x > 0.5
            y = 1 - mpmath.mpf(x) if flip else mpmath.mpf(x)
            e = mpmath.exp(1 / y - 1 / (1 - y))
            exact = [1 / (1 + e), *step_derivatives(y, mpmath.exp)[:2]]
            if flip:
                exact = [1 - exact[0], exact[1], -exact[2]]
            for k, sup in enumerate((1.0, M1, M2)):
                err = abs(got[k, n] - exact[k])
                assert err <= 16 * np.finfo(float).eps * sup, (x, k, float(err))


def old_row_table():
    """The table with the row of margin c it had before: max(-s'', 0) at
    the cell ends, plus M3 h/2."""
    n = warp._PROOF_CELLS
    _, s1, s2 = float_step(np.arange(n // 2 + 1) / n)
    neg_s2 = np.concatenate([-s2, s2[-2::-1]])
    row_c = np.maximum(np.maximum(neg_s2[:-1], neg_s2[1:]), 0.0) + M3 * 0.5 / n
    return np.stack([warp._CELL_BOUNDS[0], row_c])


OLD_TABLE = old_row_table()


@settings(max_examples=300, deadline=None)
@given(t_hi=st.one_of(st.just(0.0), st.floats(-1.5, 0.0).map(lambda e: -(10.0**e))),
       width=st.floats(-12.0, 1.5).map(lambda e: 10.0**e))
def test_the_modulus_row_gives_the_old_rows_witness(t_hi, width):
    # window_witness evaluates only the binding cells, so it is held to the
    # whole table's witness; each cell u < 1/2 takes its mirror cell's bound
    # at a smaller e^t, so the |s''| row never raises the largest ratio: the
    # same windows pass, with the same witness.  Down to W = 1e-12 the cell
    # ends collapse onto fewer floats t
    window = Interpolated(t_hi - width, t_hi)
    witness = ref.full_table_witness(window, warp._CELL_BOUNDS)
    assert window_witness(window) == witness
    assert ref.full_table_witness(window, OLD_TABLE) == witness


@pytest.mark.parametrize("t_lo,t_hi", [
    (-1e-20 - 1e-17, -1e-20),      # e^t rounds to 1 on every cell: mirror cells tie
    (-1e-15, 0.0), (-3e-16, 0.0),  # e^t takes a few floats: equal bounds side by side tie
    (-2.3e-162, 0.0),              # W^2 is subnormal and e^t / W^2 overflows on most cells
    (np.nextafter(-1.0, -2.0), -1.0),  # the cells' right ends are two floats t
])
def test_the_binding_cells_keep_the_whole_tables_first_tie(t_lo, t_hi):
    # where ratios tie, the witness is the first cell of the first row to
    # reach the largest, as over the whole table
    window = Interpolated(t_lo, t_hi)
    witness = window_witness(window)
    assert witness is not None and witness == ref.full_table_witness(window, warp._CELL_BOUNDS)


def test_the_binding_cells_are_derived_from_the_table():
    # each row keeps every cell from its last largest bound on, and the cells
    # before it whose bound ties the largest to their right
    for (gaps, bounds), row in zip(warp._BINDING_ROWS, warp._CELL_BOUNDS):
        cells = np.flatnonzero(np.isin(warp._CELL_GAP, gaps))
        assert np.array_equal(warp._CELL_GAP[cells], gaps) and np.array_equal(row[cells], bounds)
        last = np.flatnonzero(row == row.max())[-1]
        assert np.array_equal(cells[cells >= last], np.arange(last, row.size))
        for i in cells[cells < last]:
            assert row[i] == row[i + 1:].max()
        dropped = np.setdiff1d(np.arange(row.size), cells)
        assert all(row[i] < row[i + 1:].max() * (1.0 - warp._ORDER_GAP) for i in dropped[::97])
    # 8 193 of row b's 16 384 cells and 3 579 of row c's
    assert [gaps.size for gaps, _ in warp._BINDING_ROWS] == [8193, 3579]


def test_a_ratio_equal_to_the_bound_is_refused():
    # with r in [1/2, 2], 1 - r and 1 - (1 - r) are exact (Sterbenz), so
    # _ROUNDING = 1 - r puts the bound exactly at r: the proof needs
    # ratio < bound, and refuses.  A bound one ulp of r higher accepts
    window = Interpolated(-2.0, 0.0)
    witness = window_witness(window)
    r = witness["ratio"]
    assert 0.5 <= r <= 2.0
    with mock.patch.object(warp, "_ROUNDING", 1.0 - r):
        assert 1.0 - warp._ROUNDING == r
        assert window_witness(window) == witness
    with mock.patch.object(warp, "_ROUNDING", 1.0 - np.nextafter(r, np.inf)):
        assert 1.0 - warp._ROUNDING == np.nextafter(r, np.inf)
        assert window_witness(window) is None


@pytest.mark.parametrize("t_lo,t_hi", [(-4.0, -1.0), (-0.5, 0.0), (-1.0, -0.5), (-12.0, -4.0),
                                       (-7.22, -7.13), (-25.0, -24.999), (-1e-4, -5e-5),
                                       (-31.0, -30.0)])
def test_built_windows_are_pinched_where_sampled(t_lo, t_hi):
    # the proof's facts seen in floats on 20 001 points of the built window:
    # f'' < 2f, and -2 < k_min <= k_max < 0
    w = build_interpolation(t_lo, t_hi)
    t = np.linspace(w.t_lo, w.t_hi, 20_001)
    f, fp, fpp = values = w.eval(t)
    assert np.all(fpp < 2.0 * f) and np.all((-f <= fp) & (fp < 0.0)) and np.all(f > 1.0)
    b = _closed_extremes(t, condition_margins(w, t, values)[:, 0], *values)
    assert np.all(b.k_min > -2.0) and np.all(b.k_max < 0.0)
