import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solcusp.curvature import metric_at
from solcusp.lattice import AnosovMatrix, build_sol_lattice, cross_section_volume
from solcusp.volume import QuadratureError, _density, adaptive_quad, cusp_volume
from solcusp.warp import Interpolated, PureExp, ShiftedExp


def test_adaptive_quad_polynomial():
    val, err = adaptive_quad(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert abs(val - 1.0 / 3.0) <= 1e-12
    assert err <= 1e-12


def test_adaptive_quad_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: x, 1.0, 1.0, 1e-8)
    # an infinite or NaN end once ran 2 000 NaN panels before refusing
    for a, b in [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)]:
        with pytest.raises(ValueError, match="finite"):
            adaptive_quad(lambda x: x, a, b, 1e-8)


def test_adaptive_quad_reports_nonconvergence():
    # noise never converges: no step down to the finest, h = 1/1024, meets tol
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError, match="by the finest step h = 1/1024"):
        adaptive_quad(lambda x: rng.standard_normal(x.shape), 0.0, 1.0, 1e-14)


def test_pure_exp_integral_closed_form():
    res = cusp_volume(PureExp(), 1.0, 0.0, 1e-10)
    assert abs(res.integral - 1.0 / 3.0) <= 1e-15 / 3.0
    assert res.total == res.integral


def test_shifted_exp_integral_closed_form():
    res = cusp_volume(ShiftedExp(), 1.0, 0.0, 1e-10)
    assert abs(res.integral - 5.0 / 6.0) <= 1e-10


def test_total_uses_cross_section_volume():
    vol_c = cross_section_volume(build_sol_lattice(AnosovMatrix(2, 1, 1, 1)))
    res = cusp_volume(ShiftedExp(), vol_c, 0.0, 1e-10)
    assert abs(res.total - vol_c * 5.0 / 6.0) <= 1e-9


def test_interpolated_matches_shifted_beyond_transition():
    w = Interpolated(-4.0, -1.0)
    a = cusp_volume(w, 1.0, 0.0, 1e-10)
    b = cusp_volume(ShiftedExp(), 1.0, 0.0, 1e-10)
    assert abs(a.integral - b.integral) <= 2e-10


def test_interpolated_start_below_transition():
    w = Interpolated(-4.0, -1.0)
    res = cusp_volume(w, 1.0, -5.0, 1e-6)
    # integrand is e^(-3t) far below the transition; sanity lower bound
    assert res.integral > np.exp(15.0) / 3.0
    assert abs(res.integral - reference_integral(w, -5.0)) <= 1e-6


def test_additivity_of_the_split_integral():
    tol = 1e-10
    whole = cusp_volume(ShiftedExp(), 1.0, 0.0, tol).integral
    left, _ = adaptive_quad(
        lambda t: (1.0 + np.exp(-t)) * np.exp(-2.0 * t), 0.0, 1.0, tol
    )
    right = cusp_volume(ShiftedExp(), 1.0, 1.0, tol).integral
    assert abs(whole - (left + right)) <= 2.0 * tol


def test_reported_bound_monotone_under_tightening():
    # from t0 = -5 the whole window [-4, -1] goes to the quadrature.  The
    # integral is ~1.1e6, so its rounding level (module docstring; -3 t0 =
    # 15 is exact) is ~7.5e-10: no tighter tol may be accepted.  The rule
    # gets tol less the closed forms' and f's terms, and its estimate may
    # claim no less than its own rounding level, 50 eps times the integral
    # of s e^(-2t) over the window.  The adaptive_quad call below is the
    # one cusp_volume(w, 1.0, -5.0, tol) makes.
    w = Interpolated(-4.0, -1.0)
    eps = np.finfo(float).eps
    fixed = (3.0 * eps * (np.exp(15.0) / 3.0 + np.exp(2.0) / 2.0)
             + eps * (np.exp(12.0) - np.exp(3.0)) / 3.0)
    level = fixed + 25.0 * eps * (np.exp(8.0) - np.exp(2.0))
    assert 1e-10 < level < 1e-9
    window = reference_integral(w, -4.0) - reference_integral(w, -1.0)
    rounding = 50.0 * eps * (window - (np.exp(12.0) - np.exp(3.0)) / 3.0)
    bounds = []
    for tol in (1e-4, 1e-6, 1e-8):
        _, err = adaptive_quad(_density(w), -4.0, -1.0, tol - fixed)
        assert rounding * (1.0 - 1e-9) <= err <= tol - fixed
        bounds.append(err)
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
    for tol in (1e-10, 1e-12):
        with pytest.raises(QuadratureError, match=f"rounding level {level:g} "):
            cusp_volume(w, 1.0, -5.0, tol)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cusp_volume(ShiftedExp(), 0.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        cusp_volume(ShiftedExp(), 1.0, 0.0, 0.0)
    # these once returned a nan, inf or 0 integral or total
    for vol_c, t0, tol, name in [
        (np.inf, 0.0, 1e-8, "vol_c"),
        (np.nan, 0.0, 1e-8, "vol_c"),
        (1.0, 0.0, np.inf, "tol"),
        (1.0, 0.0, np.nan, "tol"),
        (1.0, np.nan, 1e-8, "t0"),
        (1.0, np.inf, 1e-8, "t0"),
        (1.0, -np.inf, 1e-8, "t0"),
    ]:
        for warp in (ShiftedExp(), Interpolated(-4.0, -1.0)):
            with pytest.raises(ValueError, match=name):
                cusp_volume(warp, vol_c, t0, tol)


def test_rejects_family_without_tail_bound():
    # no closed-form regime anywhere: the window is all of [t0, inf)
    class NoTail:
        family = "mystery"
        t_lo, t_hi = -np.inf, np.inf

        def eval(self, t):
            t = np.asarray(t, dtype=float)
            return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)

    with pytest.raises(ValueError, match="finite"):
        cusp_volume(NoTail(), 1.0, 0.0, 1e-8)


def reference_integral(w, t0):
    """Integral of f e^(-2t) over [t0, inf): QUADPACK up to t_hi, closed form after."""
    integrate = pytest.importorskip("scipy.integrate")
    inside, _ = integrate.quad(
        lambda t: w.eval(t)[0] * np.exp(-2.0 * t), t0, w.t_hi,
        points=[w.t_lo] if t0 < w.t_lo else None,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return inside + np.exp(-2.0 * w.t_hi) / 2.0 + np.exp(-3.0 * w.t_hi) / 3.0


# windows, starts and tolerances on which GK15 panels spanning t_hi once
# had Gauss and Kronrod agree by chance (true error 3.2e-4 and 8.7e-8)
@pytest.mark.parametrize("t_lo,t_hi,t0,tol", [
    (-3.171801019069117, -0.724065591872438, -2.283112903688778, 9.432569350088145e-08),
    (-3.318170964235922, -1.3923186819671716, -1.8045776765975863, 2.244679712109924e-08),
])
def test_transition_window_ends_start_the_partition(t_lo, t_hi, t0, tol):
    w = Interpolated(t_lo, t_hi)
    res = cusp_volume(w, 1.0, t0, tol)
    assert abs(res.integral - reference_integral(w, t0)) <= tol


@settings(max_examples=200, deadline=None)
@given(
    t_hi=st.floats(min_value=-3.0, max_value=0.0),
    width=st.floats(min_value=0.1, max_value=5.0),
    where=st.sampled_from(["below", "inside", "above"]),
    u=st.floats(min_value=0.0, max_value=1.0),
    log_tol=st.floats(min_value=-10.0, max_value=-5.0),
)
# a lone GK15 panel over this window once had Gauss and Kronrod agree by
# chance: error 5.0e-9, estimate 1.4e-10, tol 1.3e-9
@example(t_hi=0.0, width=0.1015625, where="inside", u=0.177734375, log_tol=-9.0)
def test_interpolated_matches_quadpack(t_hi, width, where, u, log_tol):
    w = Interpolated(t_hi - width, t_hi)
    t0 = {"below": w.t_lo - 2.0 * u, "inside": w.t_lo + width * u,
          "above": t_hi + 2.0 * u}[where]
    # absolute tolerance scaled with the integral's size, e^(-3 t0) / 3
    tol = 10.0**log_tol * max(1.0, float(np.exp(-3.0 * t0)))
    res = cusp_volume(w, 1.0, t0, tol)
    assert abs(res.integral - reference_integral(w, t0)) <= tol


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(min_value=-20.0, max_value=20.0))
def test_closed_form_families_are_exact(t0):
    # absolute tolerance scaled with the integral's size, e^(-3 t0) / 3
    tol = 1e-10 * max(1.0, float(np.exp(-3.0 * t0)))
    pure = cusp_volume(PureExp(), 1.0, t0, tol).integral
    shifted = cusp_volume(ShiftedExp(), 1.0, t0, tol).integral
    expect_pure = np.exp(-3.0 * t0) / 3.0
    expect_shifted = np.exp(-2.0 * t0) / 2.0 + np.exp(-3.0 * t0) / 3.0
    assert abs(pure - expect_pure) <= 1e-15 * expect_pure
    assert abs(shifted - expect_shifted) <= 1e-15 * expect_shifted
    # from t0 = -20 the integral, ~3.8e25, carries ~2.5e10 of rounding: a
    # fixed 1e-10 cannot hold, though no quadrature runs
    for warp in (PureExp(), ShiftedExp()):
        with pytest.raises(QuadratureError, match="^tol 1e-10 is below the rounding level"):
            cusp_volume(warp, 1.0, -20.0, 1e-10)


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["pure-exp", "shifted-exp", "interpolated"]),
    t_hi=st.floats(min_value=-3.0, max_value=0.0),
    width=st.floats(min_value=0.1, max_value=5.0),
    t=st.lists(st.floats(min_value=-10.0, max_value=30.0), min_size=1, max_size=16),
)
def test_density_is_f_times_exp_minus_2t(family, t_hi, width, t):
    # the rule's integrand s e^(-2t) plus the closed-form part e^(-3t) is the
    # metric's volume density sqrt(det g), to rounding
    warp = {"pure-exp": PureExp(), "shifted-exp": ShiftedExp()}.get(family)
    warp = warp or Interpolated(t_hi - width, t_hi)
    t = np.array(t)
    expect = np.array([np.sqrt(np.prod(np.diag(metric_at(warp, ti, 0.0).g))) for ti in t])
    got = _density(warp)(t) + np.exp(-3.0 * t)
    assert np.all(np.abs(got - expect) <= 1e-14 * np.abs(expect))


def exact_step(w, t):
    """The step s of w at the float t, at the working precision: u is exact."""
    lo, hi = mpmath.mpf(w.t_lo), mpmath.mpf(w.t_hi)
    u = (mpmath.mpf(t) - lo) / (hi - lo)
    return 0 if u <= 0 else 1 if u >= 1 else 1 / (1 + mpmath.exp(1 / u - 1 / (1 - u)))


@settings(max_examples=100, deadline=None)
@given(
    t_hi=st.floats(min_value=-3.0, max_value=0.0),
    width=st.floats(min_value=0.1, max_value=5.0),
    u=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_f_minus_exp_is_exact_in_the_window(t_hi, width, u):
    # in the window s <= 1 <= e^(-t) <= f <= 2 e^(-t), so f - e^(-t) is exact
    # (Sterbenz).  It differs from s by f's rounding, at most eps e^(-t) (the
    # rounding level's eps * integral of e^(-3t) rests on this), and by the
    # step's own rounding, at most eps s (up to 1.6 eps where s ~ 1), which
    # the rule's 50 eps * integral of s e^(-2t) takes
    w = Interpolated(t_hi - width, t_hi)
    t = np.clip(w.t_lo + (w.t_hi - w.t_lo) * np.array(u), w.t_lo, w.t_hi)
    f, e = w.eval(t)[0], np.exp(-t)
    assert ((f - e) + e).tobytes() == f.tobytes()
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for ti, si, ei in zip(t, f - e, e):
            s = exact_step(w, ti)
            assert abs(si - s) <= eps * (ei + s), (ti, float((si - s) / (eps * ei)))


def exact_integral(w, t0):
    """Integral of (e^(-t) + s) e^(-2t) over [t0, inf), s the exact step, to 30 digits."""
    with mpmath.workdps(30):
        t0 = mpmath.mpf(t0)
        a, b = max(t0, mpmath.mpf(w.t_lo)), max(t0, mpmath.mpf(w.t_hi))
        inside = mpmath.quad(lambda t: exact_step(w, t) * mpmath.exp(-2 * t), [a, b]) if a < b else 0
        return mpmath.exp(-3 * t0) / 3 + mpmath.exp(-2 * b) / 2 + inside


@settings(max_examples=50, deadline=None)
@given(
    t_hi=st.floats(min_value=-3.0, max_value=0.0),
    width=st.floats(min_value=0.1, max_value=5.0),
    where=st.sampled_from(["below", "inside", "above"]),
    u=st.floats(min_value=0.0, max_value=1.0),
)
def test_rounding_level_is_kept_and_refused_at_its_boundary(t_hi, width, where, u):
    # the level L cusp_volume states: at tol = 2 L its integral lies within
    # tol of the exact one; at L / 2 it is refused
    w = Interpolated(t_hi - width, t_hi)
    t0 = {"below": w.t_lo - 2.0 * u, "inside": w.t_lo + width * u,
          "above": t_hi + 2.0 * u}[where]
    with pytest.raises(QuadratureError) as exc:
        cusp_volume(w, 1.0, t0, 1e-300)
    level = float(re.fullmatch(r"tol 1e-300 is below the rounding level (\S+) of the integral",
                               str(exc.value)).group(1))
    got = cusp_volume(w, 1.0, t0, 2.0 * level).integral
    assert abs(got - exact_integral(w, t0)) <= 2.0 * level
    with pytest.raises(QuadratureError, match="rounding level"):
        cusp_volume(w, 1.0, t0, 0.5 * level)
