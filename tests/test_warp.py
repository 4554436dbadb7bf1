import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solcusp.warp import (
    FAMILIES,
    Interpolated,
    PureExp,
    ShiftedExp,
    build_interpolation,
    condition_margins,
    warp_from_name,
    window_witness,
)

E = np.e


def test_pure_exp_at_zero():
    assert PureExp().eval(0.0) == (1.0, -1.0, 1.0)


def test_shifted_exp_at_zero():
    assert ShiftedExp().eval(0.0) == (2.0, -1.0, 1.0)


def test_interpolated_outside_transition_is_pure():
    w = Interpolated(-4.0, -1.0)
    f, fp, fpp = w.eval(-5.0)
    assert f == np.exp(5.0)
    assert fp == -np.exp(5.0)
    assert fpp == np.exp(5.0)


def test_interpolated_matches_closed_forms_exactly():
    w = Interpolated(-4.0, -1.0)
    t_lo = np.linspace(-8.0, -4.0, 41)
    t_hi = np.linspace(-1.0, 3.0, 41)
    for grid, ref in [(t_lo, PureExp()), (t_hi, ShiftedExp())]:
        got = np.stack(w.eval(grid))
        want = np.stack(ref.eval(grid))
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["pure-exp", "shifted-exp", "default", "interpolated"]),
       t_hi=st.floats(min_value=-50.0, max_value=0.0),
       width=st.floats(min_value=1e-6, max_value=100.0),
       u=st.lists(st.floats(min_value=-3.0, max_value=4.0), max_size=16),
       t=st.lists(st.floats(min_value=-1e3, max_value=1e4), max_size=8))
@example(family="default", t_hi=-1.0, width=3.0, u=[-1.0, 0.5, 2.0], t=[])
def test_regime_ends_are_where_eval_is_the_closed_form(family, t_hi, width, u, t):
    # volume, certify, condition_margins and the reports take (e, 0.0 - e, e)
    # for t <= t_lo and (1 + e, 0.0 - e, e) for t >= t_hi, e = e^-t, on the
    # warp's word; both hold to the bit, the ends included, and past
    # t = 745.14, where e is 0 and f' is +0.0 (the closed families once gave
    # -0.0 there, and Interpolated +0.0), and below -709.79, where e is inf
    warp = {"pure-exp": PureExp(), "shifted-exp": ShiftedExp(),
            "default": build_interpolation(-4.0, -1.0)}.get(family)
    warp = warp or Interpolated(t_hi - width, t_hi)
    ends = [end for end in (warp.t_lo, warp.t_hi) if np.isfinite(end)]
    if ends:
        t = t + [ends[0] + (ends[-1] - ends[0]) * uk for uk in u] + ends
    t = np.array(t + [-1e3, -700.0, 0.0, 700.0, 745.2, 800.0, 1e4])
    with np.errstate(over="ignore"):  # e^-t overflows below -709.79, in both
        got = np.stack(warp.eval(t))
        e = np.exp(-t)
    for side, f in [(t <= warp.t_lo, e), (t >= warp.t_hi, 1.0 + e)]:
        assert got[:, side].tobytes() == np.stack([f, 0.0 - e, e])[:, side].tobytes()


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["pure-exp", "shifted-exp", "interpolated"]),
       t_hi=st.floats(min_value=-1.5, max_value=0.0),
       width=st.floats(min_value=1e-3, max_value=4.0),
       u=st.lists(st.floats(min_value=-1.0, max_value=2.0), min_size=1, max_size=16))
def test_eval_of_a_float_is_its_element_of_the_array_eval(family, t_hi, width, u):
    # one eval serves floats and arrays; the reports' bytes rest on a float
    # t getting exactly the values it gets inside an array; the window is
    # built unchecked, since eval, not validation, is under test here
    warp = {"pure-exp": PureExp(), "shifted-exp": ShiftedExp()}.get(family)
    warp = warp or Interpolated(t_hi - width, t_hi)
    t = (t_hi - width) + width * np.array(u)
    arrays = warp.eval(t)
    for k, tk in enumerate(t):
        assert warp.eval(float(tk)) == tuple(a[k] for a in arrays)


def test_family_is_a_class_constant_named_in_the_table():
    assert [f.name for f in dataclasses.fields(Interpolated)] == ["t_lo", "t_hi"]
    assert not dataclasses.fields(PureExp) and not dataclasses.fields(ShiftedExp)
    assert [c.family for c in (PureExp, ShiftedExp, Interpolated)] == list(FAMILIES)
    assert warp_from_name("pure-exp", -4.0, -1.0) == PureExp()
    with pytest.raises(ValueError, match="unknown warp family"):
        warp_from_name("cosh", -4.0, -1.0)


def test_interpolated_requires_ordered_nonpositive_window():
    with pytest.raises(ValueError):
        Interpolated(-1.0, -4.0)
    with pytest.raises(ValueError):
        Interpolated(-1.0, 0.5)
    # an infinite window once reached build_interpolation's grid, which
    # divided by its infinite width
    with pytest.raises(ValueError, match="finite"):
        Interpolated(-np.inf, -1.0)


@pytest.mark.parametrize("warp", [PureExp(), ShiftedExp(), Interpolated(-4.0, -1.0)])
def test_derivative_consistency(warp):
    # f' against a central difference of f, f'' against one of f',
    # both at h = 1e-5 and 1e-6 relative tolerance
    h = 1e-5
    t = np.linspace(-6.0, 2.0, 81)
    f_p, _, _ = warp.eval(t + h)
    f_m, _, _ = warp.eval(t - h)
    _, fp_p, _ = warp.eval(t + h)
    _, fp_m, _ = warp.eval(t - h)
    _, fp, fpp = warp.eval(t)
    fp_num = (f_p - f_m) / (2 * h)
    fpp_num = (fp_p - fp_m) / (2 * h)
    assert np.all(np.abs(fp_num - fp) <= 1e-6 * np.abs(fp))
    assert np.all(np.abs(fpp_num - fpp) <= 1e-6 * np.abs(fpp))


def test_margins_shifted_exp_at_zero():
    ((a, b, c, d),) = condition_margins(ShiftedExp(), [0.0])
    assert a == pytest.approx(1.0, abs=1e-15)
    assert b == pytest.approx(1.0, abs=1e-15)
    assert c == pytest.approx(1.0, abs=1e-15)
    assert d == pytest.approx(2.75, abs=1e-15)
    assert min(a, b, c, d) == pytest.approx(1.0, abs=1e-15)


def test_margin_a_fails_for_pure_exp_at_positive_t():
    ((a, _, _, _),) = condition_margins(PureExp(), [0.5])
    assert a == pytest.approx(np.exp(-0.5) - 1.0, abs=1e-15)
    assert a < 0.0


def test_margins_pure_exp_negative_t():
    ((a, b, c, d),) = condition_margins(PureExp(), [-1.0])
    assert a == pytest.approx(E - 1.0, rel=1e-15)
    assert b == pytest.approx(E, rel=1e-15)
    assert c == pytest.approx(E, rel=1e-15)
    assert d == pytest.approx(1.0 + E * E, rel=1e-15)


def test_pure_exp_margin_d_has_no_quadratic_term():
    # f'/f = -1 identically, so d = 1 - f f' = 1 + e^(-2t) exactly
    t = np.linspace(-3.0, 3.0, 61)
    d = condition_margins(PureExp(), t)[:, 3]
    assert np.allclose(d, 1.0 + np.exp(-2.0 * t), rtol=1e-14, atol=0.0)


def test_margin_d_overflows_with_its_sign():
    # f = 1 + e^400 is finite, f f' is not: d = 1 - f f' - ... is +inf,
    # a true sign, so the margins are returned
    ((a, b, c, d),) = condition_margins(ShiftedExp(), [-400.0])
    assert np.isfinite([a, b, c]).all() and d == np.inf


def test_the_one_pass_finiteness_check_keeps_its_refusals():
    # a, b and c are finite at t = -709 but their sum overflows: the margins
    # still stand, d = +inf; the first t where f is not finite is named
    ((a, b, c, d),) = condition_margins(PureExp(), [-709.0])
    assert np.isfinite([a, b, c]).all() and d == np.inf
    with np.errstate(over="ignore"):
        assert a + b + c == np.inf
    with pytest.raises(ValueError, match=r"^f, f' or f'' is not finite at t=-710\.0$"):
        condition_margins(PureExp(), [0.0, -710.0, -711.0])


def test_check_conditions_rejects_empty_grid():
    with pytest.raises(ValueError):
        condition_margins(ShiftedExp(), [])


def test_check_conditions_rejects_nonpositive_f():
    class Sinking:
        t_lo, t_hi = -np.inf, np.inf

        def eval(self, t):
            t = np.asarray(t, dtype=float)
            return -np.ones_like(t), np.zeros_like(t), np.zeros_like(t)

    with pytest.raises(ValueError, match="f\\(t\\) <= 0"):
        condition_margins(Sinking(), [0.0])


def test_build_interpolation_default_window_validates():
    w = build_interpolation(-4.0, -1.0)
    assert isinstance(w, Interpolated)
    assert w.t_lo == -4.0 and w.t_hi == -1.0
    grid = np.arange(w.t_lo - 2.0, 1.0005, 1e-3)
    assert condition_margins(w, grid).min() > 1e-6


def test_build_interpolation_monotone_and_convex():
    w = build_interpolation(-4.0, -1.0)
    grid = np.arange(-6.0, 1.0, 1e-3)
    m = condition_margins(w, grid)
    assert np.all(m[:, 1] > 0.0)  # decreasing
    assert np.all(m[:, 2] > 0.0)  # convex


def test_build_interpolation_widens_steep_window():
    # a 0.1-wide transition violates f' < 0 (margin b fails at its middle);
    # the proof's one inequality, margin c's, refuses it, and the builder
    # must widen the window, by doublings, until the proof passes
    steep = Interpolated(-0.2, -0.1)
    assert steep.eval(-0.15)[1] > 0.0
    assert window_witness(steep)["condition"] == "c"
    w = build_interpolation(-0.2, -0.1)
    assert w.t_hi == -0.1 and w.t_lo < -0.2
    assert window_witness(w) is None
    grid = np.arange(w.t_lo - 2.0, 1.0005, 1e-3)
    assert condition_margins(w, grid).min() > 1e-6


def test_build_interpolation_still_widens_a_fixable_window():
    # W = 2 leaves 9.85 e^-0.5 / 4 = 1.49 and W = 4 leaves 0.37
    assert build_interpolation(-1.0, -0.5) == Interpolated(-4.5, -0.5)


# the 1e-3 grid once widened t_hi - 10**GAP_LOG_WIDTH, t_hi = GAP_T_HI, to
# (-6.072455644491129, GAP_T_HI) and returned it, while margin c is negative
# on a band about 7.3e-4 wide around t = -5.947 between two grid points
GAP_T_HI, GAP_LOG_WIDTH = -5.912109375, -5.912451065984914


def test_the_proof_refuses_a_window_the_grid_passed():
    w = Interpolated(-6.072455644491129, GAP_T_HI)
    witness = window_witness(w)
    assert witness["condition"] == "c" and witness["ratio"] > 1.0
    t = np.linspace(-5.9474, -5.9466, 81)
    assert condition_margins(w, t)[:, 2].min() < -1e-3
    assert build_interpolation(GAP_T_HI - 10.0**GAP_LOG_WIDTH, GAP_T_HI).t_lo < w.t_lo


@settings(max_examples=150, deadline=None)
@given(t_hi=st.floats(min_value=-20.0, max_value=0.0),
       log_width=st.floats(min_value=-6.0, max_value=0.7))
@example(t_hi=GAP_T_HI, log_width=GAP_LOG_WIDTH)
@example(t_hi=-5e-5, log_width=np.log10(5e-5))
def test_build_interpolation_accepts_only_windows_valid_inside(t_hi, log_width):
    # the 1e-3 validation grid once passed the window (-1e-4, -5e-5), which
    # none of its points lies in, while margin c reached -3.9e9 inside it;
    # the builder always returns, a doubling of the window the proof passes,
    # and warp_from_name, the path of every command, gives the same warp
    lo = t_hi - 10.0**log_width
    w = build_interpolation(lo, t_hi)
    assert w.t_hi == t_hi and w.t_lo <= lo and window_witness(w) is None
    widened = (w.t_hi - w.t_lo) / (t_hi - lo)
    assert abs(np.log2(widened) - round(np.log2(widened))) < 1e-9
    assert warp_from_name("interpolated", lo, t_hi) == w
    t = np.linspace(w.t_lo, w.t_hi, 20001)
    assert condition_margins(w, t).min() > 1e-6


def doublings(t_lo: float, t_hi: float):
    """The windows the builder tries from (t_lo, t_hi): t_lo <- t_hi - 2 (t_hi - t_lo)."""
    while True:
        yield t_lo
        t_lo = t_hi - 2.0 * (t_hi - t_lo)


@settings(max_examples=150, deadline=None)
@given(t_hi=st.one_of(st.just(0.0), st.floats(-3.0, np.log10(800.0)).map(lambda e: -(10.0**e))),
       log_width=st.floats(min_value=-162.0, max_value=1.0))
@example(t_hi=0.0, log_width=float(np.log10(2.3e-162)))  # W^2 is subnormal
@example(t_hi=-800.0, log_width=-9.0)                    # e^t_hi underflows to 0
def test_build_interpolation_returns_the_least_accepted_doubling(t_hi, log_width):
    # every window the builder tried before the one it returns is refused by
    # window_witness, or has a W^2 that underflows to 0 and is no window; a
    # width below t_hi's ulp starts one ulp wide
    lo = min(t_hi - 10.0**log_width, float(np.nextafter(t_hi, -np.inf)))
    w = build_interpolation(lo, t_hi)
    for t_lo in doublings(lo, t_hi):
        if t_lo == w.t_lo:
            break
        width = t_hi - t_lo
        assert width * width == 0.0 or window_witness(Interpolated(t_lo, t_hi)) is not None
    assert window_witness(w) is None


def test_build_interpolation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_interpolation(-1.0, -4.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0))
def test_shifted_exp_margins_positive_everywhere(t):
    assert np.all(condition_margins(ShiftedExp(), np.array([t])) > 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-30.0, max_value=-1e-6))
def test_pure_exp_margins_positive_for_negative_t(t):
    assert np.all(condition_margins(PureExp(), np.array([t])) > 0.0)
