"""NaN and +-inf in any numeric argument of the library's entry points.

Each of ``certify``, ``cusp_volume``, ``match_component_table`` and
``build_interpolation`` must refuse a non-finite argument with ValueError,
before any work and without a warning, rather than return a report built
on it (a "nan" volume, "nan" residuals) or fail later with another error.

Finite arguments whose results overflow a float are refused the same way,
where the non-finite number arises, with a message naming where it arose.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_point_reference as ref
from solcusp.certify import certify
from solcusp.curvature import match_component_table
from solcusp.volume import cusp_volume
from solcusp.warp import (
    Interpolated,
    PureExp,
    ShiftedExp,
    build_interpolation,
    condition_margins,
    validation_grid,
)

NON_FINITE = (np.nan, np.inf, -np.inf)

# valid values for each numeric argument, in call order
ARGUMENTS = {
    # t_min, t_max, t_step
    "certify": (st.floats(-6.0, -1.0), st.floats(0.0, 4.0), st.floats(0.05, 1.0)),
    # vol_c, t0, tol
    "cusp_volume": (st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.floats(1e-8, 1e-4)),
    # t, z of one point among finite ones
    "match_component_table": (st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
    # t_lo, t_hi
    "build_interpolation": (st.floats(-5.5, -1.6), st.floats(-1.5, -0.1)),
}

CALLS = {
    "certify": lambda a: certify(ShiftedExp(), (a[0], a[1]), a[2]),
    "cusp_volume": lambda a: cusp_volume(Interpolated(-4.0, -1.0), *a),
    "match_component_table": lambda a: match_component_table(
        ShiftedExp(), [(0.0, 0.0), tuple(a), (1.0, 0.5)]),
    "build_interpolation": lambda a: build_interpolation(*a),
}


@st.composite
def poisoned_calls(draw):
    """(entry point, its arguments with one replaced by NaN or +-inf)."""
    name = draw(st.sampled_from(sorted(ARGUMENTS)))
    args = [draw(arg) for arg in ARGUMENTS[name]]
    args[draw(st.integers(0, len(args) - 1))] = draw(st.sampled_from(NON_FINITE))
    return name, args


@settings(max_examples=300, deadline=None)
@given(call=poisoned_calls())
def test_every_non_finite_argument_is_a_value_error(call):
    name, args = call
    with pytest.raises(ValueError):
        CALLS[name](args)


@pytest.mark.parametrize("call,where", [
    # e^-3t0 overflows: inf - inf once gave a "nan" total under "certified"
    (lambda: cusp_volume(ShiftedExp(), 1.0, -250.0, 1e-10), "t0=-250.0"),
    (lambda: cusp_volume(PureExp(), 1.0, -300.0, 1e-10), "t0=-300.0"),
    (lambda: cusp_volume(ShiftedExp(), 1e300, -100.0, 1e-10), "t0=-100.0"),
    # the window quadrature once ran on an overflowed closed-form part and
    # refused the tol instead
    (lambda: cusp_volume(Interpolated(-4.0, -1.0), 1.0, -300.0, 1e-10), "t0=-300.0"),
    # f = e^800 once gave NaN margins and then a LAPACK failure; margin d
    # alone may overflow, to +-inf, which keeps its sign
    (lambda: condition_margins(PureExp(), np.array([-1.0, -800.0])), "t=-800.0"),
    # the report grid below -709.78 was NaN; a wide one exhausted memory
    (lambda: validation_grid(Interpolated(-800.0, -1.0)), "t=-802.0"),
    (lambda: validation_grid(Interpolated(-1e7, -1.0)), "t=-10000002.0"),
    # NaN residuals once still claimed the index map x, y, z, t
    (lambda: match_component_table(ShiftedExp(), [(0.0, 0.0), (-400.0, 0.5)]),
     "t=-400.0, z=0.5"),
    # f^2 = e^712 overflows in the closed-form frame form; its NaN entries
    # once read "certified" (at t = -200 only the metric overflowed, and
    # the curvature never needs it: see below)
    (lambda: certify(PureExp(), (-356.0, -355.0), 1.0), "t=-356.0"),
    # W^2 overflowed in Interpolated.eval with an OverflowError
    (lambda: Interpolated(-1e200, -1.0), "width 1e+200"),
    (lambda: build_interpolation(-1e200, -1.0), "width 1e+200"),
    (lambda: Interpolated(-2e154, 0.0), "width 2e+154"),
], ids=["volume-shifted", "volume-pure", "volume-total", "volume-window", "margins",
        "report-grid", "report-grid-wide", "riemann", "frame-form", "window-width",
        "window-width-build", "window-width-edge"])
def test_an_overflowing_result_is_a_value_error(call, where):
    with pytest.raises(ValueError, match=re.escape(where)):
        call()


def test_pure_exp_certifies_where_only_its_metric_overflows():
    # e^(-2t) overflows in the metric at t = -200, and certify once refused
    # the grid for it; the frame form needs f = e^200, f^2 = e^400 only.
    # Its exact entries are K(xy) = e^2t - 1, K(zt) = -1 and block
    # eigenvalues -1 and -1 - e^2t, all -1.0 in floats here
    rep = certify(PureExp(), (-200.0, -199.0), 1.0)
    assert rep.status == "certified" and rep.pinched_from == np.inf
    b = rep.bounds_curve
    e2t = np.exp(2.0 * b.t)
    assert np.array_equal(b.k_min, -1.0 - e2t) and np.array_equal(b.k_max, e2t - 1.0)
    assert np.all(b.k_min == -1.0) and rep.max_k == -1.0
    # a tie goes to the lowest code, K(xy)'s
    assert np.all(b.block_min == 0) and np.all(b.block_max == 0)


def test_the_widest_window_stands_with_its_bits():
    # W = 1.3e154: W^2 is finite, so the window is accepted and evaluates as before
    w = Interpolated(-1.3e154, 0.0)
    t = np.array([-1e153, -5.0, -1.0, 0.5])
    with np.errstate(all="ignore"):  # e^-t overflows at -1e153, in both
        got, want = w.eval(t), ref.interpolated_eval(w, t)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_certify_bounds_its_grid_before_building_it():
    # --step 1e-300 once failed inside numpy with a message naming no flag;
    # at about 10 kB per point, 10^5 points is the largest grid certify builds
    with pytest.raises(ValueError, match="t_step"):
        certify(ShiftedExp(), (-6.0, 10.0), 1e-300)
    with pytest.raises(ValueError, match="t_step"):
        certify(ShiftedExp(), (0.0, 1e5), 1.0)
    # 10^5 points pass; pure-exp is refused on t > 0 before any curvature work
    report = certify(PureExp(), (1.0, 3.0), 2.0 / (10**5 - 1))
    assert report.status == "refused_conditions" and report.grid.size == 10**5
