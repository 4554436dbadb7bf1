import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solcusp import curvature as curvature_module
from solcusp.certify import (
    certify,
    extremize_k,
    extremize_point,
    rescale_to_pinching,
)
from solcusp.cli import main as cli_main
from solcusp.curvature import metric_at, riemann_closed
from solcusp.warp import Interpolated, PureExp, ShiftedExp, build_interpolation

from diagnostic_metrics import (
    closed_form_gaps,
    frame_plane_k,
    frame_scales,
    hyperbolic_metric_point,
    sectional_curvature,
    witness_plane,
)

EPS = np.finfo(float).eps
# lambda^2 = 2: -2 < K < 0 on every plane of a certified warp
SQRT2 = 1.4142135623730951


class ConstantWarp:
    """Deliberately broken warp: f = 2, f' = 0 (condition b margin is 0);
    no closed-form regime anywhere, and no proof."""

    family = "constant"
    t_lo, t_hi = -np.inf, np.inf

    def eval(self, t):
        raise AssertionError("a warp without a proof was sampled")


def test_hyperbolic_diagnostic_is_constant_curvature():
    k_min, k_max = extremize_point(hyperbolic_metric_point(0.3))
    assert k_min == pytest.approx(-1.0, abs=1e-6)
    assert k_max == pytest.approx(-1.0, abs=1e-6)


def test_pure_exp_extremes_bracket_frame_planes():
    b = extremize_k(PureExp(), -1.0)
    lo = -np.exp(-2.0) - 1.0
    hi = np.exp(-2.0) - 1.0
    assert b.k_min <= lo + 1e-12
    assert b.k_max >= hi - 1e-12
    # for this warp the frame planes are the true extremes
    assert b.k_min == pytest.approx(lo, abs=1e-8)
    assert b.k_max == pytest.approx(hi, abs=1e-8)


def test_shifted_exp_far_tail_k_max():
    b = extremize_k(ShiftedExp(), 10.0)
    f, fp, fpp = ShiftedExp().eval(10.0)
    assert b.k_max >= -fpp / f - 1e-12
    assert b.k_max < 0.0


@pytest.mark.parametrize("t", [-2.0, 0.0, 3.0])
def test_feasible_point_soundness(t):
    b = extremize_k(ShiftedExp(), t)
    for k in frame_plane_k(metric_at(ShiftedExp(), t, 0.0)).values():
        assert b.k_min <= k + 1e-12
        assert b.k_max >= k - 1e-12


def test_monotone_tail_tracks_zt_plane():
    for t in (5.0, 6.5, 8.0, 10.0):
        b = extremize_k(ShiftedExp(), t)
        f, fp, fpp = ShiftedExp().eval(t)
        assert abs(b.k_max - (-fpp / f)) <= 1e-6


def test_plane_charts_produce_orthonormal_pairs():
    b = extremize_k(ShiftedExp(), 0.0)
    p = metric_at(ShiftedExp(), 0.0, 0.0)
    scales = frame_scales(p)
    for chart in (witness_plane(ShiftedExp(), 0.0, b.block_min, lowest=True),
                  witness_plane(ShiftedExp(), 0.0, b.block_max, lowest=False)):
        assert chart.shape == (2, 4)
        u, v = chart
        assert abs(u @ u - 1.0) <= 1e-12
        assert abs(v @ v - 1.0) <= 1e-12
        assert abs(u @ v) <= 1e-12
        uc, vc = u * scales, v * scales
        assert abs(uc @ p.g @ uc - 1.0) <= 1e-12
        assert abs(vc @ p.g @ vc - 1.0) <= 1e-12
        assert abs(uc @ p.g @ vc) <= 1e-12


def test_argmin_plane_reproduces_k_min():
    b = extremize_k(ShiftedExp(), 0.0)
    p = metric_at(ShiftedExp(), 0.0, 0.0)
    R = riemann_closed(p)
    scales = frame_scales(p)
    uc, vc = witness_plane(ShiftedExp(), 0.0, b.block_min, lowest=True) * scales
    assert sectional_curvature(R, p, uc, vc) == pytest.approx(b.k_min, abs=1e-10)
    uc, vc = witness_plane(ShiftedExp(), 0.0, b.block_max, lowest=False) * scales
    assert sectional_curvature(R, p, uc, vc) == pytest.approx(b.k_max, abs=1e-10)


def test_extremize_is_deterministic():
    a = extremize_k(ShiftedExp(), 1.0)
    b = extremize_k(ShiftedExp(), 1.0)
    assert a.k_min == b.k_min
    assert a.k_max == b.k_max
    assert a.block_min.tobytes() == b.block_min.tobytes()
    assert a.block_max.tobytes() == b.block_max.tobytes()


@pytest.mark.parametrize("warp, t, codes", [
    # pure-exp: lambda_- = -1 - e^2t is the least value, K(xy) = e^2t - 1 the
    # largest; shifted-exp: lambda_- the least, K(zt) = -e^-t / f the largest
    (PureExp(), -1.0, (1, 0)),
    (ShiftedExp(), -3.0, (1, 2)),
    (ShiftedExp(), 0.0, (1, 2)),
    (ShiftedExp(), 5.0, (1, 2)),
    # K(xy), both block eigenvalues and K(zt) all round to -1.0: a tie goes
    # to the lowest code
    (PureExp(), -200.0, (0, 0)),
])
def test_block_codes_follow_the_closed_forms(warp, t, codes):
    b = extremize_k(warp, t)
    assert b.block_min.shape == b.block_max.shape == ()
    assert np.issubdtype(b.block_min.dtype, np.integer)
    assert (int(b.block_min), int(b.block_max)) == codes


def test_certify_small_grid_is_certified():
    rep = certify(ShiftedExp(), (-2.0, 2.0), 0.5)
    assert rep.status == "certified"
    assert rep.max_k < -1e-9
    assert rep.scale == SQRT2 and rep.pinched_from == -np.inf
    assert rep.witness is None
    # conditions-vs-negativity cross-check: margins positive everywhere on
    # the grid, so every point must indeed have k_max < 0
    assert np.all(rep.margins > 0.0)
    assert rep.bounds_curve.k_max.shape == rep.grid.shape
    assert np.all(rep.bounds_curve.k_max < 0.0)


def test_certify_shifted_exp_full_range():
    rep = certify(ShiftedExp(), (-6.0, 10.0), 0.25)
    assert rep.status == "certified"
    assert rep.scale == SQRT2 and rep.pinched_from == -np.inf
    # the evidence agrees with the proof: -2 < K < 0 along the whole curve
    assert rep.bounds_curve.k_min.min() > -2.0 and rep.max_k < 0.0


def test_certify_refuses_broken_warp_before_sampling():
    # no proof covers a warp outside FAMILIES, so its grid would decide
    # nothing; it once read refused here only because its margin b was 0
    # on the grid, and a duck-typed warp with positive grid margins read
    # certified
    with pytest.raises(ValueError, match="no proof covers a warp of type ConstantWarp"):
        certify(ConstantWarp(), (-1.0, 1.0), 0.5)


def test_certify_refuses_pure_exp_on_positive_range():
    rep = certify(PureExp(), (0.1, 5.0), 0.5)
    assert rep.status == "refused_conditions"
    assert rep.bounds_curve is None and rep.curve_rows() == []
    assert np.isnan(rep.max_k) and np.isnan(rep.scale) and rep.pinched_from == np.inf
    # the grid's worst margin: a = e^-t - 1 at its last point
    assert rep.witness == {"kind": "condition", "t": rep.grid[-1], "condition": "a",
                           "margin": float(np.exp(-rep.grid[-1]) - 1.0)}


def test_certify_refuses_a_window_the_proof_rejects():
    # no point of the 0.05 grid lies in (-1e-4, -5e-5), where margin c
    # reaches -3.9e9; certify once called this directly built warp certified
    rep = certify(Interpolated(-1e-4, -5e-5), (-6.0, 10.0), 0.05)
    assert np.all(rep.margins > 0.0)
    assert rep.status == "refused_conditions" and rep.bounds_curve is None
    assert rep.witness["kind"] == "window" and rep.witness["condition"] == "c"
    assert rep.witness["t"] == -5e-5 and rep.witness["ratio"] > 1e9
    # the window the builder proves is certified
    assert certify(build_interpolation(-1e-4, -5e-5), (-6.0, 10.0), 0.05).status == "certified"


def test_certify_is_deterministic():
    a = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    b = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert np.array_equal(a.bounds_curve.k_min, b.bounds_curve.k_min)
    assert np.array_equal(a.bounds_curve.k_max, b.bounds_curve.k_max)
    assert a.scale == b.scale


def test_certify_certifies_where_max_k_is_above_the_old_floor():
    # far down the cusp k_max ~ -e^(-t) rises above -1e-9, which once made
    # this grid inconclusive; the verdict comes from the proof, and the
    # evidence still reads every margin positive and K < 0
    rep = certify(ShiftedExp(), (24.0, 26.0), 0.5)
    assert np.all(rep.margins > 0.0)
    assert rep.status == "certified"
    assert rep.scale == SQRT2 and rep.pinched_from == -np.inf
    assert -1e-9 <= rep.max_k < 0.0


def test_certify_verdict_ignores_a_patched_positive_k_max(monkeypatch, capsys):
    # no admissible warp reaches K >= 0, so the patched stacked kernel
    # reports k_max = +1e-3 at t = 0.5.  That shows in the evidence, max_k
    # and the curve, and leaves the verdict fields, which come from the
    # proof, as they are
    certify_module = sys.modules["solcusp.certify"]
    exact = certify_module._closed_extremes

    def positive(*args):
        b = exact(*args)
        return dataclasses.replace(b, k_max=np.where(b.t == 0.5, 1e-3, b.k_max))

    expected = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    monkeypatch.setattr(certify_module, "_closed_extremes", positive)
    rep = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert rep.max_k == 1e-3 and rep.bounds_curve.k_max[3] == 1e-3
    verdict = ("status", "scale", "pinched_from", "witness")
    assert [getattr(rep, k) for k in verdict] == [getattr(expected, k) for k in verdict]
    assert (rep.status, rep.scale, rep.pinched_from) == ("certified", SQRT2, -np.inf)
    argv = ["certify", "--warp", "shifted-exp", "--t-min", "-1", "--t-max", "1",
            "--step", "0.5"]
    assert cli_main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "certified" and payload["max_k"] == 1e-3


def test_certify_builds_one_bounds_object_per_grid(monkeypatch):
    # the curve stays stacked: one CurvatureBounds, whose block codes are
    # (n,) arrays, whatever the number of grid points
    certify_module = sys.modules["solcusp.certify"]
    built = []
    cls = certify_module.CurvatureBounds

    def counted(*args, **kwargs):
        built.append(cls(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(certify_module, "CurvatureBounds", counted)
    rep = certify(ShiftedExp(), (-6.0, 10.0), 0.05)
    assert rep.grid.size == 321
    assert len(built) == 1 and built[0] is rep.bounds_curve
    assert built[0].block_min.shape == built[0].block_max.shape == (321,)


def test_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify(ShiftedExp(), (1.0, -1.0), 0.5)
    with pytest.raises(ValueError):
        certify(ShiftedExp(), (-1.0, 1.0), 0.0)
    # a NaN step once passed the guard and failed inside np.arange
    for step in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t_step must be positive and finite"):
            certify(ShiftedExp(), (-1.0, 1.0), step)


def test_rescale_boundary_curve():
    # k_min -> -2 as t -> inf where f = 1 + e^-t: the curve nears the open
    # bound -lambda^2 of the pinched range, so lambda^2 = 2 is the least
    # scale that pinches it, and the strict bound -2 < K needs no padding
    lam, _ = rescale_to_pinching(ShiftedExp())
    k_min = certify(ShiftedExp(), (10.0, 20.0), 0.5).bounds_curve.k_min
    assert lam == SQRT2 and np.all(k_min / lam**2 > -1.0)
    assert k_min.min() < -2.0 + 1e-8


def test_rescale_requires_negative_curve():
    # the rescale is given only where negativity is proved: a refused
    # report has no scale and no pinched range
    for warp in (PureExp(), Interpolated(-1e-4, -5e-5)):
        rep = certify(warp, (-1.0, 1.0), 0.5)
        assert rep.status == "refused_conditions"
        assert np.isnan(rep.scale) and rep.pinched_from == np.inf


def test_rescale_of_certified_curve_pins_the_suffix():
    w = Interpolated(-4.0, -1.0)
    rep = certify(w, (-4.5, 4.0), 0.5)
    assert rep.status == "certified"
    lam, pinched = rescale_to_pinching(w)
    assert (lam, pinched) == (rep.scale, rep.pinched_from) == (SQRT2, -np.inf)
    # the evidence agrees: every grid point lies in the pinched range
    b = rep.bounds_curve
    assert np.all(b.k_min / 2.0 > -1.0)
    assert np.all(b.k_max / 2.0 < 0.0)


def test_tail_bound_only_where_the_shifted_regime_is_proved():
    # the pinched range reaches t = inf only where f = 1 + e^-t from a
    # finite t_hi on; pure-exp is pinched nowhere on a range to inf
    assert rescale_to_pinching(ShiftedExp()) == (SQRT2, -np.inf)
    assert rescale_to_pinching(Interpolated(-4.0, -1.0)) == (SQRT2, -np.inf)
    assert rescale_to_pinching(PureExp()) == (SQRT2, np.inf)


def test_certify_without_tail_bound_claims_no_suffix():
    # pure-exp has no negatively curved tail, so it claims no pinched
    # range, whatever the grid; a grid that stops inside a proved window
    # still claims all of R, as the window and the regime above are proved
    rep = certify(PureExp(), (-5.0, -1.0), 0.5)
    assert rep.status == "certified"
    assert rep.pinched_from == np.inf
    rep = certify(Interpolated(-4.0, -1.0), (-5.0, -2.0), 0.5)
    assert rep.status == "certified"
    assert rep.pinched_from == -np.inf


VERDICT = ("status", "scale", "pinched_from")


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["shifted-exp", "interpolated"]),
    t_hi=st.floats(min_value=-30.0, max_value=0.0),
    width=st.floats(min_value=1e-6, max_value=30.0),
    t_min=st.floats(min_value=-20.0, max_value=60.0),
    span=st.floats(min_value=1e-3, max_value=60.0),
    points=st.integers(min_value=1, max_value=2000),
)
def test_verdict_does_not_depend_on_the_grid(family, t_hi, width, t_min, span, points):
    # shifted-exp and every built window are certified with lambda^2 = 2
    # on all of R, from any grid; grids down to t = -20 stay finite
    warp = ShiftedExp() if family == "shifted-exp" else build_interpolation(t_hi - width, t_hi)
    rep = certify(warp, (t_min, t_min + span), span / points)
    assert tuple(getattr(rep, k) for k in VERDICT) == ("certified", SQRT2, -np.inf)
    assert rep.witness is None and rep.bounds_curve.t.size == rep.grid.size


@settings(max_examples=60, deadline=None)
@given(t_min=st.floats(min_value=-20.0, max_value=5.0),
       span=st.floats(min_value=1e-3, max_value=20.0),
       points=st.floats(min_value=1.0, max_value=2000.0))
@example(t_min=-1.0, span=1.0, points=2.0)
@example(t_min=-1.0, span=0.9, points=3.6)
def test_pure_exp_is_certified_exactly_on_a_negative_grid(t_min, span, points):
    # pure-exp's negativity ends at t = 0 (margin a = e^-t - 1, K(xy) = 0
    # there); no grid point lies above t_max, and the last point decides,
    # so a range below 0 is always certified.  The examples: a last point
    # at t = 0 exactly, and a step of 0.25 from -1 whose arange passes
    # t_max = -0.1 to reach t = 0
    t_max = t_min + span
    rep = certify(PureExp(), (t_min, t_max), span / points)
    assert np.all(rep.grid <= t_max)
    if t_max < 0.0:
        assert rep.status == "certified"
    if rep.grid[-1] < 0.0:
        assert tuple(getattr(rep, k) for k in VERDICT) == ("certified", SQRT2, np.inf)
    else:
        assert rep.status == "refused_conditions" and rep.witness["kind"] == "condition"
        assert np.isnan(rep.scale) and rep.pinched_from == np.inf
        assert rep.witness["margin"] <= 0.0 and rep.witness["t"] >= 0.0


@pytest.mark.parametrize("warp", [ShiftedExp(), Interpolated(-4.0, -1.0)])
def test_pinching_scale_covers_the_analytic_tail(warp):
    # k_min -> -2 as t -> inf, so a scale fitted to the grid alone
    # (lambda^2 = 1.99989 on [-6, 10]) puts k_min / lambda^2 below -1
    rep = certify(warp, (-6.0, 10.0), 0.5)
    assert rep.status == "certified"
    assert rep.pinched_from == -np.inf
    lam2 = rep.scale**2
    for t in (12.0, 20.0, 40.0):
        assert extremize_k(warp, t).k_min / lam2 > -1.0, t


def test_extremes_are_the_form_eigenvalues_with_exact_witnesses():
    # the closed forms against eigh of the tensor pipeline's frame form;
    # the plane of each extreme's block attains it
    for warp in (PureExp(), ShiftedExp(), Interpolated(-4.0, -1.0)):
        for t in (-3.0, -2.5, -1.5, -0.5):
            b = extremize_k(warp, t)
            Q = riemann_closed(metric_at(warp, t, 0.0)).pair_matrix(frame=True)
            eig = np.linalg.eigvalsh(Q)
            for k, lam in ((b.k_min, eig[0]), (b.k_max, eig[-1])):
                assert abs(k - lam) <= 16.0 * EPS * max(1.0, abs(lam))
            assert closed_form_gaps(warp, b)[1] <= 1e-14


def test_certify_runs_no_tensor_eigh_or_svd(monkeypatch):
    # the grid is certified from the closed forms alone: the metric, the
    # tensor pipeline and LAPACK's eigh, eigvalsh and SVD all raise here,
    # and only extremize_point, with riemann_closed and eigvalsh, reaches
    # them
    certify_module = sys.modules["solcusp.certify"]
    warp = build_interpolation(-4.0, -1.0)
    expected = certify(warp, (-6.0, 10.0), 0.05)

    def refuse(*args, **kwargs):
        raise AssertionError("called on certify's path")

    for owner, name in ((curvature_module, "metric_at"), (curvature_module, "riemann_closed"),
                        (certify_module, "riemann_closed"), (np.linalg, "eigh"),
                        (np.linalg, "eigvalsh"), (np.linalg, "svd")):
        monkeypatch.setattr(owner, name, refuse)
    assert not hasattr(certify_module, "metric_at")
    rep = certify(warp, (-6.0, 10.0), 0.05)
    assert rep.status == "certified"
    assert np.array_equal(rep.bounds_curve.k_max, expected.bounds_curve.k_max)
    assert extremize_k(warp, rep.grid[130]).k_max == expected.bounds_curve.k_max[130]
    with pytest.raises(AssertionError, match="certify's path"):
        extremize_point(hyperbolic_metric_point(0.3))


@pytest.mark.parametrize("warp", [PureExp(), ShiftedExp(), build_interpolation(-4.0, -1.0)],
                         ids=lambda w: w.family)
def test_the_metric_dominates_dt_squared_so_it_is_complete(warp):
    # g - dt^2 is positive semidefinite, so every curve from p to q is at
    # least |t(p) - t(q)| long: a closed bounded set lies in some slab
    # [t0, T] x C, compact as C is, and Hopf-Rinow makes g complete
    t, z = np.meshgrid(np.linspace(-6.0, 6.0, 49), np.linspace(-3.0, 3.0, 25))
    g = metric_at(warp, t, z).g.copy()
    assert np.all(g[..., 3, 3] == 1.0)
    g[..., 3, 3] -= 1.0
    assert np.linalg.eigvalsh(g).min() >= 0.0
