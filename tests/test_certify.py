import dataclasses
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from solcusp import curvature as curvature_module
from solcusp.certify import (
    certify,
    extremize_k,
    extremize_point,
    rescale_to_pinching,
    tail_k_bound,
)
from solcusp.cli import main as cli_main
from solcusp.curvature import metric_at, riemann_closed
from solcusp.warp import Interpolated, PureExp, ShiftedExp, build_interpolation

from diagnostic_metrics import (
    frame_plane_k,
    frame_scales,
    hyperbolic_metric_point,
    sectional_curvature,
)

EPS = np.finfo(float).eps


class ConstantWarp:
    """Deliberately broken warp: f = 2, f' = 0 (condition b margin is 0);
    no closed-form regime anywhere."""

    family = "constant"
    t_lo, t_hi = -np.inf, np.inf

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * np.ones_like(t), np.zeros_like(t), np.zeros_like(t)


def test_hyperbolic_diagnostic_is_constant_curvature():
    b = extremize_point(hyperbolic_metric_point(0.3))
    assert b.k_min == pytest.approx(-1.0, abs=1e-6)
    assert b.k_max == pytest.approx(-1.0, abs=1e-6)


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
    for chart in (b.argmin_plane, b.argmax_plane):
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
    uc, vc = b.argmin_plane * scales
    assert sectional_curvature(R, p, uc, vc) == pytest.approx(b.k_min, abs=1e-10)
    uc, vc = b.argmax_plane * scales
    assert sectional_curvature(R, p, uc, vc) == pytest.approx(b.k_max, abs=1e-10)


def test_extremize_is_deterministic():
    a = extremize_k(ShiftedExp(), 1.0)
    b = extremize_k(ShiftedExp(), 1.0)
    assert a.k_min == b.k_min
    assert a.k_max == b.k_max
    assert a.method_agreement == b.method_agreement
    assert np.array_equal(a.argmin_plane, b.argmin_plane)
    assert np.array_equal(a.argmax_plane, b.argmax_plane)


def test_certify_small_grid_is_certified():
    rep = certify(ShiftedExp(), (-2.0, 2.0), 0.5)
    assert rep.status == "certified"
    assert rep.max_k < -1e-9
    assert np.isfinite(rep.pinched_from)
    assert rep.witness is None
    # conditions-vs-negativity cross-check: margins positive everywhere on
    # the grid, so every point must indeed have k_max < 0
    assert np.all(rep.margins > 0.0)
    assert rep.bounds_curve.k_max.shape == rep.grid.shape
    assert np.all(rep.bounds_curve.k_max < 0.0)


def test_certify_shifted_exp_full_range():
    rep = certify(ShiftedExp(), (-6.0, 10.0), 0.25)
    assert rep.status == "certified"
    assert np.isfinite(rep.pinched_from)
    # curvature is bounded below along the whole curve
    assert rep.bounds_curve.k_min.min() > -2.1


def test_certify_refuses_broken_warp_before_sampling():
    rep = certify(ConstantWarp(), (-1.0, 1.0), 0.5)
    assert rep.status == "refused_conditions"
    assert rep.bounds_curve is None
    assert rep.curve_rows() == []
    assert rep.witness["kind"] == "condition"
    assert rep.witness["condition"] == "b"
    assert rep.witness["margin"] <= 0.0


def test_certify_refuses_pure_exp_on_positive_range():
    rep = certify(PureExp(), (0.1, 5.0), 0.5)
    assert rep.status == "refused_conditions"
    assert rep.witness["condition"] == "a"


def test_certify_refuses_a_window_the_proof_rejects():
    # no point of the 0.05 grid lies in (-1e-4, -5e-5), where margin c
    # reaches -3.9e9; certify once called this directly built warp certified
    rep = certify(Interpolated(-1e-4, -5e-5), (-6.0, 10.0), 0.05)
    assert np.all(rep.margins > 0.0)
    assert rep.status == "refused_conditions" and rep.bounds_curve is None
    assert rep.witness["kind"] == "window" and rep.witness["condition"] == "c"
    assert -1e-4 < rep.witness["t"] < -5e-5 and rep.witness["ratio"] > 1e9
    # the window the builder proves is certified
    assert certify(build_interpolation(-1e-4, -5e-5), (-6.0, 10.0), 0.05).status == "certified"


def test_certify_is_deterministic():
    a = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    b = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert np.array_equal(a.bounds_curve.k_min, b.bounds_curve.k_min)
    assert np.array_equal(a.bounds_curve.k_max, b.bounds_curve.k_max)
    assert a.scale == b.scale


def test_certify_inconclusive_when_margin_underflows_floor():
    # far down the cusp k_max ~ -e^(-t) sinks below the certification floor
    # while every condition margin stays positive
    rep = certify(ShiftedExp(), (24.0, 26.0), 0.5)
    assert np.all(rep.margins > 0.0)
    assert rep.status == "inconclusive"
    assert -1e-9 <= rep.max_k < 0.0


def test_certify_flags_witness_gaps_above_the_fixed_bound(monkeypatch):
    # the flag bound is 1e-12: a gap of 2e-12 is flagged, 1e-12 is not,
    # and neither changes the verdict; the gaps are patched into the
    # closed-form kernel certify runs once on its whole grid
    certify_module = sys.modules["solcusp.certify"]
    exact = certify_module._closed_extremes

    def widened(*args):
        b = exact(*args)
        gaps = np.where(b.t == -1.0, 2e-12, np.where(b.t == 0.0, 1e-12, b.method_agreement))
        return dataclasses.replace(b, method_agreement=gaps)

    monkeypatch.setattr(certify_module, "_closed_extremes", widened)
    rep = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert rep.status == "certified"
    assert rep.flagged_points == [-1.0]


def test_certify_reports_positive_curvature_as_violation(monkeypatch, capsys):
    # no admissible warp reaches K >= 0, so the patched stacked kernel
    # reports k_max = +1e-3 at t = 0.5 and the witness must name that
    # point's plane
    certify_module = sys.modules["solcusp.certify"]
    exact = certify_module._closed_extremes

    def positive(*args):
        b = exact(*args)
        # a different witness plane at each of the five points, so the
        # witness shows which point's plane it took
        e = np.eye(4)
        planes = np.stack((e[[0, 1, 2, 3, 0]], e[[1, 2, 3, 0, 1]]), axis=-2)
        return dataclasses.replace(b, k_max=np.where(b.t == 0.5, 1e-3, b.k_max),
                                   argmax_plane=planes)

    monkeypatch.setattr(certify_module, "_closed_extremes", positive)
    rep = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert rep.status == "violation"
    assert np.isnan(rep.scale) and rep.pinched_from == np.inf
    assert rep.max_k == 1e-3
    worst = rep.bounds_curve
    assert worst.t[3] == 0.5
    assert rep.witness == {
        "kind": "positive_curvature",
        "t": 0.5,
        "k_max": 1e-3,
        "plane_basis": [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]],
    }
    assert rep.witness["plane_basis"] == worst.argmax_plane[3].tolist()
    argv = ["certify", "--warp", "shifted-exp", "--t-min", "-1", "--t-max", "1",
            "--step", "0.5"]
    assert cli_main(argv) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "violation"


def test_certify_builds_one_bounds_object_per_grid(monkeypatch):
    # the curve stays stacked: one CurvatureBounds, whose witness planes
    # are (n, 2, 4) arrays, whatever the number of grid points
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
    assert built[0].argmin_plane.shape == built[0].argmax_plane.shape == (321, 2, 4)


def test_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify(ShiftedExp(), (1.0, -1.0), 0.5)
    with pytest.raises(ValueError):
        certify(ShiftedExp(), (-1.0, 1.0), 0.0)
    # a NaN step once passed the guard and failed inside np.arange
    for step in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t_step must be positive and finite"):
            certify(ShiftedExp(), (-1.0, 1.0), step)


def stub_curve(t, k_min, k_max):
    """A bounds curve with the three fields rescale_to_pinching reads."""
    t = np.asarray(t, dtype=float)
    return SimpleNamespace(t=t, k_min=np.full(t.shape, k_min), k_max=np.full(t.shape, k_max))


def test_rescale_boundary_curve():
    curve = stub_curve(np.linspace(0.0, 2.0, 5), -1.0, -0.25)
    lam, pinched = rescale_to_pinching(curve, tail_k_min=-1.0)
    # k_min = -1 exactly sits on the open bound, so lambda^2 must exceed 1
    assert lam**2 == pytest.approx(1.0 + 1e-9, rel=1e-12)
    assert pinched == 0.0
    # a steeper tail raises the scale; without a tail bound nothing past
    # the grid is known, so no suffix reaches infinity
    lam, pinched = rescale_to_pinching(curve, tail_k_min=-2.0)
    assert lam**2 == pytest.approx(2.0 * (1.0 + 1e-9), rel=1e-12)
    assert pinched == 0.0
    lam, pinched = rescale_to_pinching(curve)
    assert lam**2 == pytest.approx(1.0 + 1e-9, rel=1e-12)
    assert pinched == np.inf


def test_rescale_requires_negative_curve():
    with pytest.raises(ValueError):
        rescale_to_pinching(stub_curve([0.0], -1.0, 0.5))
    with pytest.raises(ValueError):
        rescale_to_pinching(stub_curve([], -1.0, -0.5))


def test_rescale_of_certified_curve_pins_the_suffix():
    w = Interpolated(-4.0, -1.0)
    rep = certify(w, (-4.5, 4.0), 0.5)
    assert rep.status == "certified"
    tail = tail_k_bound(w, rep.grid[-1])
    assert tail == -2.0
    lam, pinched = rescale_to_pinching(rep.bounds_curve, tail)
    assert lam == rep.scale
    assert pinched == rep.pinched_from
    assert np.isfinite(pinched)
    lam2 = lam * lam
    b = rep.bounds_curve
    suffix = b.t >= pinched
    assert np.all(b.k_min[suffix] / lam2 > -1.0)
    assert np.all(b.k_max[suffix] / lam2 < 0.0)


def test_tail_bound_only_where_the_shifted_regime_is_proved():
    assert tail_k_bound(ShiftedExp(), -3.0) == -2.0
    assert tail_k_bound(Interpolated(-4.0, -1.0), -1.0) == -2.0
    assert tail_k_bound(Interpolated(-4.0, -1.0), -1.5) is None
    assert tail_k_bound(PureExp(), -1.0) is None
    assert tail_k_bound(ConstantWarp(), 5.0) is None


def test_certify_without_tail_bound_claims_no_suffix():
    # the grid stops inside the transition window: nothing past it is known
    rep = certify(Interpolated(-4.0, -1.0), (-5.0, -2.0), 0.5)
    assert rep.status == "certified"
    assert rep.pinched_from == np.inf
    rep = certify(PureExp(), (-5.0, -1.0), 0.5)
    assert rep.status == "certified"
    assert rep.pinched_from == np.inf


@pytest.mark.parametrize("warp", [ShiftedExp(), Interpolated(-4.0, -1.0)])
def test_pinching_scale_covers_the_analytic_tail(warp):
    # k_min -> -2 as t -> inf, so a scale fitted to the grid alone
    # (lambda^2 = 1.99989 on [-6, 10]) puts k_min / lambda^2 below -1
    rep = certify(warp, (-6.0, 10.0), 0.5)
    assert rep.status == "certified"
    assert np.isfinite(rep.pinched_from)
    lam2 = rep.scale**2
    for t in (12.0, 20.0, 40.0):
        assert extremize_k(warp, t).k_min / lam2 > -1.0, t


def test_extremes_are_the_form_eigenvalues_with_exact_witnesses():
    # the closed forms against eigh of the tensor pipeline's frame form;
    # both witnesses are analytic planes, which attain their extremes
    for warp in (PureExp(), ShiftedExp(), Interpolated(-4.0, -1.0)):
        for t in (-3.0, -2.5, -1.5, -0.5):
            b = extremize_k(warp, t)
            Q = riemann_closed(metric_at(warp, t, 0.0)).pair_matrix(frame=True)
            eig = np.linalg.eigvalsh(Q)
            for k, lam in ((b.k_min, eig[0]), (b.k_max, eig[-1])):
                assert abs(k - lam) <= 16.0 * EPS * max(1.0, abs(lam))
            assert b.method_agreement <= 1e-14


def test_certify_runs_no_tensor_eigh_or_svd(monkeypatch):
    # the grid is certified from the closed forms alone: the metric, the
    # tensor pipeline, eigh and the SVD all raise here, and only the
    # general-metric extremize_point still reaches them
    certify_module = sys.modules["solcusp.certify"]
    warp = build_interpolation(-4.0, -1.0)
    expected = certify(warp, (-6.0, 10.0), 0.05)

    def refuse(*args, **kwargs):
        raise AssertionError("called on certify's path")

    for owner, name in ((curvature_module, "metric_at"), (curvature_module, "riemann_closed"),
                        (certify_module, "riemann_closed"), (np.linalg, "eigh"),
                        (np.linalg, "svd")):
        monkeypatch.setattr(owner, name, refuse)
    assert not hasattr(certify_module, "metric_at")
    rep = certify(warp, (-6.0, 10.0), 0.05)
    assert rep.status == "certified"
    assert np.array_equal(rep.bounds_curve.k_max, expected.bounds_curve.k_max)
    assert extremize_k(warp, rep.grid[130]).k_max == expected.bounds_curve.k_max[130]
    with pytest.raises(AssertionError, match="certify's path"):
        extremize_point(hyperbolic_metric_point(0.3))
