import dataclasses
import json
import sys

import numpy as np
import pytest

from solcusp.certify import (
    WitnessPlane,
    certify,
    extremize_k,
    extremize_point,
    rescale_to_pinching,
    tail_k_bound,
)
from solcusp.cli import main as cli_main
from solcusp.curvature import metric_at, riemann_closed, sectional_curvature
from solcusp.warp import Interpolated, PureExp, ShiftedExp

from diagnostic_metrics import hyperbolic_metric_point


class ConstantWarp:
    """Deliberately broken warp: f = 2, f' = 0 (condition b margin is 0)."""

    family = "constant"

    def eval(self, t):
        return 2.0, 0.0, 0.0

    def eval_array(self, t):
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
    for k in b.frame_plane_k.values():
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
    for chart in (b.argmin_plane, b.argmax_plane):
        u, v = chart.u, chart.v
        assert abs(u @ u - 1.0) <= 1e-12
        assert abs(v @ v - 1.0) <= 1e-12
        assert abs(u @ v) <= 1e-12
        uc, vc = chart.plane_coord()
        assert abs(uc @ p.g @ uc - 1.0) <= 1e-12
        assert abs(vc @ p.g @ vc - 1.0) <= 1e-12
        assert abs(uc @ p.g @ vc) <= 1e-12


def test_argmin_plane_reproduces_k_min():
    b = extremize_k(ShiftedExp(), 0.0)
    p = metric_at(ShiftedExp(), 0.0, 0.0)
    R = riemann_closed(p)
    uc, vc = b.argmin_plane.plane_coord()
    assert sectional_curvature(R, p, uc, vc) == pytest.approx(b.k_min, abs=1e-10)
    uc, vc = b.argmax_plane.plane_coord()
    assert sectional_curvature(R, p, uc, vc) == pytest.approx(b.k_max, abs=1e-10)


def test_extremize_is_deterministic():
    a = extremize_k(ShiftedExp(), 1.0)
    b = extremize_k(ShiftedExp(), 1.0)
    assert a.k_min == b.k_min
    assert a.k_max == b.k_max
    assert a.method_agreement == b.method_agreement
    assert np.array_equal(a.argmin_plane.u, b.argmin_plane.u)
    assert np.array_equal(a.argmin_plane.v, b.argmin_plane.v)


def test_certify_small_grid_is_certified():
    rep = certify(ShiftedExp(), (-2.0, 2.0), 0.5)
    assert rep.status == "certified"
    assert rep.global_negative
    assert rep.max_k < -1e-9
    assert np.isfinite(rep.pinched_from)
    assert rep.witness is None
    # conditions-vs-negativity cross-check: margins positive everywhere on
    # the grid, so every point must indeed have k_max < 0
    assert np.all(rep.margins > 0.0)
    assert all(b.k_max < 0.0 for b in rep.bounds_curve)


def test_certify_shifted_exp_full_range():
    rep = certify(ShiftedExp(), (-6.0, 10.0), 0.25)
    assert rep.status == "certified"
    assert rep.global_negative
    assert np.isfinite(rep.pinched_from)
    # curvature is bounded below along the whole curve
    assert min(b.k_min for b in rep.bounds_curve) > -2.1


def test_certify_refuses_broken_warp_before_sampling():
    rep = certify(ConstantWarp(), (-1.0, 1.0), 0.5)
    assert rep.status == "refused_conditions"
    assert rep.bounds_curve == []
    assert rep.witness["kind"] == "condition"
    assert rep.witness["condition"] == "b"
    assert rep.witness["margin"] <= 0.0


def test_certify_refuses_pure_exp_on_positive_range():
    rep = certify(PureExp(), (0.1, 5.0), 0.5)
    assert rep.status == "refused_conditions"
    assert rep.witness["condition"] == "a"


def test_certify_is_deterministic():
    a = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    b = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert [x.k_min for x in a.bounds_curve] == [x.k_min for x in b.bounds_curve]
    assert [x.k_max for x in a.bounds_curve] == [x.k_max for x in b.bounds_curve]
    assert a.scale == b.scale


def test_certify_inconclusive_when_margin_underflows_floor():
    # far down the cusp k_max ~ -e^(-t) sinks below the certification floor
    # while every condition margin stays positive
    rep = certify(ShiftedExp(), (24.0, 26.0), 0.5, floor=1e-9)
    assert np.all(rep.margins > 0.0)
    assert rep.status == "inconclusive"
    assert -1e-9 <= rep.max_k < 0.0


def test_certify_reports_regime_tail_notes():
    rep = certify(Interpolated(-4.0, -1.0), (-1.0, 1.0), 0.5)
    joined = " ".join(rep.tail_notes)
    assert "e^-t regime" in joined
    assert "1 + e^-t regime" in joined


E_T_NOTE = ("f = e^-t regime; frame planes give K(Et,.) = -1, "
            "K(Ex,Ey) = e^2t - 1, K(Ex,Ez) = K(Ey,Ez) = -e^2t - 1; "
            "all limits -> -1 as t -> -inf")
SHIFTED_NOTE = ("f = 1 + e^-t regime; k_max -> 0- like -f''/f = "
                "-e^-t/(1+e^-t) and k_min -> -2 as t -> +inf")


@pytest.mark.parametrize("warp,t_range,notes", [
    (PureExp(), (-2.0, -1.0), [f"all t < 0: {E_T_NOTE}"]),
    (ShiftedExp(), (-1.0, 1.0), [f"all t: {SHIFTED_NOTE}"]),
    (Interpolated(-4.0, -1.0), (-1.0, 1.0),
     [f"t <= -4: {E_T_NOTE}", f"t >= -1: {SHIFTED_NOTE}"]),
], ids=lambda v: getattr(v, "family", None))
def test_certify_tail_notes_are_exact_per_family(warp, t_range, notes):
    # the strings are report bytes: certify.json must not change with them
    assert certify(warp, t_range, 0.5).tail_notes == notes


def test_certify_flags_witness_gaps_above_the_fixed_bound(monkeypatch):
    # the flag bound is 1e-12: a gap of 2e-12 is flagged, 1e-12 is not,
    # and neither changes the verdict
    certify_module = sys.modules["solcusp.certify"]
    exact = certify_module.extremize_k
    gaps = {-1.0: 2e-12, 0.0: 1e-12}

    def widened(warp, t):
        b = exact(warp, t)
        return dataclasses.replace(b, method_agreement=gaps.get(t, b.method_agreement))

    monkeypatch.setattr(certify_module, "extremize_k", widened)
    rep = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert rep.status == "certified"
    assert rep.flagged_points == [-1.0]


def test_certify_reports_positive_curvature_as_violation(monkeypatch, capsys):
    # no admissible warp reaches K >= 0, so a patched extremize_k reports
    # k_max = +1e-3 at t = 0.5 and the witness must name that point's plane
    certify_module = sys.modules["solcusp.certify"]
    exact = certify_module.extremize_k

    def positive(warp, t):
        b = exact(warp, t)
        return dataclasses.replace(b, k_max=1e-3) if t == 0.5 else b

    monkeypatch.setattr(certify_module, "extremize_k", positive)
    rep = certify(ShiftedExp(), (-1.0, 1.0), 0.5)
    assert rep.status == "violation"
    assert rep.global_negative is False
    assert np.isnan(rep.scale) and rep.pinched_from == np.inf
    assert rep.max_k == 1e-3
    worst = rep.bounds_curve[3]
    assert worst.t == 0.5
    assert rep.witness == {
        "kind": "positive_curvature",
        "t": 0.5,
        "k_max": 1e-3,
        "plane_basis": [worst.argmax_plane.u.tolist(), worst.argmax_plane.v.tolist()],
    }
    argv = ["certify", "--warp", "shifted-exp", "--t-min", "-1", "--t-max", "1",
            "--step", "0.5"]
    assert cli_main(argv) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "violation"


def test_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify(ShiftedExp(), (1.0, -1.0), 0.5)
    with pytest.raises(ValueError):
        certify(ShiftedExp(), (-1.0, 1.0), 0.0)


def test_rescale_boundary_curve():
    class Stub:
        def __init__(self, t, k_min, k_max):
            self.t, self.k_min, self.k_max = t, k_min, k_max

    curve = [Stub(t, -1.0, -0.25) for t in np.linspace(0.0, 2.0, 5)]
    lam, pinched = rescale_to_pinching(curve, floor=1e-9, tail_k_min=-1.0)
    # k_min = -1 exactly sits on the open bound, so lambda^2 must exceed 1
    assert lam**2 == pytest.approx(1.0 + 1e-9, rel=1e-12)
    assert pinched == 0.0
    # a steeper tail raises the scale; without a tail bound nothing past
    # the grid is known, so no suffix reaches infinity
    lam, pinched = rescale_to_pinching(curve, floor=1e-9, tail_k_min=-2.0)
    assert lam**2 == pytest.approx(2.0 * (1.0 + 1e-9), rel=1e-12)
    assert pinched == 0.0
    lam, pinched = rescale_to_pinching(curve, floor=1e-9)
    assert lam**2 == pytest.approx(1.0 + 1e-9, rel=1e-12)
    assert pinched == np.inf


def test_rescale_requires_negative_curve():
    class Stub:
        def __init__(self, t, k_min, k_max):
            self.t, self.k_min, self.k_max = t, k_min, k_max

    with pytest.raises(ValueError):
        rescale_to_pinching([Stub(0.0, -1.0, 0.5)])
    with pytest.raises(ValueError):
        rescale_to_pinching([])


def test_rescale_of_certified_curve_pins_the_suffix():
    w = Interpolated(-4.0, -1.0)
    rep = certify(w, (-4.5, 4.0), 0.5)
    assert rep.status == "certified"
    tail = tail_k_bound(w, rep.grid[-1])
    assert tail == -2.0
    lam, pinched = rescale_to_pinching(rep.bounds_curve, rep.floor, tail)
    assert lam == rep.scale
    assert pinched == rep.pinched_from
    assert np.isfinite(pinched)
    lam2 = lam * lam
    for b in rep.bounds_curve:
        if b.t >= pinched:
            assert b.k_min / lam2 > -1.0
            assert b.k_max / lam2 < 0.0


def test_witness_plane_rejects_mutation():
    plane = WitnessPlane(
        u=np.eye(4)[0],
        v=np.eye(4)[1],
        frame_to_coord=np.ones(4),
    )
    for arr in (plane.u, plane.v, plane.frame_to_coord):
        with pytest.raises(ValueError):
            arr[0] = 1.0


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
    for warp in (PureExp(), ShiftedExp(), Interpolated(-4.0, -1.0)):
        for t in (-3.0, -2.5, -1.5, -0.5):
            b = extremize_k(warp, t)
            Q = riemann_closed(metric_at(warp, t, 0.0)).pair_matrix(frame=True)
            eig = np.linalg.eigvalsh(Q)
            assert b.k_min == eig[0] and b.k_max == eig[-1]
            assert b.method_agreement <= 1e-14
            assert b.resampled == 0
