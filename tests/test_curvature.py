import numpy as np
import pytest

from solcusp.curvature import (
    PAIRS,
    DegeneratePlaneError,
    RiemannTensor,
    christoffel,
    match_component_table,
    metric_at,
    metric_diag,
    component_table,
    riemann_closed,
    riemann_fd,
    riemann_fd_general,
    sectional_curvature,
)
from solcusp.certify import extremize_k, extremize_point
from solcusp.warp import Interpolated, PureExp, ShiftedExp

from diagnostic_metrics import (
    flat_metric_point,
    hyperbolic_metric_point,
    sol_product_metric_point,
)

FAMILIES = [PureExp(), ShiftedExp(), Interpolated(-4.0, -1.0)]
GRID = [(t, z) for t in np.linspace(-3, 3, 5) for z in np.linspace(-1, 1, 5)]


def test_metric_diagonal_at_origin():
    p = metric_at(ShiftedExp(), 0.0, 0.0)
    assert np.allclose(np.diag(p.g), [1.0, 1.0, 4.0, 1.0], atol=0.0)


def test_metric_gzz_pure_exp():
    p = metric_at(PureExp(), 1.0, 0.0)
    assert p.g[2, 2] == pytest.approx(np.exp(-2.0), rel=1e-15)


@pytest.mark.parametrize("warp", FAMILIES)
def test_planar_coefficients_cancel_z(warp):
    for (t, z) in [(-2.0, 0.7), (0.5, -0.3), (3.0, 1.0)]:
        p = metric_at(warp, t, z)
        assert p.g[0, 0] * p.g[1, 1] == pytest.approx(np.exp(-4.0 * t), rel=1e-13)


@pytest.mark.parametrize("warp", FAMILIES)
def test_metric_diag_agrees_with_metric_at(warp):
    # the vectorized diagonal (used by the volume density) and the full
    # MetricPoint must state the same coefficients
    for (t, z) in [(-2.0, 0.7), (0.0, 0.0), (1.5, -1.0)]:
        stacked = np.array([c for c in metric_diag(warp, t, z)])
        assert np.array_equal(stacked, np.diag(metric_at(warp, t, z).g))


@pytest.mark.parametrize("warp", FAMILIES)
def test_metric_inverse(warp):
    for (t, z) in GRID:
        p = metric_at(warp, t, z)
        assert np.max(np.abs(p.g @ p.g_inv - np.eye(4))) <= 1e-14
        assert np.all(np.diag(p.g) > 0.0)


def test_flat_metric_has_no_christoffel():
    assert np.all(christoffel(flat_metric_point()) == 0.0)


def test_christoffel_t_zz_at_origin():
    # Gamma^t_zz = -f f' = 2 for the shifted family at t = 0
    Gam = christoffel(metric_at(ShiftedExp(), 0.0, 0.0))
    assert Gam[3, 2, 2] == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("warp", FAMILIES)
def test_christoffel_symmetric_in_lower_indices(warp):
    for (t, z) in [(-1.5, 0.4), (2.0, -0.8)]:
        Gam = christoffel(metric_at(warp, t, z))
        assert np.max(np.abs(Gam - np.transpose(Gam, (0, 2, 1)))) == 0.0


def test_hyperbolic_diagnostic_all_coordinate_planes():
    p = hyperbolic_metric_point(0.7)
    R = riemann_closed(p)
    eye = np.eye(4)
    for (i, j) in PAIRS:
        K = sectional_curvature(R, p, eye[i], eye[j])
        assert K == pytest.approx(-1.0, abs=1e-12)


def test_tabulated_slots_at_origin():
    p = metric_at(ShiftedExp(), 0.0, 0.0)
    R = riemann_closed(p)
    assert R.component(2, 3, 2, 3) == pytest.approx(-2.0, abs=1e-13)   # -f f''
    assert R.component(0, 1, 0, 1) == pytest.approx(-0.75, abs=1e-13)  # (1-f^2)/f^2


def test_flat_fd_components_vanish():
    R = riemann_fd_general(lambda t, z: flat_metric_point(), 0.0, 0.0)
    assert np.max(np.abs(R.full)) < 1e-9


@pytest.mark.parametrize("warp", FAMILIES)
def test_pipeline_agreement(warp):
    # closed-form vs finite differences at h = 1e-4 over the stated grid
    for (t, z) in GRID:
        Rc = riemann_closed(metric_at(warp, t, z))
        Rf = riemann_fd(warp, t, z)
        assert np.max(np.abs(Rc.full - Rf.full)) <= 1e-6


@pytest.mark.parametrize("warp", FAMILIES)
def test_tensor_symmetries_and_bianchi(warp):
    # residuals are scale-relative: the tensor itself reaches e^12 on this
    # grid, far above an absolute 1e-12 float budget
    for (t, z) in GRID:
        Rc = riemann_closed(metric_at(warp, t, z))
        Rf = riemann_fd(warp, t, z)
        sc = max(1.0, float(np.max(np.abs(Rc.full))))
        sf = max(1.0, float(np.max(np.abs(Rf.full))))
        assert Rc.antisymmetry_residual() / sc <= 1e-12
        assert Rc.pair_symmetry_residual() / sc <= 1e-12
        assert Rc.bianchi_residual() / sc <= 1e-12
        assert Rf.antisymmetry_residual() / sf <= 1e-8
        assert Rf.pair_symmetry_residual() / sf <= 1e-8
        assert Rf.bianchi_residual() / sf <= 1e-8


@pytest.mark.parametrize("warp", FAMILIES)
def test_frame_curvatures_independent_of_z(warp):
    for t in (-2.0, 0.0, 1.5):
        base = extremize_k(warp, t).frame_plane_k
        for z in np.linspace(-1.0, 1.0, 7):
            there = extremize_point(metric_at(warp, t, z)).frame_plane_k
            for key in base:
                assert abs(base[key] - there[key]) <= 1e-8


def test_fd_frame_curvatures_independent_of_z():
    # same statement through the finite-difference pipeline
    def frame_k(z):
        p = metric_at(PureExp(), -1.0, z)
        R = riemann_fd(PureExp(), -1.0, z)
        Q = R.pair_matrix(frame=True)
        return np.diag(Q)

    assert np.max(np.abs(frame_k(0.3) - frame_k(0.7))) <= 1e-8


def test_warped_product_closed_forms_for_pure_exp():
    for t in (-3.0, -1.0, -0.25):
        k = extremize_k(PureExp(), t).frame_plane_k
        e2t = np.exp(2.0 * t)
        assert abs(k["xt"] + 1.0) <= 1e-8
        assert abs(k["yt"] + 1.0) <= 1e-8
        assert abs(k["zt"] + 1.0) <= 1e-8
        assert abs(k["xy"] - (e2t - 1.0)) <= 1e-8
        assert abs(k["xz"] - (-e2t - 1.0)) <= 1e-8
        assert abs(k["yz"] - (-e2t - 1.0)) <= 1e-8


def test_sol_base_curvatures():
    p = sol_product_metric_point(0.4)
    R = riemann_closed(p)
    eye = np.eye(4)
    assert sectional_curvature(R, p, eye[0], eye[1]) == pytest.approx(1.0, abs=1e-12)
    assert sectional_curvature(R, p, eye[0], eye[2]) == pytest.approx(-1.0, abs=1e-12)
    assert sectional_curvature(R, p, eye[1], eye[2]) == pytest.approx(-1.0, abs=1e-12)


def test_sectional_curvature_known_planes():
    p = metric_at(PureExp(), -1.0, 0.0)
    R = riemann_closed(p)
    eye = np.eye(4)
    k_xy = sectional_curvature(R, p, eye[0], eye[1])
    assert k_xy == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-12)
    # the (e_z, e_t) plane gives -f''/f for every family
    for warp in FAMILIES:
        for t in (-2.0, 0.5, 3.0):
            q = metric_at(warp, t, 0.2)
            f, fp, fpp = warp.eval(t)
            k_zt = sectional_curvature(riemann_closed(q), q, eye[2], eye[3])
            assert k_zt == pytest.approx(-fpp / f, rel=1e-10)


def test_sectional_curvature_basis_invariance():
    p = metric_at(ShiftedExp(), -0.5, 0.3)
    R = riemann_closed(p)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        k1 = sectional_curvature(R, p, u, v)
        k2 = sectional_curvature(R, p, u + v, v)
        k3 = sectional_curvature(R, p, 2.0 * u, v - 0.5 * u)
        assert abs(k1 - k2) <= 1e-12 * max(1.0, abs(k1))
        assert abs(k1 - k3) <= 1e-12 * max(1.0, abs(k1))


def test_sectional_curvature_rejects_degenerate_plane():
    p = metric_at(ShiftedExp(), 0.0, 0.0)
    R = riemann_closed(p)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(R, p, u, 2.0 * u)


def test_match_identifies_axes_and_sign():
    points = [(t, z) for t in (-1.0, 0.0, 1.0) for z in (-0.5, 0.0, 0.5)]
    rep = match_component_table(ShiftedExp(), points)
    assert rep.index_map == {1: "x", 2: "y", 3: "z", 4: "t"}
    assert rep.sign == 1
    assert rep.max_residual <= 1e-5
    assert rep.extra_components == []
    assert rep.pipeline_agreement <= 1e-6
    # the winning assignment is isolated: every other one is far worse
    others = [v for k, v in rep.all_assignments.items() if k != "xyzt+"]
    assert min(others) > 1e-2


def test_r1414_slot_is_f_independent():
    # R_1414 / (-e^(-2t-2z)) = 1 for every family
    for warp in FAMILIES:
        for (t, z) in [(-1.0, 0.5), (0.5, -0.25)]:
            R = riemann_fd(warp, t, z)
            got = R.component(0, 3, 0, 3)
            assert got / (-np.exp(-2 * t - 2 * z)) == pytest.approx(1.0, rel=1e-9)


def test_pure_exp_kills_the_mixed_components():
    # 1 + f'/f = 0 identically for f = e^(-t)
    tab = component_table(PureExp(), -1.0, 0.3)
    assert tab[(0, 3, 2, 0)] == 0.0
    assert tab[(1, 3, 2, 1)] == 0.0
    rep = match_component_table(PureExp(), [(-1.0, 0.3)])
    assert rep.index_map == {1: "x", 2: "y", 3: "z", 4: "t"}
    assert rep.max_residual <= 1e-5


def test_match_requires_points():
    with pytest.raises(ValueError):
        match_component_table(ShiftedExp(), [])


@pytest.mark.parametrize("frame", [False, True])
def test_pair_matrix_gather_equals_double_loop(frame):
    # pair_matrix is a pure gather: bit-identical to filling Q slot by slot
    rng = np.random.default_rng(3)
    for _ in range(50):
        full = rng.standard_normal((4, 4, 4, 4)) * 10.0 ** rng.uniform(-8, 8)
        g = np.diag(10.0 ** rng.uniform(-4, 4, 4))
        src = full
        if frame:
            s = 1.0 / np.sqrt(np.diag(g))
            src = full * np.einsum("i,j,k,l->ijkl", s, s, s, s)
        loop = np.empty((6, 6))
        for a, (i, j) in enumerate(PAIRS):
            for b, (k, l) in enumerate(PAIRS):
                loop[a, b] = src[i, j, k, l]
        assert np.array_equal(RiemannTensor(full=full, g=g).pair_matrix(frame=frame), loop)
