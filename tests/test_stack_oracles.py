"""The stacked curvature and certify kernels against their per-point bodies.

``metric_at`` takes arrays t, z, and every kernel after it carries their
leading axes; ``certify`` runs its whole grid through one stacked call.
The references in ``per_point_reference.py`` are the kernels as they were
written for one point at a time.  Stacks of shape (), (n,) and (n, 9) must
reproduce them exactly (==), element by element, for all three warp
families.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_point_reference as ref
from solcusp.certify import certify, extremize_k, extremize_point
from solcusp.curvature import (
    PAIRS,
    christoffel,
    christoffel_derivatives,
    metric_at,
    riemann_closed,
    riemann_fd,
)
from solcusp.warp import PureExp, ShiftedExp, build_interpolation

# the module, which the package's certify function shadows as an attribute
certify_module = importlib.import_module("solcusp.certify")
DEFAULT_GRID = np.arange(-6.0, 10.0 + 0.025, 0.05)


def assert_same_bounds(b, r):
    assert b.t == r.t
    assert b.k_min == r.k_min
    assert b.k_max == r.k_max
    for plane, ref_plane in ((b.argmin_plane, r.argmin_plane), (b.argmax_plane, r.argmax_plane)):
        assert np.array_equal(plane.u, ref_plane.u)
        assert np.array_equal(plane.v, ref_plane.v)
        assert np.array_equal(plane.frame_to_coord, ref_plane.frame_to_coord)
    assert b.method_agreement == r.method_agreement
    assert b.frame_plane_k == r.frame_plane_k
    assert list(b.frame_plane_k) == list(r.frame_plane_k)
    assert b.resampled == r.resampled == 0


def make_warp(family, t_hi, width):
    if family == "pure-exp":
        return PureExp()
    if family == "shifted-exp":
        return ShiftedExp()
    return build_interpolation(t_hi - width, t_hi)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["pure-exp", "shifted-exp", "interpolated"]),
    t_hi=st.floats(min_value=-1.5, max_value=-0.1),
    width=st.floats(min_value=0.5, max_value=4.0),
    shape=st.sampled_from(["()", "(n,)", "(n, 9)"]),
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_stacked_kernels_equal_the_per_point_bodies(family, t_hi, width, shape, n, data):
    warp = make_warp(family, t_hi, width)
    shape = {"()": (), "(n,)": (n,), "(n, 9)": (n, 9)}[shape]
    size = int(np.prod(shape))
    t = np.array(data.draw(st.lists(st.floats(min_value=-6.0, max_value=10.0),
                                    min_size=size, max_size=size))).reshape(shape)
    z = np.array(data.draw(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                                    min_size=size, max_size=size))).reshape(shape)

    p = metric_at(warp, t, z)
    assert p.shape == shape
    gam, dgam = christoffel(p), christoffel_derivatives(p)
    closed = riemann_closed(p)
    fd = riemann_fd(warp, t, z)
    frame = closed.pair_matrix(frame=True)
    bounds = certify_module._extremize(p)
    assert len(bounds) == size
    for b, i in zip(bounds, np.ndindex(shape)):
        q = ref.metric_at(warp, t[i], z[i])
        for name in ("g", "g_inv", "dg", "d2g"):
            assert np.array_equal(getattr(p, name)[i], getattr(q, name)), name
        assert np.array_equal(gam[i], ref.christoffel(q))
        assert np.array_equal(dgam[i], ref.christoffel_derivatives(q))
        ref_closed = ref.riemann_closed(q)
        assert np.array_equal(closed.full[i], ref_closed.full)
        assert np.array_equal(frame[i], ref.frame_pair_matrix(ref_closed))
        ref_fd = ref.riemann_fd(warp, t[i], z[i])
        assert np.array_equal(fd.full[i], ref_fd.full)
        assert np.array_equal(fd.g[i], ref_fd.g)
        assert_same_bounds(b, ref.extremize_point(q))
    if shape == ():
        assert_same_bounds(extremize_point(p), ref.extremize_point(ref.metric_at(warp, t, z)))


def test_certify_bounds_equal_the_per_point_bodies_on_the_default_grid():
    warp = build_interpolation(-4.0, -1.0)
    rep = certify(warp, (-6.0, 10.0), 0.05)
    assert rep.grid.size == DEFAULT_GRID.size == 321
    assert np.array_equal(rep.grid, DEFAULT_GRID)
    for b, t in zip(rep.bounds_curve, rep.grid):
        r = ref.extremize_point(ref.metric_at(warp, t, 0.0))
        assert_same_bounds(b, r)
        assert_same_bounds(extremize_k(warp, t), r)


def test_einsum_witness_k_would_move_the_last_bits():
    # at t = -3.55 on the default grid a three-operand einsum sums the four
    # products of the argmax witness's 2x2 block in another order than
    # w @ Q @ w, and lands one ulp off; the stacked matmul does not
    warp = build_interpolation(-4.0, -1.0)
    i = 49
    p = ref.metric_at(warp, DEFAULT_GRID[i], 0.0)
    Q = ref.frame_pair_matrix(ref.riemann_closed(p))
    vecs = np.linalg.eigh(Q)[1]
    u, v = ref.plane_from_bivector(vecs[:, -1])
    w = np.array([u[a] * v[b] - u[b] * v[a] for a, b in PAIRS])
    k_ref = ref.k_of_plane(Q, u, v)
    assert np.einsum("i,ij,j->", w, Q, w) / (w @ w) != k_ref
    assert certify_module._witness(Q, vecs[:, -1])[2] == k_ref
    b = certify(warp, (-6.0, 10.0), 0.05).bounds_curve[i]
    assert b.method_agreement == ref.extremize_point(p).method_agreement


def test_extremize_point_takes_one_point():
    p = metric_at(ShiftedExp(), np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError, match="one point"):
        extremize_point(p)
