"""The stacked curvature and certify kernels against their per-point bodies.

``metric_at`` takes arrays t, z, and every kernel after it carries their
leading axes; ``certify`` runs its whole grid through one stacked call of
its closed-form kernel.  The references in ``per_point_reference.py`` are
the tensor kernels as they were written for one point at a time.  Stacks of
shape (), (n,) and (n, 9) must reproduce them exactly (==), element by
element, for all three warp families; the stacked closed-form kernel must
equal its 0-d case, ``extremize_k``, exactly, and ``eigh`` of the tensor
pipeline's frame form to 16 eps.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_point_reference as ref
from solcusp.certify import certify, extremize_k, extremize_point
from solcusp.curvature import (
    christoffel,
    christoffel_derivatives,
    metric_at,
    riemann_closed,
    riemann_fd,
)
from solcusp.warp import PureExp, ShiftedExp, build_interpolation, condition_margins

from diagnostic_metrics import closed_form_gaps

# the module, which the package's certify function shadows as an attribute
certify_module = importlib.import_module("solcusp.certify")
DEFAULT_GRID = np.arange(-6.0, 10.0 + 0.025, 0.05)
# closed-form extremes against eigh of the tensor pipeline's frame form, in
# units of eps max(1, |K|); the witnesses' K against their extremes
EXTREME_GAP_EPS = 16.0
WITNESS_GAP = 1e-12


def assert_same_bounds(b, i, r):
    """The stacked bounds b at index i equal the per-point bounds r, field by field."""
    assert b.t[i] == r.t
    assert b.k_min[i] == r.k_min
    assert b.k_max[i] == r.k_max
    assert b.block_min[i].tobytes() == r.block_min.tobytes()
    assert b.block_max[i].tobytes() == r.block_max.tobytes()


def assert_stack_shape(b, shape):
    """Every field of the bounds b carries the stack's shape; the block
    codes are integers."""
    for arr in (b.t, b.k_min, b.k_max, b.block_min, b.block_max):
        assert isinstance(arr, np.ndarray) and arr.shape == shape
    for codes in (b.block_min, b.block_max):
        assert np.issubdtype(codes.dtype, np.integer)


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
    values = warp.eval(t)
    bounds = certify_module._closed_extremes(
        t, condition_margins(warp, t, values)[..., 0], *values)
    assert_stack_shape(bounds, shape)
    for i in np.ndindex(shape):
        q = ref.metric_at(warp, t[i], z[i])
        for name in ("g", "dg", "d2g"):
            assert np.array_equal(getattr(p, name)[i], getattr(q, name)), name
        assert np.array_equal(gam[i], ref.christoffel(q))
        assert np.array_equal(dgam[i], ref.christoffel_derivatives(q))
        ref_closed = ref.riemann_closed(q)
        assert np.array_equal(closed.full[i], ref_closed.full)
        assert np.array_equal(frame[i], ref.frame_pair_matrix(ref_closed))
        ref_fd = ref.riemann_fd(warp, t[i], z[i])
        assert np.array_equal(fd.full[i], ref_fd.full)
        assert np.array_equal(fd.g[i], ref_fd.g)
        assert_same_bounds(bounds, i, extremize_k(warp, t[i]))
    if shape == ():
        # the loop's one point, whose frame form is pinned above
        k = np.array(extremize_point(p))
        assert k.tobytes() == np.array(ref.extremize_point(q)).tobytes()


def test_certify_bounds_equal_the_per_point_bodies_on_the_default_grid():
    # the closed-form extremes at every point of the default grid: equal to
    # extremize_k's bits, within 16 eps of eigh of the tensor pipeline's
    # frame form, and attained by the planes of their blocks to 1e-12
    warp = build_interpolation(-4.0, -1.0)
    rep = certify(warp, (-6.0, 10.0), 0.05)
    assert rep.grid.size == DEFAULT_GRID.size == 321
    assert np.array_equal(rep.grid, DEFAULT_GRID)
    assert_stack_shape(rep.bounds_curve, rep.grid.shape)
    for i, t in enumerate(rep.grid):
        assert_same_bounds(rep.bounds_curve, i, extremize_k(warp, t))
    extreme, witness = closed_form_gaps(warp, rep.bounds_curve)
    assert extreme <= EXTREME_GAP_EPS and witness <= WITNESS_GAP


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["pure-exp", "shifted-exp", "interpolated"]),
    t_hi=st.floats(min_value=-1.5, max_value=-0.1),
    width=st.floats(min_value=0.5, max_value=4.0),
    t_min=st.floats(min_value=-30.0, max_value=25.0),
    n=st.integers(min_value=1, max_value=40),
    step=st.floats(min_value=1e-3, max_value=0.25),
)
def test_closed_extremes_match_eigh_on_random_grids(family, t_hi, width, t_min, n, step):
    # the default-grid check on random grids of all three families, on
    # [-30, 35]; pure-exp is admissible only for t < 0
    warp = make_warp(family, t_hi, width)
    if family == "pure-exp":
        t_min = min(t_min, -0.01) - n * step
    rep = certify(warp, (t_min, t_min + (n - 0.5) * step), step)
    assert rep.bounds_curve is not None
    extreme, witness = closed_form_gaps(warp, rep.bounds_curve)
    assert extreme <= EXTREME_GAP_EPS and witness <= WITNESS_GAP


def test_extremize_point_takes_one_point():
    p = metric_at(ShiftedExp(), np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError, match="one point"):
        extremize_point(p)
