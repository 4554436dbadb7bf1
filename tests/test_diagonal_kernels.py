"""The diagonal kernels against the dense bodies they replaced, bit for bit.

The cusp metric g, its inverse and every d_l g are diagonal, and so is the
linear part diag(lam, 1/lam, 1) of a deck map.  ``christoffel``,
``christoffel_derivatives`` and the lowering of the Riemann tensor contract
against them by broadcast products; ``verify_isometry`` takes the largest
|entry| of an exactly diagonal deviation instead of its SVD; and
``adaptive_quad`` evaluates both halves of a split in one call.  The
references in ``per_point_reference.py`` are the einsum, SVD and
one-panel-per-call bodies.  Where every tensor is finite the outputs must
equal theirs by ``tobytes()``; where one is not, ``match_component_table``
and ``certify`` must refuse with the same message.
"""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_point_reference as ref
from solcusp import curvature, lattice
from solcusp.certify import certify
from solcusp.cli import _certify_csv, _certify_payload
from solcusp.curvature import (
    christoffel,
    christoffel_derivatives,
    match_component_table,
    metric_at,
    riemann_closed,
    riemann_fd,
)
from solcusp.lattice import (
    AffineMap3,
    AnosovMatrix,
    build_sol_lattice,
    default_samples,
    verify_isometry,
)
from solcusp.serialize import to_json_text
from solcusp.volume import QuadratureError, _density, adaptive_quad
from solcusp.warp import PureExp, ShiftedExp, build_interpolation
from test_lattice import hyperbolic_sl2z, product
from test_scan_oracles import NON_DIAGONAL

# the module, which the package's certify function shadows as an attribute
certify_module = importlib.import_module("solcusp.certify")

# e^(2t) overflows above 354.9 and underflows below -372.6; e^-t overflows
# below -709.8.  The metric, the stencil and the frame form cross them.
EDGES = [354.8, 354.9, 355.0, 372.5, 372.6, 372.7, 709.7, 709.8, 709.9]
wide_t = st.one_of(
    st.floats(-6.0, 10.0),
    st.floats(-720.0, 720.0),
    st.sampled_from(EDGES + [-e for e in EDGES]),
)


@st.composite
def warps(draw):
    family = draw(st.sampled_from(["pure-exp", "shifted-exp", "interpolated"]))
    if family == "pure-exp":
        return PureExp()
    if family == "shifted-exp":
        return ShiftedExp()
    t_hi = draw(st.floats(-1.5, -0.1))
    return build_interpolation(t_hi - draw(st.floats(0.5, 4.0)), t_hi)


def outcome(call) -> str:
    """The call's result as text, or its ValueError's message."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@st.composite
def stacks(draw):
    """(t, z) arrays of one shape, t drawn out past the edges."""
    shape = draw(st.sampled_from([(), (5,), (3, 2)]))
    size = int(np.prod(shape))
    t = draw(st.lists(wide_t, min_size=size, max_size=size))
    z = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    return np.array(t).reshape(shape), np.array(z).reshape(shape)


@settings(max_examples=150, deadline=None)
@given(warp=warps(), tz=stacks())
# the stencil crosses the overflow of e^(2t)
@example(warp=ShiftedExp(), tz=(np.array(-354.9), np.array(0.0)))
# g R^i_jkl underflows to -0.0, which einsum's sum from +0.0 makes +0.0
@example(warp=PureExp(), tz=(np.array([353.38125, 353.509, 353.5601]),
                             np.array([-0.8842985878929017, 0.8123959264455249,
                                       -0.7268730488142257])))
def test_curvature_stacks_keep_the_einsum_bits(warp, tz):
    t, z = tz
    with np.errstate(all="ignore"):
        p = metric_at(warp, t, z)
        pairs = [
            (christoffel(p), ref.stacked_christoffel(p)),
            (christoffel_derivatives(p), ref.stacked_christoffel_derivatives(p)),
            (riemann_closed(p).full, ref.stacked_riemann_closed(p).full),
            (riemann_fd(warp, t, z).full, ref.stacked_riemann_fd(warp, t, z).full),
        ]
    for got, want in pairs:
        assert got.shape == want.shape
        axes = tuple(range(t.ndim, want.ndim))
        finite = np.isfinite(want).all(axis=axes)
        assert np.array_equal(np.isfinite(got).all(axis=axes), finite)
        assert got[finite].tobytes() == want[finite].tobytes()


@settings(max_examples=100, deadline=None)
@given(warp=warps(), t=st.lists(wide_t, min_size=1, max_size=6),
       z=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
@example(warp=ShiftedExp(), t=[0.0, -400.0], z=[0.0, 0.5] + [0.0] * 4)
def test_match_component_table_refuses_where_the_einsums_did(warp, t, z):
    points = list(zip(t, z))
    got = outcome(lambda: repr(match_component_table(warp, points)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvature, "riemann_fd", ref.stacked_riemann_fd)
        mp.setattr(curvature, "riemann_closed", ref.stacked_riemann_closed)
        want = outcome(lambda: repr(match_component_table(warp, points)))
    assert got == want


@settings(max_examples=100, deadline=None)
@given(warp=warps(), t0=wide_t, span=st.floats(0.5, 30.0), points=st.integers(1, 40))
@example(warp=PureExp(), t0=-200.0, span=1.0, points=1)
@example(warp=ShiftedExp(), t0=-6.0, span=46.0, points=460)
def test_certify_refuses_where_the_einsums_did(warp, t0, span, points):
    def report():
        rep = certify(warp, (t0, t0 + span), span / points)
        return to_json_text(_certify_payload(rep)) + _certify_csv(rep)

    got = outcome(report)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify_module, "riemann_closed", ref.stacked_riemann_closed)
        want = outcome(report)
    assert got == want


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def svd_calls(call) -> tuple[float, int]:
    """call()'s value and the np.linalg.norm calls it made."""
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "norm", counted)
        value = call()
    return value, len(calls)


@settings(max_examples=150, deadline=None)
@given(entries=hyperbolic_sl2z())
def test_deck_maps_and_their_products_keep_the_svd_bits(entries):
    lat = build_sol_lattice(AnosovMatrix(*entries))
    maps = lat.generators + [product(g1, g2) for g1 in lat.generators for g2 in lat.generators]
    samples = default_samples()
    for m in maps:
        dev, svds = svd_calls(lambda: verify_isometry(m, samples))
        assert svds == 0
        assert np.float64(dev).tobytes() == np.float64(ref.svd_isometry(m, samples)).tobytes()
    assert lat.isometry_deviation == max(ref.svd_isometry(m, samples) for m in lat.generators)


@pytest.mark.parametrize("linear", NON_DIAGONAL)
def test_shears_and_rotations_still_take_the_svd(linear):
    m = AffineMap3(linear, np.array([0.3, -0.2, 0.5]))
    samples = np.random.default_rng(3).uniform(-1.5, 1.5, (40, 3))
    dev, svds = svd_calls(lambda: verify_isometry(m, samples))
    assert svds == 1
    assert dev == ref.svd_isometry(m, samples)


def test_default_samples_is_one_read_only_array():
    samples = default_samples()
    assert samples is default_samples() is lattice.default_samples()
    assert samples.shape == (27, 3) and samples.dtype == float
    assert {tuple(q) for q in samples} == {(x, y, z) for x in (-1.0, 0.0, 1.0)
                                           for y in (-1.0, 0.0, 1.0) for z in (-1.0, 0.0, 1.0)}
    with pytest.raises(ValueError, match="read-only"):
        samples[0, 0] = 5.0
    assert samples[0, 0] == -1.0


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def quad_outcome(quad, fn, a, b, tol) -> str:
    try:
        integral, err = quad(fn, a, b, tol)
    except QuadratureError as exc:
        return f"QuadratureError: {exc}"
    assert type(integral) is float and type(err) is float
    return np.array([integral, err]).tobytes().hex()


@st.composite
def integrands(draw):
    """(fn, a, b): the density over an interpolated window, or a polynomial
    or a kink |x - c|^(1/2) on a random interval."""
    kind = draw(st.sampled_from(["density", "polynomial", "kink"]))
    if kind == "density":
        t_hi = draw(st.floats(-1.5, -0.3))
        w = build_interpolation(t_hi - draw(st.floats(0.2, 3.0)), t_hi)
        a = draw(st.floats(w.t_lo - 1.0, w.t_hi - 0.1))
        return _density(w), a, draw(st.floats(a + 0.05, w.t_hi + 1.0))
    a = draw(st.floats(-5.0, 5.0))
    b = draw(st.floats(a + 1e-3, a + 10.0))
    if kind == "polynomial":
        coef = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
        return (lambda x: np.polyval(coef, x)), a, b
    c = draw(st.floats(a, b))
    return (lambda x: np.sqrt(np.abs(x - c))), a, b


def counted(fn, sizes: list):
    """fn, appending the size of each argument to sizes."""
    def call(x):
        sizes.append(x.size)
        return fn(x)
    return call


@settings(max_examples=200, deadline=None)
@given(integrand=integrands(), tol=st.floats(-16.0, -4.0).map(lambda x: 10.0 ** x))
def test_two_panels_per_call_keep_the_one_panel_bits(integrand, tol):
    fn, a, b = integrand
    calls, ref_calls = [], []
    got = quad_outcome(adaptive_quad, counted(fn, calls), a, b, tol)
    assert got == quad_outcome(ref.one_panel_quad, counted(fn, ref_calls), a, b, tol)
    # one call on the first panel, then one per split on both halves
    assert calls == [15] + [30] * (len(calls) - 1)
    assert ref_calls == [15] * (2 * len(calls) - 1)


def test_quadrature_budget_error_keeps_its_message():
    # 16 000 periods: no 2 000 panels resolve them
    def wave(x):
        return np.sin(1e5 * x)

    want = quad_outcome(ref.one_panel_quad, wave, 0.0, 1.0, 1e-10)
    assert want.startswith("QuadratureError: no convergence to 1e-10 within 2000 intervals")
    assert quad_outcome(adaptive_quad, wave, 0.0, 1.0, 1e-10) == want
