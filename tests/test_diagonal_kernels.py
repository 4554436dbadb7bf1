"""The diagonal kernels against the dense bodies they replaced, bit for bit.

The cusp metric g, its inverse and every d_l g are diagonal, and so is the
linear part diag(lam, 1/lam, 1) of a deck map.  ``christoffel``,
``christoffel_derivatives`` and the lowering of the Riemann tensor contract
against them by broadcast products, and ``verify_isometry`` takes the
largest |entry| of the diagonal deviation instead of its SVD, computed
from the samples' z alone.  The references in ``per_point_reference.py``
are the einsum and SVD bodies and the (n, 3, 3) stack of the deck check.
Where every tensor is finite the outputs must equal theirs by
``tobytes()``; where one is not, ``match_component_table`` and
``certify`` must refuse with the same message, and ``verify_isometry``
must refuse with a ValueError.  ``AffineMap3`` must refuse a finite
diagonal linear part exactly where LAPACK's det refused it.

``adaptive_quad`` evaluates each level of the tanh-sinh rule in one call;
it is held to independent integrals instead of bits.
"""

import importlib
from fractions import Fraction

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
from solcusp.volume import QuadratureError, adaptive_quad
from solcusp.warp import PureExp, ShiftedExp, build_interpolation
from test_lattice import hyperbolic_sl2z, product

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

@settings(max_examples=150, deadline=None)
@given(entries=hyperbolic_sl2z())
def test_deck_maps_and_their_products_keep_the_svd_bits(entries):
    lat = build_sol_lattice(AnosovMatrix(*entries))
    maps = lat.generators + [product(g1, g2) for g1 in lat.generators for g2 in lat.generators]
    samples = default_samples()
    for m in maps:
        dev = verify_isometry(m, samples)
        assert np.float64(dev).tobytes() == np.float64(ref.svd_isometry(m, samples)).tobytes()
    assert lat.isometry_deviation == max(ref.svd_isometry(m, samples) for m in lat.generators)


def counted_calls(owner, name, call) -> tuple:
    """call()'s value and the calls it made to owner.name."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, counted)
        value = call()
    return value, len(calls)


def isometry_outcome(call):
    """call()'s float as bytes, or its exception (an FP warning is one) as text."""
    try:
        return np.float64(call()).tobytes()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# e^(2z) overflows above 354.89 and e^(-2z) below -354.89
Z_EDGES = [354.8, 354.85, 354.88, 354.9, 355.0]
edge_z = st.one_of(st.floats(-2.0, 2.0), st.floats(-360.0, 360.0),
                   st.sampled_from(Z_EDGES + [-z for z in Z_EDGES]))


@st.composite
def deck_checks(draw):
    """(map, samples): a deck generator or a product of two, its offset's z
    moved, and samples out to the overflow of g_Sol, as an array or a list."""
    gens = build_sol_lattice(AnosovMatrix(*draw(hyperbolic_sl2z()))).generators
    m = draw(st.sampled_from(gens + [product(g1, g2) for g1 in gens for g2 in gens]))
    dz = draw(st.one_of(st.just(0.0), st.floats(-5.0, 5.0), edge_z))
    m = AffineMap3(m.linear, m.offset + np.array([0.0, 0.0, dz]))
    n = draw(st.integers(1, 6))
    z = draw(st.lists(edge_z, min_size=n, max_size=n))
    xy = draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n, max_size=2 * n))
    samples = np.column_stack([np.reshape(xy, (n, 2)), z])
    return m, [tuple(q) for q in samples] if draw(st.booleans()) else samples


@settings(max_examples=150, deadline=None)
@given(case=deck_checks())
@example(case=(AffineMap3(np.diag([2.0, 0.5, 1.0]), np.array([0.0, 0.0, 1.0])),
               [(0.0, 0.0, 354.0), (1.0, -1.0, -1.0)]))
@example(case=(AffineMap3(np.eye(3), np.array([0.5, 0.0, 0.0])),
               np.array([[np.inf, 0.0, 0.0], [0.0, 0.0, 1.0]])))
@example(case=(AffineMap3(np.eye(3), np.zeros(3)), np.array([[0.0, np.nan, 0.0]])))
@example(case=(AffineMap3(np.diag([1e6, 1e-6, 1.0]), np.zeros(3)), np.array([[0.0, 0.0, -345.0]])))
def test_deck_maps_keep_the_stacks_value_or_exception_from_z_alone(case):
    # the stack's finite values, by bytes (far from z = 0 its largest
    # |entry| can miss the SVD's norm by an ulp, so the stack, not the SVD,
    # is the reference); a non-finite sample, and a deviation that
    # overflows, where the stack gave inf, nan or an exception (FP warnings
    # are errors here), are a ValueError
    m, samples = case
    got = isometry_outcome(lambda: verify_isometry(m, samples))
    want = isometry_outcome(lambda: ref.stack_isometry(m, samples))
    if not np.isfinite(samples).all():
        assert got == "ValueError: samples must be finite"
    elif isinstance(want, bytes) and np.isfinite(np.frombuffer(want)[0]):
        assert got == want
    else:
        assert got == "ValueError: the pullback deviation overflows a float at these samples' z"


def raised(call) -> str | None:
    """The exception call() raises (an FP warning is one), as text."""
    try:
        call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# dets a few ulps, or far, from the bound 1e-12, on both sides
near_bound = st.one_of(st.integers(-6, 6).map(lambda k: k * 2.0**-52),
                       st.floats(-0.9, 3.0))


@settings(max_examples=300, deadline=None)
@given(d0=st.floats(1e-8, 1e8), d1=st.floats(1e-8, 1e8), rel=near_bound,
       signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
@example(d0=2e-12, d1=0.5, rel=0.0, signs=(1.0, 1.0, 1.0))
@example(d0=1e200, d1=1e200, rel=0.0, signs=(1.0, 1.0, 1.0))
@example(d0=np.inf, d1=0.0, rel=0.0, signs=(1.0, 1.0, 1.0))
@example(d0=np.nan, d1=1.0, rel=0.0, signs=(1.0, 1.0, 1.0))
def test_diagonal_maps_are_refused_where_lapacks_det_refused_them(d0, d1, rel, signs):
    # the product of the diagonal decides, with no LAPACK call, where it lies
    # above twice the bound: LAPACK's det, exp of a sum of logs, is within a
    # relative 1e-12 of it.  Nearer the bound, or where the product over- or
    # underflows, LAPACK decides as before, with the same ValueError or
    # warning.  A NaN or inf entry is refused before either
    with np.errstate(all="ignore"):
        d2 = 1.0 if not np.isfinite(d0 * d1) else 1e-12 * (1.0 + rel) / (d0 * d1)
    linear = np.diag(np.multiply(signs, [d0, d1, d2]))
    got, dets = counted_calls(np.linalg, "det", lambda: raised(lambda: AffineMap3(linear, np.zeros(3))))
    if not np.isfinite(linear).all():
        assert (got, dets) == ("ValueError: linear part and offset must be finite", 0)
        return

    def parent_check():
        if abs(np.linalg.det(linear)) < 1e-12:
            raise ValueError("linear part must be invertible")

    assert got == raised(parent_check)
    with np.errstate(all="ignore"):
        assert dets == (0 if 2e-12 < abs(d0 * d1 * d2) < np.inf else 1)


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

@st.composite
def integrands(draw):
    """(fn, a, b, integral): f e^(-2t) over an interpolated window, with its
    QUADPACK integral, or a polynomial on a random interval, with its exact
    integral rounded once."""
    if draw(st.booleans()):
        t_hi = draw(st.floats(-1.5, -0.3))
        w = build_interpolation(t_hi - draw(st.floats(0.2, 3.0)), t_hi)
        a = draw(st.floats(w.t_lo - 1.0, w.t_hi - 0.1))
        b = draw(st.floats(a + 0.05, w.t_hi + 1.0))
        # f e^(-2t), not the volume's s e^(-2t): that one carries f's
        # rounding, eps e^(-3t), which QUADPACK's reference cannot resolve
        # at the smallest tol
        density = lambda t: w.eval(t)[0] * np.exp(-2.0 * t)
        integrate = pytest.importorskip("scipy.integrate")
        integral, _ = integrate.quad(
            density, a, b, points=[t for t in (w.t_lo, w.t_hi) if a < t < b] or None,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return density, a, b, integral
    a = draw(st.floats(-5.0, 5.0))
    b = draw(st.floats(a + 1e-3, a + 10.0))
    coef = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
    antiderivative = [Fraction(c) / (len(coef) - i) for i, c in enumerate(coef)] + [0]
    integral = np.polyval(antiderivative, Fraction(b)) - np.polyval(antiderivative, Fraction(a))
    return (lambda x: np.polyval(coef, x)), a, b, float(integral)


def counted(fn, sizes: list):
    """fn, appending the size of each argument to sizes."""
    def call(x):
        sizes.append(x.size)
        return fn(x)
    return call


@settings(max_examples=200, deadline=None)
@given(integrand=integrands(), tol=st.floats(-16.0, -4.0).map(lambda x: 10.0 ** x))
def test_one_call_per_level_meets_tol(integrand, tol):
    fn, a, b, integral = integrand
    calls = []
    try:
        got, err = adaptive_quad(counted(fn, calls), a, b, tol)
    except QuadratureError as exc:
        # refused on the first level alone, whose rounding level estimates
        # 50 eps * integral of |fn|: within a factor 2 where fn changes sign
        assert str(exc).startswith(f"tol {tol:g} is below the rounding level")
        assert calls == [103]
        integrate = pytest.importorskip("scipy.integrate")
        abs_integral, _ = integrate.quad(lambda x: abs(float(fn(np.array([x]))[0])), a, b, limit=200)
        assert tol < 100.0 * np.finfo(float).eps * abs_integral
        return
    assert type(got) is float and type(err) is float
    assert abs(got - integral) <= tol and err <= tol
    # one call per level: the 103 nodes of h = 1/16, then the new nodes as h
    # halves, 102, 204, 408, ...
    assert calls == [103] + [102 * 2**level for level in range(len(calls) - 1)]


def test_quadrature_budget_error_keeps_its_message():
    # 16 000 periods: no step down to h = 1/1024 resolves them.  A tanh-sinh
    # estimate from the last difference alone has been seen to alias between
    # levels here, returning 0.0440 (exact 2.0e-5) with a claimed error of
    # 5.7e-15, so the estimate is the larger of the last two differences
    def wave(x):
        return np.sin(1e5 * x)

    with pytest.raises(QuadratureError) as exc:
        adaptive_quad(wave, 0.0, 1.0, 1e-10)
    assert str(exc.value).startswith("no convergence to 1e-10 by the finest step h = 1/1024")
