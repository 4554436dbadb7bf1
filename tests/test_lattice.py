import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solcusp.lattice import (
    AffineMap3,
    AnosovMatrix,
    SolLattice,
    build_sol_lattice,
    cross_section_volume,
    default_samples,
    verify_isometry,
)

# log of the larger root of x^2 - 3x + 1 = 0
L_211 = float(np.log((3.0 + np.sqrt(5.0)) / 2.0))


def product(g1: AffineMap3, g2: AffineMap3) -> AffineMap3:
    """g1 after g2: p |-> g1(g2(p))."""
    return AffineMap3(g1.linear @ g2.linear, g1.linear @ g2.offset + g1.offset)


def test_stretch_of_standard_anosov():
    assert abs(AnosovMatrix(2, 1, 1, 1).stretch - L_211) <= 1e-12


@pytest.mark.parametrize("entries", [(1, 1, 0, 1), (0, 1, -1, 0), (1, 0, 0, 1)])
def test_non_hyperbolic_matrices_rejected(entries):
    with pytest.raises(ValueError, match="trace"):
        AnosovMatrix(*entries)


def test_non_unimodular_matrix_rejected():
    with pytest.raises(ValueError, match="determinant"):
        AnosovMatrix(2, 0, 0, 1)


def test_monodromy_generator_form():
    lat = build_sol_lattice(AnosovMatrix(2, 1, 1, 1))
    mono = lat.generators[2]
    L = lat.stretch
    expect = np.diag([np.exp(L), np.exp(-L), 1.0])
    assert np.allclose(mono.linear, expect, rtol=0.0, atol=1e-14)
    assert np.allclose(mono.offset, [0.0, 0.0, L], rtol=0.0, atol=1e-14)


def test_generators_are_isometries():
    lat = build_sol_lattice(AnosovMatrix(2, 1, 1, 1))
    samples = default_samples()
    for gen in lat.generators:
        assert verify_isometry(gen, samples) <= 1e-12


def test_generator_products_are_isometries():
    lat = build_sol_lattice(AnosovMatrix(2, 1, 1, 1))
    samples = default_samples()
    for g1 in lat.generators:
        for g2 in lat.generators:
            assert verify_isometry(product(g1, g2), samples) <= 1e-12


def test_identity_has_zero_deviation():
    ident = AffineMap3(np.eye(3), np.zeros(3))
    assert verify_isometry(ident, default_samples()) == 0.0


def test_plain_z_shift_is_not_an_isometry():
    shift = AffineMap3(np.eye(3), np.array([0.0, 0.0, 0.1]))
    assert verify_isometry(shift, [np.zeros(3)]) > 0.1


def test_verify_isometry_needs_samples():
    ident = AffineMap3(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        verify_isometry(ident, [])


def test_cross_section_volume_unit_cell():
    lat = SolLattice(
        stretch=1.0,
        basis=np.array([[1.0, 0.0], [0.0, 1.0]]),
        generators=[],
        isometry_deviation=0.0,
    )
    assert cross_section_volume(lat) == 1.0


def test_cross_section_volume_scales_with_area():
    lat = SolLattice(
        stretch=0.5,
        basis=np.array([[2.0, 0.0], [0.0, 1.0]]),
        generators=[],
        isometry_deviation=0.0,
    )
    assert cross_section_volume(lat) == pytest.approx(1.0, abs=1e-15)


def test_built_lattice_stores_its_deck_isometry_deviation():
    lat = build_sol_lattice(AnosovMatrix(2, 1, 1, 1))
    dev = max(verify_isometry(m, default_samples()) for m in lat.generators)
    assert lat.isometry_deviation == dev <= 1e-12


def test_built_lattice_has_unit_area_cell():
    lat = build_sol_lattice(AnosovMatrix(2, 1, 1, 1))
    assert abs(np.linalg.det(lat.basis)) == pytest.approx(1.0, abs=1e-12)
    assert cross_section_volume(lat) == pytest.approx(L_211, abs=1e-12)


def test_lattice_basis_closed_under_monodromy():
    # diag(lam, 1/lam) maps the basis into integer combinations of itself
    lat = build_sol_lattice(AnosovMatrix(2, 1, 1, 1))
    lam = np.exp(lat.stretch)
    D = np.diag([lam, 1.0 / lam])
    B = lat.basis.T  # columns are the basis vectors
    coeffs = np.linalg.solve(B, D @ B)
    assert np.allclose(coeffs, np.round(coeffs), atol=1e-10)


@pytest.mark.parametrize("P", [
    np.array([[1, 1], [0, 1]]),
    np.array([[1, 0], [3, 1]]),
    np.array([[2, 1], [1, 1]]),
])
def test_stretch_is_conjugacy_invariant(P):
    A = np.array([[2, 1], [1, 1]])
    P_inv = np.round(np.linalg.inv(P)).astype(int)
    assert np.array_equal(P @ P_inv, np.eye(2, dtype=int))
    B = P @ A @ P_inv
    conj = AnosovMatrix(*B.flatten().tolist())
    assert abs(conj.stretch - AnosovMatrix(2, 1, 1, 1).stretch) <= 1e-12


def test_negative_trace_monodromy_is_still_isometric():
    lat = build_sol_lattice(AnosovMatrix(-2, -1, -1, -1))
    assert lat.stretch == pytest.approx(L_211, abs=1e-12)
    for gen in lat.generators:
        assert verify_isometry(gen, default_samples()) <= 1e-12


def test_affine_map_requires_invertible_linear_part():
    with pytest.raises(ValueError):
        AffineMap3(np.zeros((3, 3)), np.zeros(3))


NOT_FINITE = "^linear part and offset must be finite$"


@pytest.mark.parametrize("offset", [[np.nan, 0.0, 0.0], [0.0, np.nan, 0.0]], ids=["x", "y"])
def test_a_nan_planar_offset_is_refused(offset):
    # the deviation reads no x or y offset, so only the map itself can refuse it
    with pytest.raises(ValueError, match=NOT_FINITE):
        verify_isometry(AffineMap3(np.eye(3), offset), default_samples())


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_non_finite_diagonal_entry_is_refused(entry, axis):
    diagonal = [2.0, 0.5, 1.0]
    diagonal[axis] = entry
    with pytest.raises(ValueError, match=NOT_FINITE):
        verify_isometry(AffineMap3(np.diag(diagonal), np.zeros(3)), default_samples())


@pytest.mark.parametrize("dz", [np.inf, -np.inf])
def test_an_infinite_z_offset_is_refused(dz):
    with pytest.raises(ValueError, match=NOT_FINITE):
        verify_isometry(AffineMap3(np.eye(3), [0.0, 0.0, dz]), default_samples())


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_non_finite_samples_are_refused(entry, axis):
    sample = [0.5, -0.5, 1.0]
    sample[axis] = entry
    with pytest.raises(ValueError, match="^samples must be finite$"):
        verify_isometry(AffineMap3(np.eye(3), np.zeros(3)), [np.zeros(3), sample])


@pytest.mark.parametrize("m, z", [
    (AffineMap3(np.eye(3), np.zeros(3)), 355.0),
    (AffineMap3(np.eye(3), np.zeros(3)), -355.0),
    # z' = 2 z + 1 leaves the float range of e^(2z) while z does not
    (AffineMap3(np.diag([2.0, 0.5, 2.0]), np.array([0.0, 0.0, 1.0])), 177.0),
    # e^(-2z') is finite, but times lam^2 = 1e100 it is not
    (AffineMap3(np.diag([1e50, 1e-50, 1.0]), np.zeros(3)), -300.0),
], ids=["z", "minus-z", "image-z", "lam-squared"])
def test_an_overflowing_deviation_is_refused(m, z):
    with pytest.raises(ValueError, match="^the pullback deviation overflows a float at these "
                                         "samples' z$"):
        verify_isometry(m, [np.zeros(3), np.array([0.0, 0.0, z])])


ENTRY_MAX = 10**6


@st.composite
def hyperbolic_sl2z(draw):
    """(a, b, c, d) with ad - bc = 1, |a + d| >= 3 and entries up to 1e6.

    b > 0 and a coprime to it are drawn, d runs over the residue class of
    a^-1 mod b inside the entry bound, and c = (ad - 1)/b.  Transposing,
    conjugating by diag(1, -1) and negating reach every sign pattern and
    both signs of the trace.
    """
    b = draw(st.integers(1, ENTRY_MAX))
    a = draw(st.integers(-ENTRY_MAX, ENTRY_MAX))
    assume(math.gcd(a, b) == 1)
    d0 = pow(a, -1, b)
    d = d0 + b * draw(st.integers(-((ENTRY_MAX + d0) // b), (ENTRY_MAX - d0) // b))
    c = (a * d - 1) // b
    assume(abs(c) <= ENTRY_MAX and abs(a + d) >= 3)
    if draw(st.booleans()):
        b, c = c, b
    if draw(st.booleans()):
        b, c = -b, -c
    if draw(st.booleans()):
        a, b, c, d = -a, -b, -c, -d
    return a, b, c, d


@settings(max_examples=200, deadline=None)
@given(entries=hyperbolic_sl2z())
def test_random_anosov_lattices_keep_their_deck_isometries(entries):
    A = AnosovMatrix(*entries)
    lat = build_sol_lattice(A)
    samples = default_samples()
    for g1 in lat.generators:
        assert verify_isometry(g1, samples) <= 1e-12
        for g2 in lat.generators:
            assert verify_isometry(product(g1, g2), samples) <= 1e-12
    assert abs(cross_section_volume(lat) - A.stretch) <= 1e-12


# the largest trace whose deck check keeps e^(2(1 + L)) finite, L = log|lam|,
# found by bisection on the unchecked build: every trace up to it in modulus
# builds a checked lattice, and the next one overflows
TRACE_LIMIT = int(
    "49324568886013971677105660971433971375415724617222401682425810796742967610583"
    "13278044159911706175541369005605777200430242720798616754849020077741904494591"
)


def unchecked(entries) -> AnosovMatrix:
    """The matrix with its fields set and __post_init__'s checks skipped."""
    A = object.__new__(AnosovMatrix)
    for name, value in zip("abcd", entries):
        object.__setattr__(A, name, value)
    return A


@settings(max_examples=150, deadline=None)
@given(offset=st.integers(-(10**142), 10**142), sign=st.sampled_from((1, -1)))
def test_trace_bound_refuses_exactly_the_matrices_whose_deck_check_overflows(offset, sign):
    # a float step of the trace near the limit is 2^459, about 1.5e138
    trace = sign * (TRACE_LIMIT + offset)
    entries = (trace - 1, 1, trace - 2, 1)
    if offset <= 0:
        lat = build_sol_lattice(AnosovMatrix(*entries))
        assert lat.isometry_deviation <= 1e-12
        assert np.isfinite(np.exp(2.0 * (1.0 + lat.stretch)))
    else:
        with pytest.raises(ValueError, match=f"^trace {trace} is too large"):
            AnosovMatrix(*entries)
        with pytest.raises(ValueError, match="^the pullback deviation overflows a float"):
            build_sol_lattice(unchecked(entries))


@pytest.mark.parametrize("trace", [TRACE_LIMIT, TRACE_LIMIT + 1, -TRACE_LIMIT, -TRACE_LIMIT - 1],
                         ids=["limit", "past-limit", "minus-limit", "past-minus-limit"])
def test_trace_bound_at_its_edge(trace):
    entries = (trace - 1, 1, trace - 2, 1)
    if abs(trace) == TRACE_LIMIT:
        lat = build_sol_lattice(AnosovMatrix(*entries))
        assert lat.isometry_deviation <= 1e-12
        assert np.isfinite([lat.stretch, *lat.basis.ravel()]).all()
        assert all(np.isfinite(m.linear).all() and np.isfinite(m.offset).all()
                   for m in lat.generators)
    else:
        with pytest.raises(ValueError, match=f"^trace {trace} is too large"):
            AnosovMatrix(*entries)


@pytest.mark.xfail(strict=True, reason="the eigenbasis of a matrix with |trace| << |a| = |d| "
                   "is nearly parallel, so its stored cell area is off by ~eps * cond")
def test_near_parallel_eigenbasis_keeps_unit_cell_area():
    # eigenvectors (b, lam - a) and (b, 1/lam - a) differ by sqrt(tr^2 - 4)
    # in one of two components of size ~5e5: rounding the basis entries
    # moves the cell area by ~4e-11
    A = AnosovMatrix(500000, 258347, -967683, -499996)
    assert abs(cross_section_volume(build_sol_lattice(A)) - A.stretch) <= 1e-12
