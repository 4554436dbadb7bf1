"""Compact Sol 3-manifold cross sections as mapping tori.

A hyperbolic (Anosov) integer matrix A with det = 1 and |trace| > 2 acts
on the 2-torus; its mapping torus carries Sol geometry

    g_Sol = dz^2 + e^(-2z) dx^2 + e^(2z) dy^2

once the (x, y) plane is written in the eigenbasis of A.  The deck group
of the quotient is generated by two planar translations (the images of
the standard Z^2 basis in eigen-coordinates) and the monodromy
(x, y, z) |-> (lam x, y/lam, z + L) with L = log|lam| the stretch.
Every deck map is thus finite with a diagonal linear part J, which
``AffineMap3`` stores as its diagonal, and every generator must be an
exact isometry of g_Sol, which ``verify_isometry`` checks from the
samples' z alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = [
    "AnosovMatrix",
    "AffineMap3",
    "SolLattice",
    "build_sol_lattice",
    "verify_isometry",
    "cross_section_volume",
    "default_samples",
]


# e^x is a finite float exactly for x <= this
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
# a linear part is refused as singular when |det| is below this
_MIN_DET = 1e-12
# g_Sol = diag(e^(-2z), e^(2z), 1) is e^(_EXPONENTS z) down its diagonal
_EXPONENTS = np.array([[-2.0], [2.0], [0.0]])


@dataclass(frozen=True)
class AnosovMatrix:
    """2x2 integer matrix (a, b; c, d) with det = 1 and |trace| > 2, small
    enough that the deck check's e^(2(1 + L)) is a finite float."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for v in (self.a, self.b, self.c, self.d):
            if int(v) != v:
                raise ValueError("entries must be integers")
        if self.det != 1:
            raise ValueError(f"determinant must be 1, got {self.det}")
        if abs(self.trace) <= 2:
            raise ValueError(
                f"|trace| must exceed 2 for hyperbolicity, got {self.trace}"
            )
        # the deck check evaluates e^(2z) at z = 1 + L, so 2(1 + L) may not pass
        # log(float max): |trace| up to about 4.93e153.  The 2^511 guard, past
        # that, keeps float(trace) and trace^2 finite while L is computed
        if abs(self.trace) > 2**511 or 2.0 * (1.0 + self.stretch) > _LOG_FLOAT_MAX:
            raise ValueError(
                f"trace {self.trace} is too large: e^(2(1 + L)) overflows a float "
                "in the deck check, L = log|lam|"
            )

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def eigenvalues(self) -> tuple[float, float]:
        """(lam, 1/lam) with |lam| > 1, by the quadratic formula."""
        tr = float(self.trace)
        disc = np.sqrt(tr * tr - 4.0)
        lam = (tr + np.sign(tr) * disc) / 2.0
        return lam, 1.0 / lam

    @property
    def stretch(self) -> float:
        """log of the expanding eigenvalue modulus."""
        return float(np.log(abs(self.eigenvalues()[0])))


@dataclass(frozen=True)
class AffineMap3:
    """p |-> diagonal * p + offset on (x, y, z): a deck map, whose linear
    part J = diag(diagonal) is stored as its diagonal.  A non-finite entry
    or |det J| below _MIN_DET is a ValueError."""

    diagonal: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diagonal, dtype=float).reshape(3)
        off = np.asarray(self.offset, dtype=float).reshape(3)
        d0, d1, d2 = diag.tolist()  # Python floats: the product warns of nothing
        if not all(map(math.isfinite, [d0, d1, d2, *off.tolist()])):
            raise ValueError("linear part and offset must be finite")
        if abs(d0 * d1 * d2) < _MIN_DET:  # det J; a product that overflows is invertible
            raise ValueError("linear part must be invertible")
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "offset", off)
        diag.setflags(write=False)
        off.setflags(write=False)


@dataclass(frozen=True)
class SolLattice:
    """Cross-section data: stretch, plane lattice, checked deck maps."""

    stretch: float
    basis: np.ndarray                 # rows: the two planar lattice vectors
    generators: list[AffineMap3]
    isometry_deviation: float         # worst generator's pullback deviation

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=float).reshape(2, 2)
        object.__setattr__(self, "basis", b)
        b.setflags(write=False)


_SAMPLES = np.array(list(product((-1.0, 0.0, 1.0), repeat=3)))
_SAMPLES.setflags(write=False)


def default_samples() -> np.ndarray:
    """{-1, 0, 1}^3 as one shared read-only (27, 3) array; pullback deviation is z-only."""
    return _SAMPLES


def build_sol_lattice(A: AnosovMatrix) -> SolLattice:
    """Mapping-torus lattice for A, eigenbasis scaled to a unit-area cell.

    The two eigenvectors are scaled by a common factor making the planar
    fundamental parallelogram have area 1, so the cross-section volume
    equals the stretch L.  For trace < -2 the expanding eigenvalue is
    negative and the monodromy linear part is diag(lam, 1/lam, 1) with
    lam < -1; it is an isometry of g_Sol either way since the metric
    coefficients are quadratic in dx, dy.

    Raises ValueError, naming the matrix, when a or b does not fit in a
    float or det P of the float eigenbasis is zero or not finite: no
    unit-area cell can be built from it.
    """
    lam, lam_inv = A.eigenvalues()
    L = float(np.log(abs(lam)))  # A.stretch, from the eigenvalue in hand
    entries = [A.a, A.b, A.c, A.d]

    # columns: the eigenvectors (b, mu - a) for mu = lam, 1/lam.  b != 0
    # always: with b = 0, det = ad = 1 forces a = d = +-1 and |trace| = 2.
    try:
        P = np.array([[float(A.b)] * 2, [lam - A.a, lam_inv - A.a]])
    except OverflowError:
        raise ValueError(f"matrix {entries}: an entry does not fit in a float") from None
    with np.errstate(all="ignore"):  # an overflow is refused below
        det = np.linalg.det(P)
    if not (np.isfinite(det) and det != 0.0):
        raise ValueError(f"matrix {entries}: its float eigenbasis has determinant {det}, "
                         "not a finite nonzero number")
    P /= np.sqrt(abs(det))
    basis = np.linalg.inv(P).T + 0.0  # rows: P^-1 e1, P^-1 e2; a zero entry is +0.0

    generators = [AffineMap3((1.0, 1.0, 1.0), (x, y, 0.0)) for x, y in basis.tolist()]
    generators.append(AffineMap3((lam, lam_inv, 1.0), (0.0, 0.0, L)))
    dev = max(verify_isometry(m, default_samples()) for m in generators)
    if dev > 1e-12:
        raise AssertionError(
            f"deck generator fails the isometry check: deviation {dev:.3e}"
        )
    return SolLattice(
        stretch=L,
        basis=basis,
        generators=generators,
        isometry_deviation=dev,
    )


def verify_isometry(m: AffineMap3, samples) -> float:
    """Max operator-norm deviation of the g_Sol pullback over the samples.

    Pure algebra: (m* g)(p) = J^T g(m(p)) J with J = diag(m.diagonal),
    the stored diagonal, compared against g(p).  The difference is
    diagonal and depends on the samples' z alone: its terms are
    (J_ii g_ii(z')) J_ii - g_ii(z), z' = J_22 z + o_z, and its norm is the
    largest |term|.  For a
    genuine deck map that is rounding noise (<= 1e-12); no differencing
    enters.  ``samples`` is an iterable of points or an (n, 3) array; a
    non-finite sample, or a deviation that overflows a float (e^(2|z|)
    does past |z| = 354.9, at a sample or its image), is a ValueError.
    """
    p = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    if p.size == 0:
        raise ValueError("samples must be nonempty")
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"samples must be points of R^3, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("samples must be finite")
    j = m.diagonal[:, None]
    z = p[:, 2]
    with np.errstate(all="ignore"):  # an overflow is refused below
        terms = j * np.exp(_EXPONENTS * (j[2] * z + m.offset[2])) * j - np.exp(_EXPONENTS * z)
        dev = np.abs(terms).max()
    if not math.isfinite(dev):
        raise ValueError("the pullback deviation overflows a float at these samples' z")
    return float(dev)


def cross_section_volume(lat: SolLattice) -> float:
    """Volume of the cross section: stretch x planar cell area.

    g_Sol has unit volume density (det = e^(-2z) e^(2z) = 1), so the
    volume reduces to the area of the (x, y) fundamental parallelogram
    times the z-extent L.
    """
    area = abs(float(np.linalg.det(lat.basis)))
    return float(lat.stretch) * area
