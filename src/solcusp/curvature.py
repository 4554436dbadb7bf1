"""Metric, Christoffel symbols and Riemann tensor for the cusp ansatz.

Internal coordinate order is (x, y, z, t) = indices (0, 1, 2, 3), with the
diagonal metric

    g = diag(e^(-2t-2z), e^(-2t+2z), f(t)^2, 1).

Every kernel takes stacks: ``metric_at`` accepts arrays t, z of any
broadcastable shape, and the metric, Christoffel, Riemann and pair-matrix
arrays carry those leading axes in front of their tensor indices.  A
scalar (t, z) is the 0-d case of the same code, so a stacked call equals
the per-point calls exactly.

g, g^-1 and each d_l g are diagonal, so a contraction against one of them
is a broadcast product with its diagonal, plus 0.0.  The einsum sum it
replaces has one nonzero term and starts from +0.0, so adding 0.0 gives
its bits, signed zeros included, wherever the tensors are finite.  Only
the Gamma.Gamma products of the Riemann tensor remain einsum contractions.

Two pipelines compute the lowered Riemann tensor:

* ``riemann_closed``   -- analytic metric derivatives (needs f, f', f'' only);
* ``riemann_fd``       -- central finite differences of the Christoffel
  symbols in z and t at step ``_FD_STEP``, with one Richardson level, from
  one 9-point stencil per point.  This is the independent oracle every
  closed-form result is checked against.

Sign convention: R_ijkl = g_im (d_k Gamma^m_lj - d_l Gamma^m_kj + ...),
contracted as R(u,v,u,v) = R_ijkl u^i v^j u^k v^l in sectional curvature.
With this choice the constant-curvature metric
dt^2 + e^(-2t)(dx^2 + dy^2 + dz^2) yields K = -1 on every plane (a test
checks it), which pins the orientation executable-y rather than by citation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

__all__ = [
    "DIM",
    "PAIRS",
    "PAIR_NAMES",
    "MetricPoint",
    "RiemannTensor",
    "MatchReport",
    "DegeneratePlaneError",
    "metric_at",
    "metric_diag",
    "christoffel",
    "christoffel_derivatives",
    "riemann_closed",
    "riemann_fd",
    "riemann_fd_general",
    "sectional_curvature",
    "component_table",
    "match_component_table",
]

DIM = 4
# index pairs spanning the 2-form basis, lexicographic
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# first and second index of each pair, for gathering pair matrices
_PAIR_I = np.array([i for i, _ in PAIRS])
_PAIR_J = np.array([j for _, j in PAIRS])
AXIS_NAMES = ("x", "y", "z", "t")
PAIR_NAMES = tuple(AXIS_NAMES[i] + AXIS_NAMES[j] for i, j in PAIRS)
# finite-difference step of riemann_fd; Richardson adds the step _FD_STEP / 2
_FD_STEP = 1e-4
# riemann_fd's stencil as (t, z) offsets: the centre, then z +- h, t +- h
# at h = _FD_STEP, then the same four at h / 2
_STENCIL = _FD_STEP * np.array([(0.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0),
                                (0.0, 0.5), (0.0, -0.5), (0.5, 0.0), (-0.5, 0.0)])


class DegeneratePlaneError(ValueError):
    """The two vectors do not span a 2-plane (Gram determinant underflow)."""


@dataclass(frozen=True)
class MetricPoint:
    """Metric data at a point or a stack of points: g, g^-1 and partials.

    Every array carries the stack's leading axes before its tensor indices,
    none for a single point.  ``dg[..., m, :, :]`` is the matrix of d_m g
    and ``d2g[..., m, n, :, :]`` of d_m d_n g; for the cusp ansatz only
    m, n in {z, t} are nonzero.  ``d2g`` is None where only the first
    partials were built (the finite-difference stencil).
    """

    t: np.ndarray
    z: np.ndarray
    g: np.ndarray                # (..., 4, 4) diagonal
    g_inv: np.ndarray            # (..., 4, 4) diagonal
    dg: np.ndarray               # (..., 4, 4, 4)
    d2g: np.ndarray | None       # (..., 4, 4, 4, 4)

    def __post_init__(self) -> None:
        for arr in (self.g, self.g_inv, self.dg, self.d2g):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        """The stack's leading shape; () for a single point."""
        return self.g.shape[:-2]


def metric_diag(warp, t, z):
    """Diagonal metric coefficients (g_xx, g_yy, g_zz, g_tt), vectorized."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    f, _, _ = warp.eval(t)
    return (
        np.exp(-2.0 * t - 2.0 * z),
        np.exp(-2.0 * t + 2.0 * z),
        f * f,
        np.ones_like(t + z),
    )


def _metric(warp, t, z, second: bool) -> MetricPoint:
    """The cusp-ansatz metric on the broadcast stack of t and z.

    One ``warp.eval`` for the whole stack; d2g only when ``second``.
    """
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    f, fp, fpp = warp.eval(t)
    A = np.exp(-2.0 * t - 2.0 * z)
    B = np.exp(-2.0 * t + 2.0 * z)
    X, Y, Z, T = 0, 1, 2, 3

    g = np.zeros(t.shape + (DIM, DIM))
    g_inv = np.zeros(t.shape + (DIM, DIM))
    for i, gii in enumerate((A, B, f * f, 1.0)):
        g[..., i, i] = gii
        g_inv[..., i, i] = 1.0 / gii

    dg = np.zeros(t.shape + (DIM,) * 3)
    dg[..., Z, X, X] = -2.0 * A
    dg[..., Z, Y, Y] = 2.0 * B
    dg[..., T, X, X] = -2.0 * A
    dg[..., T, Y, Y] = -2.0 * B
    dg[..., T, Z, Z] = 2.0 * f * fp

    d2g = None
    if second:
        d2g = np.zeros(t.shape + (DIM,) * 4)
        d2g[..., Z, Z, X, X] = 4.0 * A
        d2g[..., Z, Z, Y, Y] = 4.0 * B
        d2g[..., T, T, X, X] = 4.0 * A
        d2g[..., T, T, Y, Y] = 4.0 * B
        d2g[..., T, Z, X, X] = d2g[..., Z, T, X, X] = 4.0 * A
        d2g[..., T, Z, Y, Y] = d2g[..., Z, T, Y, Y] = -4.0 * B
        d2g[..., T, T, Z, Z] = 2.0 * (fp * fp + f * fpp)

    return MetricPoint(t=t, z=z, g=g, g_inv=g_inv, dg=dg, d2g=d2g)


def metric_at(warp, t, z) -> MetricPoint:
    """Cusp-ansatz metric with exact analytic first and second partials.

    t and z broadcast against each other; their shape is the stack's.
    """
    return _metric(warp, t, z, second=True)


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """T[..., m, j, k] = d_j g_mk + d_k g_mj - d_m g_jk; leading axes pass through."""
    return np.einsum("...jmk->...mjk", dg) + np.einsum("...kmj->...mjk", dg) - dg


def _diag(a: np.ndarray) -> np.ndarray:
    """The diagonal of the last two axes, a read-only view."""
    return np.diagonal(a, axis1=-2, axis2=-1)


def christoffel(p: MetricPoint) -> np.ndarray:
    """Levi-Civita symbols Gamma^i_jk, shape (..., 4, 4, 4), symmetric in (j, k)."""
    return 0.5 * (_diag(p.g_inv)[..., None, None] * _first_kind(p.dg) + 0.0)


def christoffel_derivatives(p: MetricPoint) -> np.ndarray:
    """Analytic d_l Gamma^i_jk, shape (..., 4, 4, 4, 4) indexed [..., l, i, j, k]."""
    gi = _diag(p.g_inv)
    # d_l g^ii = -g^ii (d_l g_ii) g^ii, shape (..., l, i)
    dginv = -(gi[..., None, :] * _diag(p.dg) * gi[..., None, :] + 0.0)
    return 0.5 * (
        (dginv[..., None, None] * _first_kind(p.dg)[..., None, :, :, :] + 0.0)
        + (gi[..., None, :, None, None] * _first_kind(p.d2g) + 0.0)
    )


@dataclass(frozen=True)
class RiemannTensor:
    """Lowered curvature tensor R_ijkl at a point or a stack of points.

    ``full`` is (..., 4, 4, 4, 4), kept as produced by its pipeline, without
    symmetrization, so its algebraic symmetries are genuine checks rather
    than construction artifacts; the Bianchi residual is the worst over the
    stack.  ``pair_matrix`` exposes the 21 independent slots as a symmetric
    6x6 matrix over the 2-form basis.
    """

    full: np.ndarray
    g: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.full.setflags(write=False)
        self.g.setflags(write=False)

    def pair_matrix(self, frame: bool = False) -> np.ndarray:
        """Symmetric (..., 6, 6) matrix Q[..., P, S] = R_{P S} over the pair basis.

        With ``frame=True`` the components are rescaled to the
        g-orthonormal frame, so that for orthonormal u, v the sectional
        curvature is (omega^T Q omega) with omega = u ^ v.
        """
        R = self.full
        if frame:
            s = 1.0 / np.sqrt(np.diagonal(self.g, axis1=-2, axis2=-1))
            R = R * np.einsum("...i,...j,...k,...l->...ijkl", s, s, s, s)
        return R[..., _PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I[None, :], _PAIR_J[None, :]]

    def bianchi_residual(self) -> float:
        """Max over indices of |R_ijkl + R_iklj + R_iljk| (first Bianchi)."""
        cyc = (
            self.full
            + np.einsum("...iklj->...ijkl", self.full)
            + np.einsum("...iljk->...ijkl", self.full)
        )
        return float(np.max(np.abs(cyc)))


def _riemann_from_gamma(Gam: np.ndarray, dGam: np.ndarray, g: np.ndarray) -> RiemannTensor:
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
    #           + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    Rup = (
        np.einsum("...kilj->...ijkl", dGam)
        - np.einsum("...likj->...ijkl", dGam)
        + np.einsum("...ikm,...mlj->...ijkl", Gam, Gam)
        - np.einsum("...ilm,...mkj->...ijkl", Gam, Gam)
    )
    low = _diag(g)[..., None, None, None] * Rup + 0.0
    return RiemannTensor(full=low, g=g.copy())


def riemann_closed(p: MetricPoint) -> RiemannTensor:
    """Lowered Riemann tensor from analytic Christoffel derivatives."""
    return _riemann_from_gamma(christoffel(p), christoffel_derivatives(p), p.g)


def riemann_fd_general(metric_fn, t, z) -> RiemannTensor:
    """FD pipeline for any (t, z) |-> MetricPoint family.

    Central differences of the Christoffel symbols in the z and t
    directions (the ansatz coefficients depend on nothing else) at steps
    h = ``_FD_STEP`` and h/2, combined by one Richardson extrapolation
    level, which is what keeps the agreement with the closed form at the
    1e-6 level even where the metric coefficients reach e^8.

    ``metric_fn`` is called once, on the (..., 9) stack of ``_STENCIL``
    points around every (t, z), and must return that stack; only g,
    g^-1 and dg are read.
    """
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    p = metric_fn(t[..., None] + _STENCIL[:, 0], z[..., None] + _STENCIL[:, 1])
    Gam = christoffel(p)                                     # (..., 9, 4, 4, 4)

    def dgamma(first: int, step: float) -> np.ndarray:
        # stencil rows first .. first + 3 hold z + step, z - step, t + step, t - step
        d = np.zeros(t.shape + (DIM,) * 4)
        for axis, row in ((2, first), (3, first + 2)):
            d[..., axis, :, :, :] = (
                Gam[..., row, :, :, :] - Gam[..., row + 1, :, :, :]
            ) / (2.0 * step)
        return d

    dGam = (4.0 * dgamma(5, _FD_STEP / 2.0) - dgamma(1, _FD_STEP)) / 3.0
    return _riemann_from_gamma(Gam[..., 0, :, :, :], dGam, p.g[..., 0, :, :])


def riemann_fd(warp, t, z) -> RiemannTensor:
    """Finite-difference Riemann tensor of the cusp ansatz (oracle pipeline).

    One ``warp.eval`` on the whole stencil; no second partials.
    """
    return riemann_fd_general(lambda tt, zz: _metric(warp, tt, zz, second=False), t, z)


def sectional_curvature(R: RiemannTensor, p: MetricPoint, u, v) -> float:
    """K of span(u, v): R(u,v,u,v) / (|u|^2 |v|^2 - <u,v>^2), g-inner products.

    Raises DegeneratePlaneError when the normalized Gram determinant falls
    below 1e-12.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = p.g
    uu = u @ g @ u
    vv = v @ g @ v
    uv = u @ g @ v
    gram = uu * vv - uv * uv
    if uu <= 0.0 or vv <= 0.0 or gram / (uu * vv) <= 1e-12:
        raise DegeneratePlaneError("vectors do not span a nondegenerate 2-plane")
    num = np.einsum("ijkl,i,j,k,l->", R.full, u, v, u, v)
    return float(num / gram)


# ---------------------------------------------------------------------------
# closed-form component table matching
# ---------------------------------------------------------------------------

def component_table(warp, t, z) -> dict[tuple[int, int, int, int], np.ndarray]:
    """The eight tabulated closed-form components, keyed by label tuple.

    Each value has the broadcast shape of t and z.  Labels are abstract
    (1..4, stored 0-based); which coordinate each label names is exactly
    what ``match_component_table`` determines.
    """
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    f, fp, fpp = warp.eval(t)
    emm = np.exp(-2.0 * t - 2.0 * z)
    emp = np.exp(-2.0 * t + 2.0 * z)
    return {
        (0, 1, 0, 1): np.exp(-4.0 * t) * (1.0 - f * f) / (f * f),
        (0, 2, 0, 2): emm * (f * fp - 1.0),
        (0, 3, 0, 3): -emm,
        (1, 2, 1, 2): emp * (f * fp - 1.0),
        (1, 3, 1, 3): -emp,
        (2, 3, 2, 3): -f * fpp,
        (0, 3, 2, 0): emm * (1.0 + fp / f),
        (1, 3, 2, 1): -emp * (1.0 + fp / f),
    }


_TABLE_LABELS = {
    (0, 1, 0, 1): "R_1212",
    (0, 2, 0, 2): "R_1313",
    (0, 3, 0, 3): "R_1414",
    (1, 2, 1, 2): "R_2323",
    (1, 3, 1, 3): "R_2424",
    (2, 3, 2, 3): "R_3434",
    (0, 3, 2, 0): "R_1431",
    (1, 3, 2, 1): "R_2432",
}


@dataclass(frozen=True)
class MatchReport:
    """Outcome of matching computed curvature against the component table."""

    index_map: dict[int, str]           # label (1..4) -> coordinate name
    sign: int                           # overall sign applied to computed R
    max_residual: float                 # worst scaled residual, best map
    per_component: dict[str, float]     # residual per tabulated component
    extra_components: list[dict]        # independent nonzero slots not listed
    pipeline_agreement: float           # max |closed - fd| over the points
    bianchi_residual: float             # worst fd first-Bianchi residual
    all_assignments: dict[str, float]   # score of every (map, sign) tried


def _pair_slots(assign: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair-matrix slot (row, col) and swap sign of each tabulated component.

    Arrays are in ``_TABLE_LABELS`` order; row <= col, so every slot lies
    in the upper triangle.
    """
    rows, cols, sgns = [], [], []
    for labels in _TABLE_LABELS:
        i, j, k, l = (assign[a] for a in labels)
        sgn = 1.0
        if i > j:
            i, j = j, i
            sgn = -sgn
        if k > l:
            k, l = l, k
            sgn = -sgn
        a = PAIRS.index((i, j))
        b = PAIRS.index((k, l))
        rows.append(min(a, b))
        cols.append(max(a, b))
        sgns.append(sgn)
    return np.array(rows), np.array(cols), np.array(sgns)


# every assignment of labels to coordinates, with its table slots
_LABELLINGS = tuple((assign, *_pair_slots(assign)) for assign in permutations(range(DIM)))


def match_component_table(warp, points) -> MatchReport:
    """Search label assignments and signs for the component table.

    For every one of the 24 assignments of labels {1,2,3,4} to coordinates
    {x,y,z,t} and both overall signs, the eight tabulated expressions are
    compared against the finite-difference pipeline at all given (t, z)
    points.  Residuals are scaled by the larger of the expected component
    and the overall tensor magnitude at the point, so exact zeros in the
    table are compared at the tensor's own scale.  Also reports any
    independent component the pipelines find that the table does not list.
    Raises ValueError at a point where a tensor or the table is not finite.

    The point-dependent data are built by one stacked call per pipeline:
    the (N, 6, 6) stack of finite-difference pair matrices, the (N, 8)
    table of expected values and their residual denominators, the
    pipeline agreement and the Bianchi residual.  Each (assignment, sign)
    then gathers its eight slots from the stack with index arrays and
    reduces the scaled residuals over the points.
    """
    points = list(points)
    if not points:
        raise ValueError("points must be nonempty")
    t, z = np.array(points, dtype=float).T
    if not np.all(np.isfinite(t) & np.isfinite(z)):
        raise ValueError("points must be finite")

    with np.errstate(all="ignore"):  # an overflow is refused below
        R_fd = riemann_fd(warp, t, z)
        R_cl = riemann_closed(metric_at(warp, t, z))
        table = component_table(warp, t, z)
    expect = np.stack([table[labels] for labels in _TABLE_LABELS], axis=1)  # (N, 8)
    finite = (np.isfinite(R_fd.full).all(axis=(1, 2, 3, 4))
              & np.isfinite(R_cl.full).all(axis=(1, 2, 3, 4)) & np.isfinite(expect).all(axis=1))
    if not finite.all():
        n = int(np.argmin(finite))
        raise ValueError(f"the curvature tensor is not finite at t={t[n]}, z={z[n]}")
    agreement = float(np.max(np.abs(R_fd.full - R_cl.full)))
    bianchi = R_fd.bianchi_residual()
    Q = R_fd.pair_matrix()                                     # (N, 6, 6)
    scale = np.max(np.abs(expect), axis=1, keepdims=True)      # (N, 1)
    denom = np.maximum(np.maximum(np.abs(expect), scale), 1e-12)

    best = None
    scores = {}
    for assign, rows, cols, sgns in _LABELLINGS:
        got = sgns * Q[:, rows, cols]
        for sign in (1, -1):
            per = np.max(np.abs(sign * got - expect) / denom, axis=0)
            score = np.max(per)
            name = "".join(AXIS_NAMES[assign[a]] for a in range(DIM)) + ("+" if sign > 0 else "-")
            scores[name] = score
            if best is None or score < best[0]:
                best = (score, assign, sign, per, rows, cols)

    score, assign, sign, per, rows, cols = best
    index_map = {a + 1: AXIS_NAMES[assign[a]] for a in range(DIM)}

    # independent slots carrying signal but absent from the table
    unlisted = np.triu(np.ones((6, 6), dtype=bool))
    unlisted[rows, cols] = False
    extras = []
    for n, a, b in zip(*np.nonzero(unlisted & (np.abs(Q) > 1e-7))):
        extras.append({
            "pairs": (PAIR_NAMES[a], PAIR_NAMES[b]),
            "t": float(t[n]),
            "z": float(z[n]),
            "value": float(Q[n, a, b]),
        })

    return MatchReport(
        index_map=index_map,
        sign=sign,
        max_residual=float(score),
        per_component={key: float(v) for key, v in zip(_TABLE_LABELS.values(), per)},
        extra_components=extras,
        pipeline_agreement=agreement,
        bianchi_residual=bianchi,
        all_assignments=scores,
    )
