"""Metric, Christoffel symbols and Riemann tensor for the cusp ansatz.

Internal coordinate order is (x, y, z, t) = indices (0, 1, 2, 3), with the
diagonal metric

    g = diag(e^(-2t-2z), e^(-2t+2z), f(t)^2, 1).

Two pipelines compute the lowered Riemann tensor:

* ``riemann_closed``   -- analytic metric derivatives (needs f, f', f'' only);
* ``riemann_fd``       -- central finite differences of the Christoffel
  symbols in z and t at step ``_FD_STEP``, with one Richardson level.  This
  is the independent oracle every closed-form result is checked against.

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


class DegeneratePlaneError(ValueError):
    """The two vectors do not span a 2-plane (Gram determinant underflow)."""


@dataclass(frozen=True)
class MetricPoint:
    """Metric data at one point: g, its inverse and first/second partials.

    ``dg[m]`` is the matrix of d_m g and ``d2g[m, n]`` of d_m d_n g; for
    the cusp ansatz only m, n in {z, t} are nonzero.
    """

    t: float
    z: float
    g: np.ndarray        # (4, 4) diagonal
    g_inv: np.ndarray    # (4, 4) diagonal
    dg: np.ndarray       # (4, 4, 4)
    d2g: np.ndarray      # (4, 4, 4, 4)

    def __post_init__(self) -> None:
        for arr in (self.g, self.g_inv, self.dg, self.d2g):
            arr.setflags(write=False)

    def frame_scales(self) -> np.ndarray:
        """1/sqrt(g_ii): coordinate components of the orthonormal frame."""
        return 1.0 / np.sqrt(np.diag(self.g))


def metric_diag(warp, t, z):
    """Diagonal metric coefficients (g_xx, g_yy, g_zz, g_tt), vectorized."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    f, _, _ = warp.eval_array(t)
    return (
        np.exp(-2.0 * t - 2.0 * z),
        np.exp(-2.0 * t + 2.0 * z),
        f * f,
        np.ones_like(t + z),
    )


def metric_at(warp, t: float, z: float) -> MetricPoint:
    """Cusp-ansatz metric with exact analytic first and second partials."""
    t = float(t)
    z = float(z)
    f, fp, fpp = warp.eval(t)
    A = np.exp(-2.0 * t - 2.0 * z)
    B = np.exp(-2.0 * t + 2.0 * z)

    g = np.diag([A, B, f * f, 1.0])
    g_inv = np.diag([1.0 / A, 1.0 / B, 1.0 / (f * f), 1.0])

    X, Y, Z, T = 0, 1, 2, 3
    dg = np.zeros((DIM, DIM, DIM))
    dg[Z, X, X] = -2.0 * A
    dg[Z, Y, Y] = 2.0 * B
    dg[T, X, X] = -2.0 * A
    dg[T, Y, Y] = -2.0 * B
    dg[T, Z, Z] = 2.0 * f * fp

    d2g = np.zeros((DIM, DIM, DIM, DIM))
    d2g[Z, Z, X, X] = 4.0 * A
    d2g[Z, Z, Y, Y] = 4.0 * B
    d2g[T, T, X, X] = 4.0 * A
    d2g[T, T, Y, Y] = 4.0 * B
    d2g[T, Z, X, X] = d2g[Z, T, X, X] = 4.0 * A
    d2g[T, Z, Y, Y] = d2g[Z, T, Y, Y] = -4.0 * B
    d2g[T, T, Z, Z] = 2.0 * (fp * fp + f * fpp)

    return MetricPoint(t=t, z=z, g=g, g_inv=g_inv, dg=dg, d2g=d2g)


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """T[..., m, j, k] = d_j g_mk + d_k g_mj - d_m g_jk; leading axes pass through."""
    return np.einsum("...jmk->...mjk", dg) + np.einsum("...kmj->...mjk", dg) - dg


def christoffel(p: MetricPoint) -> np.ndarray:
    """Levi-Civita symbols Gamma^i_jk, shape (4, 4, 4), symmetric in (j, k)."""
    return 0.5 * np.einsum("im,mjk->ijk", p.g_inv, _first_kind(p.dg))


def christoffel_derivatives(p: MetricPoint) -> np.ndarray:
    """Analytic d_l Gamma^i_jk, shape (4, 4, 4, 4) indexed [l, i, j, k]."""
    T = _first_kind(p.dg)
    dT = _first_kind(p.d2g)
    # d_l g^im = -g^ia (d_l g_ab) g^bm
    dginv = -np.einsum("ia,lab,bm->lim", p.g_inv, p.dg, p.g_inv)
    return 0.5 * (
        np.einsum("lim,mjk->lijk", dginv, T)
        + np.einsum("im,lmjk->lijk", p.g_inv, dT)
    )


@dataclass(frozen=True)
class RiemannTensor:
    """Lowered curvature tensor R_ijkl at one point.

    The full (4,4,4,4) array is kept as produced by its pipeline, without
    symmetrization, so the algebraic symmetries below are genuine checks
    rather than construction artifacts.  ``pair_matrix`` exposes the 21
    independent slots as a symmetric 6x6 matrix over the 2-form basis.
    """

    full: np.ndarray
    g: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.full.setflags(write=False)
        self.g.setflags(write=False)

    def component(self, i: int, j: int, k: int, l: int) -> float:
        return float(self.full[i, j, k, l])

    def pair_matrix(self, frame: bool = False) -> np.ndarray:
        """Symmetric 6x6 matrix Q[P,S] = R_{P S} over the pair basis.

        With ``frame=True`` the components are rescaled to the
        g-orthonormal frame, so that for orthonormal u, v the sectional
        curvature is (omega^T Q omega) with omega = u ^ v.
        """
        R = self.full
        if frame:
            s = 1.0 / np.sqrt(np.diag(self.g))
            R = R * np.einsum("i,j,k,l->ijkl", s, s, s, s)
        return R[_PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I[None, :], _PAIR_J[None, :]]

    def antisymmetry_residual(self) -> float:
        r1 = np.max(np.abs(self.full + np.einsum("ijkl->jikl", self.full)))
        r2 = np.max(np.abs(self.full + np.einsum("ijkl->ijlk", self.full)))
        return float(max(r1, r2))

    def pair_symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.full - np.einsum("ijkl->klij", self.full))))

    def bianchi_residual(self) -> float:
        """Max over indices of |R_ijkl + R_iklj + R_iljk| (first Bianchi)."""
        cyc = (
            self.full
            + np.einsum("iklj->ijkl", self.full)
            + np.einsum("iljk->ijkl", self.full)
        )
        return float(np.max(np.abs(cyc)))


def _riemann_from_gamma(Gam: np.ndarray, dGam: np.ndarray, g: np.ndarray) -> RiemannTensor:
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
    #           + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    Rup = (
        np.einsum("kilj->ijkl", dGam)
        - np.einsum("likj->ijkl", dGam)
        + np.einsum("ikm,mlj->ijkl", Gam, Gam)
        - np.einsum("ilm,mkj->ijkl", Gam, Gam)
    )
    low = np.einsum("im,mjkl->ijkl", g, Rup)
    return RiemannTensor(full=low, g=g.copy())


def riemann_closed(p: MetricPoint) -> RiemannTensor:
    """Lowered Riemann tensor from analytic Christoffel derivatives."""
    return _riemann_from_gamma(christoffel(p), christoffel_derivatives(p), p.g)


def riemann_fd_general(metric_fn, t: float, z: float) -> RiemannTensor:
    """FD pipeline for any (t, z) |-> MetricPoint family.

    Central differences of the Christoffel symbols in the z and t
    directions (the ansatz coefficients depend on nothing else) at steps
    h = ``_FD_STEP`` and h/2, combined by one Richardson extrapolation
    level, which is what keeps the agreement with the closed form at the
    1e-6 level even where the metric coefficients reach e^8.
    """
    p = metric_fn(t, z)
    Gam = christoffel(p)

    def dgamma(step: float) -> np.ndarray:
        d = np.zeros((DIM, DIM, DIM, DIM))
        d[2] = (
            christoffel(metric_fn(t, z + step)) - christoffel(metric_fn(t, z - step))
        ) / (2.0 * step)
        d[3] = (
            christoffel(metric_fn(t + step, z)) - christoffel(metric_fn(t - step, z))
        ) / (2.0 * step)
        return d

    dGam = (4.0 * dgamma(_FD_STEP / 2.0) - dgamma(_FD_STEP)) / 3.0
    return _riemann_from_gamma(Gam, dGam, p.g)


def riemann_fd(warp, t: float, z: float) -> RiemannTensor:
    """Finite-difference Riemann tensor of the cusp ansatz (oracle pipeline)."""
    return riemann_fd_general(lambda tt, zz: metric_at(warp, tt, zz), t, z)


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

def component_table(warp, t: float, z: float) -> dict[tuple[int, int, int, int], float]:
    """The eight tabulated closed-form components, keyed by label tuple.

    Labels are abstract (1..4, stored 0-based); which coordinate each label
    names is exactly what ``match_component_table`` determines.
    """
    f, fp, fpp = warp.eval(t)
    emm = np.exp(-2.0 * t - 2.0 * z)
    emp = np.exp(-2.0 * t + 2.0 * z)
    return {
        (0, 1, 0, 1): float(np.exp(-4.0 * t) * (1.0 - f * f) / (f * f)),
        (0, 2, 0, 2): float(emm * (f * fp - 1.0)),
        (0, 3, 0, 3): float(-emm),
        (1, 2, 1, 2): float(emp * (f * fp - 1.0)),
        (1, 3, 1, 3): float(-emp),
        (2, 3, 2, 3): float(-f * fpp),
        (0, 3, 2, 0): float(emm * (1.0 + fp / f)),
        (1, 3, 2, 1): float(-emp * (1.0 + fp / f)),
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

    The point-dependent data are built once: the (N, 6, 6) stack of
    finite-difference pair matrices, the (N, 8) table of expected values
    and their residual denominators.  Each (assignment, sign) then gathers
    its eight slots from the stack with index arrays and reduces the
    scaled residuals over the points.
    """
    points = list(points)
    if not points:
        raise ValueError("points must be nonempty")

    pair_fd = []
    expect = []
    agreement = 0.0
    bianchi = 0.0
    for (t, z) in points:
        R_fd = riemann_fd(warp, t, z)
        R_cl = riemann_closed(metric_at(warp, t, z))
        agreement = max(agreement, float(np.max(np.abs(R_fd.full - R_cl.full))))
        bianchi = max(bianchi, R_fd.bianchi_residual())
        pair_fd.append(R_fd.pair_matrix())
        table = component_table(warp, t, z)
        expect.append([table[labels] for labels in _TABLE_LABELS])
    Q = np.array(pair_fd)                                      # (N, 6, 6)
    expect = np.array(expect)                                  # (N, 8)
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
        t, z = points[n]
        extras.append({
            "pairs": (PAIR_NAMES[a], PAIR_NAMES[b]),
            "t": float(t),
            "z": float(z),
            "value": float(Q[n, a, b]),
        })

    return MatchReport(
        index_map=index_map,
        sign=sign,
        max_residual=float(score),
        per_component={key: float(v) for key, v in zip(_TABLE_LABELS.values(), per)},
        extra_components=extras,
        pipeline_agreement=float(agreement),
        bianchi_residual=float(bianchi),
        all_assignments=scores,
    )
