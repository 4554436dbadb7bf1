"""Certify negative and pinched sectional curvature over all 2-planes.

At a point, the sectional curvature of the plane spanned by a
frame-orthonormal pair (u, v) is K = w^T Q w with w = u ^ v, where Q is the
6x6 curvature form on the 2-form basis of the orthonormal frame.  Such a w
is a unit vector, so

    lambda_min(Q) <= K <= lambda_max(Q)   on every 2-plane

(Thorpe's bound at mu = 0: J. A. Thorpe, "Some remarks on the Gauss-Bonnet
integral", 1969).  A bound is attained exactly when its eigenvector is a
simple bivector u ^ v.  For the cusp ansatz every entry of Q outside the
blocks {xy}, {xz, xt}, {yz, yt} and {zt} is exactly 0.0; in ``PAIRS``
order that makes Q tridiagonal with exact zeros where the blocks meet, so
LAPACK splits it and each eigenvector lies in one block.  The 2-forms of a
block share a vector, so each eigenvector is simple.

At every grid t (z fixed at 0 by the separately tested z-homogeneity of
the ansatz) the extreme eigenvalues of Q are reported as k_min and k_max,
and as witness the plane of the matching eigenvector.  The gap between
the witness's curvature and the eigenvalue is reported per point as
``method_agreement`` and flagged when it exceeds the fixed bound
``_AGREEMENT_TOL`` = 1e-12: a non-simple eigenvector shows as a gap, never
as a silent pass.

The kernels take arrays: ``certify`` builds the (n, 6, 6) frame forms of
its whole grid from one stacked ``metric_at``, and runs one batched
``eigh`` and one batched SVD per extreme.  The result is one
``CurvatureBounds`` whose fields carry the grid axis, and it stays in
that form through the verdict, the rescale and the CSV rows.
``extremize_point`` and ``extremize_k`` return the 0-d case of the same
code, so a grid point's bounds equal theirs exactly.  A witness plane is
a frame-orthonormal pair (u, v); u / sqrt(g_ii) are u's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import PAIRS, MetricPoint, metric_at, riemann_closed
from .warp import condition_margins, regimes, window_witness, worst_margin

__all__ = [
    "WitnessPlane",
    "CurvatureBounds",
    "CertificationReport",
    "extremize_k",
    "extremize_point",
    "certify",
    "rescale_to_pinching",
    "tail_k_bound",
]

# witness gaps above this are flagged; every gap observed is <= 7e-16
_AGREEMENT_TOL = 1e-12
# max_k at or above -_FLOOR is inconclusive; lambda^2 carries 1 + _FLOOR
_FLOOR = 1e-9
# largest t-grid certify builds, about 1 GB of working memory
_MAX_GRID_POINTS = 10**5
# first and second index of each pair, for building bivectors
_PAIR_I, _PAIR_J = np.transpose(PAIRS)


def _witness(Q: np.ndarray, w: np.ndarray):
    """Witness planes (u, v) and their K for the unit eigenvectors w of Q.

    Leading axes pass through: one batched SVD turns each simple bivector
    into a frame-orthonormal pair, and K = w'^T Q w' / (w'^T w') for the
    bivector w' = u ^ v of that pair, by stacked ``matmul``.  Q and w' must
    be in C order, as one point's arrays are: matmul hands each point's
    rows to BLAS, whose sums round differently for other strides.  A
    three-operand einsum would likewise sum the four products of a 2x2
    block in another order and move K in its last bits.
    """
    W = np.zeros(w.shape[:-1] + (4, 4))
    W[..., _PAIR_I, _PAIR_J], W[..., _PAIR_J, _PAIR_I] = w, -w
    U = np.linalg.svd(W)[0]
    u, v = U[..., :, 0], U[..., :, 1]
    row = np.ascontiguousarray(u[..., _PAIR_I] * v[..., _PAIR_J]
                               - u[..., _PAIR_J] * v[..., _PAIR_I])[..., None, :]
    col = np.swapaxes(row, -1, -2)
    return u, v, (row @ Q @ col)[..., 0, 0] / (row @ col)[..., 0, 0]


@dataclass(frozen=True)
class WitnessPlane:
    """2-planes as frame-orthonormal pairs (u, v), one per point of a stack."""

    u: np.ndarray               # (..., 4)
    v: np.ndarray               # (..., 4)

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            arr = np.array(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)


@dataclass(frozen=True)
class CurvatureBounds:
    """Extremal sectional curvature over all tangent 2-planes, per point.

    ``t``, ``k_min``, ``k_max`` and ``method_agreement`` have the stack's
    shape, () for one point; the witness planes carry it in front of their
    4 frame components.
    """

    t: np.ndarray
    k_min: np.ndarray
    k_max: np.ndarray
    argmin_plane: WitnessPlane
    argmax_plane: WitnessPlane
    method_agreement: np.ndarray    # max |K(witness) - extreme eigenvalue|


def _extremize(p: MetricPoint) -> CurvatureBounds:
    """Extremal K over all 2-planes at every point of the stack p.

    One closed-form Riemann call, one batched ``eigh`` of the frame forms
    and one batched witness per extreme.  k_min and k_max are the extreme
    eigenvalues, each with the plane of its eigenvector as witness;
    ``method_agreement`` is the larger gap between a witness's K and the
    eigenvalue it stands for.
    """
    # C order for _witness: a stack gathered by pair_matrix is not
    with np.errstate(all="ignore"):  # an overflow is refused below
        Q = np.ascontiguousarray(riemann_closed(p).pair_matrix(frame=True))
    if not np.isfinite(Q).all():
        bad = ~np.isfinite(Q).all(axis=(-2, -1))
        raise ValueError("the frame curvature form is not finite at "
                         f"t={float(np.broadcast_to(p.t, p.shape)[bad].flat[0])}")
    vals, vecs = np.linalg.eigh(Q)
    u_min, v_min, k_at_min = _witness(Q, vecs[..., :, 0])
    u_max, v_max, k_at_max = _witness(Q, vecs[..., :, -1])
    k_min, k_max = vals[..., 0], vals[..., -1]
    return CurvatureBounds(
        t=np.broadcast_to(p.t, p.shape),
        k_min=k_min,
        k_max=k_max,
        argmin_plane=WitnessPlane(u_min, v_min),
        argmax_plane=WitnessPlane(u_max, v_max),
        # asarray: for 0-d operands a ufunc returns a scalar, not a 0-d array
        method_agreement=np.asarray(np.maximum(abs(k_at_min - k_min), abs(k_at_max - k_max))),
    )


def extremize_point(p: MetricPoint) -> CurvatureBounds:
    """Extremal K over all 2-planes at one MetricPoint (a 0-d stack)."""
    if p.shape != ():
        raise ValueError(f"extremize_point takes one point, not a stack of shape {p.shape}")
    return _extremize(p)


def extremize_k(warp, t: float) -> CurvatureBounds:
    """Extremal K at (t, z=0); z is a symmetry direction of the frame K."""
    return extremize_point(metric_at(warp, float(t), 0.0))


def tail_k_bound(warp, t_last: float) -> float | None:
    """A proved lower bound on K over every plane at every t > t_last.

    Where f = 1 + e^-t (from the upper end of ``regimes`` on) -2 < K < 0
    on every plane; the symbolic proof is in the tests.  None for any
    other warp or range: nothing is known past the grid.
    """
    ends = regimes(warp)
    return -2.0 if ends and t_last >= ends[1] else None


def rescale_to_pinching(bounds: CurvatureBounds,
                        tail_k_min: float | None = None) -> tuple[float, float]:
    """Rescale factor lambda (g -> lambda^2 g) and start of the pinched range.

    ``bounds`` is a curve along its one grid axis; only its ``t``,
    ``k_min`` and ``k_max`` are read.  ``tail_k_min`` bounds K from below
    past the last grid point, where K must be proved negative too; None
    when no such bound is known.  lambda^2 is (1 + _FLOOR) times the
    largest of 1, |k_min| at the last grid point and |tail_k_min|, so that
    k_min / lambda^2 stays strictly above -1 there and on the tail.
    pinched_from is then the smallest grid t from which every later grid
    point has k_min / lambda^2 > -1 and k_max / lambda^2 < 0 (a NaN is
    not pinched); +inf if no suffix qualifies or no tail bound is given,
    since the claim reaches to t = inf.
    """
    t, k_min, k_max = bounds.t, bounds.k_min, bounds.k_max
    if k_min.size == 0:
        raise ValueError("the bounds curve must be nonempty")
    if np.any(k_max >= 0.0):
        raise ValueError("rescaling requires a globally negative curve")

    tail_sup = 0.0 if tail_k_min is None else abs(tail_k_min)
    lam2 = (1.0 + _FLOOR) * max(1.0, float(abs(k_min[-1])), tail_sup)
    lam = float(np.sqrt(lam2))
    if tail_k_min is None:
        return lam, float("inf")

    ok = (k_min / lam2 > -1.0) & (k_max / lam2 < 0.0)
    # length of the run of pinched points that ends the grid
    run = int(np.logical_and.accumulate(ok[::-1]).sum())
    return lam, float(t[t.size - run]) if run else float("inf")


@dataclass(frozen=True)
class CertificationReport:
    """Verdict and evidence of the curvature certification run."""

    status: str                     # certified | violation | inconclusive |
                                    # refused_conditions
    grid: np.ndarray
    bounds_curve: CurvatureBounds | None  # None when refused
    margins: np.ndarray             # (n, 4) condition margins on the grid
    global_negative: bool
    max_k: float
    pinched_from: float
    scale: float
    floor: float
    flagged_points: list[float]
    witness: dict | None
    tail_notes: list[str]
    config: dict

    def curve_rows(self):
        """(t, k_min, k_max, margin_a..d, method_agreement) per grid point."""
        b = self.bounds_curve
        if b is None:
            return []
        return np.column_stack((b.t, b.k_min, b.k_max, self.margins,
                                b.method_agreement))


def _tail_notes(warp) -> list[str]:
    lo, hi = regimes(warp) or (-np.inf, np.inf)
    notes = []
    if lo > -np.inf:
        # lo = inf only for pure-exp, whose conditions hold for t < 0 alone
        span = f"t <= {lo:g}" if np.isfinite(lo) else "all t < 0"
        notes.append(
            f"{span}: f = e^-t regime; frame planes give K(Et,.) = -1, "
            "K(Ex,Ey) = e^2t - 1, K(Ex,Ez) = K(Ey,Ez) = -e^2t - 1; "
            "all limits -> -1 as t -> -inf"
        )
    if hi < np.inf:
        span = f"t >= {hi:g}" if np.isfinite(hi) else "all t"
        notes.append(
            f"{span}: f = 1 + e^-t regime; k_max -> 0- like -f''/f = "
            "-e^-t/(1+e^-t) and k_min -> -2 as t -> +inf"
        )
    return notes


def certify(
    warp,
    t_range: tuple[float, float],
    t_step: float,
) -> CertificationReport:
    """Certify K < 0 on a t-grid and locate the pinched suffix.

    Refuses before any curvature work when a condition margin is
    nonpositive somewhere on the grid, or when ``window_witness`` does not
    prove the warp's transition window; the negativity implication is only
    claimed where all four margins hold, and the cross-check of that
    implication is exactly this run.  The pinched suffix reaches past the
    grid only where ``tail_k_bound`` proves a bound there.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise ValueError("t_range must be a finite increasing pair")
    if not 0.0 < t_step < np.inf:
        raise ValueError(f"t_step must be positive and finite, got {t_step}")
    if (t1 - t0) / t_step + 1.0 > _MAX_GRID_POINTS:
        raise ValueError(f"t_step {t_step} gives more than {_MAX_GRID_POINTS} "
                         f"grid points on [{t0}, {t1}]")
    grid = np.arange(t0, t1 + t_step / 2.0, t_step)

    config = {"t_min": t0, "t_max": t1, "t_step": float(t_step)}
    margins = condition_margins(warp, grid)
    curve, max_k, flagged = None, np.nan, []
    scale, pinched_from = np.nan, np.inf

    t_w, cond, val = worst_margin(grid, margins)
    if val <= 0.0:
        status = "refused_conditions"
        witness = {"kind": "condition", "t": t_w, "condition": cond,
                   "margin": val}
    elif (gap := window_witness(warp)) is not None:
        status = "refused_conditions"
        witness = {"kind": "window", **gap}
    else:
        with np.errstate(all="ignore"):  # an overflow is refused by _extremize
            p = metric_at(warp, grid, 0.0)
        curve = _extremize(p)
        max_k = float(np.max(curve.k_max))
        flagged = curve.t[curve.method_agreement > _AGREEMENT_TOL].tolist()
        witness = None
        if max_k >= 0.0:
            i = int(np.argmax(curve.k_max))
            plane = curve.argmax_plane
            witness = {
                "kind": "positive_curvature",
                "t": float(curve.t[i]),
                "k_max": float(curve.k_max[i]),
                "plane_basis": [plane.u[i].tolist(), plane.v[i].tolist()],
            }
            status = "violation"
        elif max_k >= -_FLOOR:
            status = "inconclusive"
        else:
            status = "certified"
            scale, pinched_from = rescale_to_pinching(
                curve, tail_k_bound(warp, float(grid[-1])))

    return CertificationReport(
        status=status, grid=grid, bounds_curve=curve, margins=margins,
        global_negative=status == "certified", max_k=max_k,
        pinched_from=pinched_from, scale=scale, floor=_FLOOR,
        flagged_points=flagged, witness=witness, tail_notes=_tail_notes(warp),
        config=config,
    )
