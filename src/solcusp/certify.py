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

Per grid t (z fixed at 0 by the separately tested z-homogeneity of the
ansatz) ``extremize_point`` reports the extreme eigenvalues of Q as k_min
and k_max, and as witness the plane of the matching eigenvector.  The gap
between the witness's curvature and the eigenvalue is reported per point
as ``method_agreement`` and flagged when it exceeds the fixed bound
``_AGREEMENT_TOL`` = 1e-12: a non-simple eigenvector shows as a gap, never
as a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import PAIRS, PAIR_NAMES, MetricPoint, metric_at, riemann_closed
from .warp import condition_margins, regimes, worst_margin

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


def _k_of_plane(Q: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of span(u, v) for a frame-orthonormal pair."""
    w = np.array([u[i] * v[j] - u[j] * v[i] for (i, j) in PAIRS])
    return float(w @ Q @ w / (w @ w))


def _plane_from_bivector(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (u, v) spanning the plane of a simple unit bivector."""
    W = np.zeros((4, 4))
    i, j = np.transpose(PAIRS)
    W[i, j], W[j, i] = w, -w
    U, _, _ = np.linalg.svd(W)
    return U[:, 0], U[:, 1]


def _witness(Q: np.ndarray, w: np.ndarray):
    """Witness (u, v, K) for the eigenvector w of Q."""
    u, v = _plane_from_bivector(w)
    return u, v, _k_of_plane(Q, u, v)


@dataclass(frozen=True)
class WitnessPlane:
    """A 2-plane as a frame-orthonormal pair (u, v).

    ``frame_to_coord`` holds the 1/sqrt(g_ii) scales turning frame
    components into coordinate components.
    """

    u: np.ndarray               # (4,)
    v: np.ndarray               # (4,)
    frame_to_coord: np.ndarray  # (4,)

    def __post_init__(self) -> None:
        for name in ("u", "v", "frame_to_coord"):
            arr = np.array(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    def plane_coord(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair in coordinate components (for sectional_curvature)."""
        return self.u * self.frame_to_coord, self.v * self.frame_to_coord


@dataclass(frozen=True)
class CurvatureBounds:
    """Extremal sectional curvature over all tangent 2-planes at one t."""

    t: float
    k_min: float
    k_max: float
    argmin_plane: WitnessPlane
    argmax_plane: WitnessPlane
    method_agreement: float     # max |K(witness) - extreme eigenvalue|
    frame_plane_k: dict[str, float] = field(default_factory=dict)
    resampled: int = 0          # always 0: nothing is sampled


def extremize_point(p: MetricPoint) -> CurvatureBounds:
    """Extremal K over all 2-planes at a MetricPoint.

    k_min and k_max are the extreme eigenvalues of the frame curvature
    form, each with the plane of its eigenvector as witness;
    ``method_agreement`` is the larger gap between a witness's K and the
    eigenvalue it stands for.
    """
    Q = riemann_closed(p).pair_matrix(frame=True)
    scales = p.frame_scales()
    vals, vecs = np.linalg.eigh(Q)
    u_min, v_min, k_at_min = _witness(Q, vecs[:, 0])
    u_max, v_max, k_at_max = _witness(Q, vecs[:, -1])
    k_min, k_max = float(vals[0]), float(vals[-1])
    return CurvatureBounds(
        t=p.t,
        k_min=k_min,
        k_max=k_max,
        argmin_plane=WitnessPlane(u_min, v_min, scales),
        argmax_plane=WitnessPlane(u_max, v_max, scales),
        method_agreement=max(abs(k_at_min - k_min), abs(k_at_max - k_max)),
        frame_plane_k={name: float(Q[a, a]) for a, name in enumerate(PAIR_NAMES)},
    )


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


def rescale_to_pinching(bounds_curve, floor: float = 1e-9,
                        tail_k_min: float | None = None) -> tuple[float, float]:
    """Rescale factor lambda (g -> lambda^2 g) and start of the pinched range.

    ``tail_k_min`` bounds K from below past the last grid point, where K
    must be proved negative too; None when no such bound is known.
    lambda^2 is (1 + floor) times the largest of 1, |k_min| at the last
    grid point and |tail_k_min|, so that k_min / lambda^2 stays strictly
    above -1 there and on the tail.  pinched_from is then the smallest grid
    t from which every later grid point has k_min / lambda^2 > -1 and
    k_max / lambda^2 < 0; +inf if no suffix qualifies or no tail bound is
    given, since the claim reaches to t = inf.
    """
    bounds = list(bounds_curve)
    if not bounds:
        raise ValueError("bounds_curve must be nonempty")
    k_min = np.array([b.k_min for b in bounds])
    k_max = np.array([b.k_max for b in bounds])
    if np.any(k_max >= 0.0):
        raise ValueError("rescaling requires a globally negative curve")

    tail_sup = 0.0 if tail_k_min is None else abs(tail_k_min)
    lam2 = (1.0 + floor) * max(1.0, float(abs(k_min[-1])), tail_sup)
    lam = float(np.sqrt(lam2))
    if tail_k_min is None:
        return lam, float("inf")

    ok = (k_min / lam2 > -1.0) & (k_max / lam2 < 0.0)
    pinched_from = np.inf
    for i in range(len(bounds) - 1, -1, -1):
        if not ok[i]:
            break
        pinched_from = bounds[i].t
    return lam, float(pinched_from)


@dataclass(frozen=True)
class CertificationReport:
    """Verdict and evidence of the curvature certification run."""

    status: str                     # certified | violation | inconclusive |
                                    # refused_conditions
    grid: np.ndarray
    bounds_curve: list[CurvatureBounds]
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
        return [(b.t, b.k_min, b.k_max, *m, b.method_agreement)
                for b, m in zip(self.bounds_curve, self.margins)]


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
    floor: float = 1e-9,
) -> CertificationReport:
    """Certify K < 0 on a t-grid and locate the pinched suffix.

    Refuses before any curvature work when a condition margin is
    nonpositive somewhere on the grid; the negativity implication is only
    claimed where all four margins hold, and the cross-check of that
    implication is exactly this run.  The pinched suffix reaches past the
    grid only where ``tail_k_bound`` proves a bound there.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise ValueError("t_range must be a finite increasing pair")
    if t_step <= 0.0:
        raise ValueError("t_step must be positive")
    grid = np.arange(t0, t1 + t_step / 2.0, t_step)

    config = {
        "t_min": t0, "t_max": t1, "t_step": float(t_step), "floor": float(floor),
    }
    margins = condition_margins(warp, grid)
    curve, max_k, flagged = [], np.nan, []
    scale, pinched_from = np.nan, np.inf

    t_w, cond, val = worst_margin(grid, margins)
    if val <= 0.0:
        status = "refused_conditions"
        witness = {"kind": "condition", "t": t_w, "condition": cond,
                   "margin": val}
    else:
        curve = [extremize_k(warp, float(t)) for t in grid]
        k_max_arr = np.array([b.k_max for b in curve])
        max_k = float(np.max(k_max_arr))
        flagged = [b.t for b in curve if b.method_agreement > _AGREEMENT_TOL]
        witness = None
        if max_k >= 0.0:
            worst = curve[int(np.argmax(k_max_arr))]
            plane = worst.argmax_plane
            witness = {
                "kind": "positive_curvature",
                "t": float(worst.t),
                "k_max": float(worst.k_max),
                "plane_basis": [plane.u.tolist(), plane.v.tolist()],
            }
            status = "violation"
        elif max_k >= -floor:
            status = "inconclusive"
        else:
            status = "certified"
            scale, pinched_from = rescale_to_pinching(
                curve, floor, tail_k_bound(warp, float(grid[-1])))

    return CertificationReport(
        status=status, grid=grid, bounds_curve=curve, margins=margins,
        global_negative=status == "certified", max_k=max_k,
        pinched_from=pinched_from, scale=scale, floor=floor,
        flagged_points=flagged, witness=witness, tail_notes=_tail_notes(warp),
        config=config,
    )
