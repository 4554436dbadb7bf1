"""Certify negative and pinched sectional curvature over all 2-planes.

At a point, the sectional curvature of the plane spanned by a
frame-orthonormal pair (u, v) is K = w^T Q w with w = u ^ v, where Q is the
6x6 curvature form on the 2-form basis of the orthonormal frame.  Such a w
is a unit vector, so

    lambda_min(Q) <= K <= lambda_max(Q)   on every 2-plane

(Thorpe's bound at mu = 0: J. A. Thorpe, "Some remarks on the Gauss-Bonnet
integral", 1969).  A bound is attained exactly when its eigenvector is a
simple bivector u ^ v.

For the cusp ansatz Q has no z and is zero outside the blocks {xy},
{xz, xt}, {yz, yt} and {zt} (the warped-product curvature of R. L. Bishop
and B. O'Neill, "Manifolds of negative curvature", 1969; proved in sympy
for a symbolic f in the tests).  With a = f - 1 and

    A = (f f' - 1) / f^2,   B = (f + f') / f^2

its entries are K(xy) = -a (f + 1) / f^2, K(zt) = -f'' / f and the two
2x2 blocks [[A, -B], [-B, -1]] and [[A, B], [B, -1]], which share their
eigenvalues

    lambda_- = (A - 1)/2 - hypot((A + 1)/2, B),   lambda_+ = (-A - B^2) / lambda_-

(lambda_+ from the determinant, which avoids the cancellation near 0;
lambda_- <= min(A, -1) < 0).  So k_min = min(K(xy), lambda_-, K(zt)) and
k_max = max(K(xy), lambda_+, K(zt)), each attained: every block eigenvector
is a simple bivector, e_x ^ e_y, e_z ^ e_t or e_x ^ (alpha e_z + beta e_t).
``block_min`` and ``block_max`` name the attaining block: 0 = xy, 1 = the
two mixed blocks, 2 = zt, the lowest code on a tie.

``certify`` decides from proofs, not from its grid.  The {xz, xt} block
has determinant -A - B^2 = d / f^2 and a -1 on its diagonal, so K < 0 on
every plane iff margins a, c and d are positive (Bishop and O'Neill).  If
also f > 1, -f <= f' < 0 and f'' < 2f, then K > -2: K(xy) = 1/f^2 - 1,
K(zt) = -f''/f, and with x = f'/f in [-1, 0), y = 1/f in (0, 1), A >= -2
and A + 2 - B^2 = -x (1 + x) + (1 - y^2)(1 + (1 + x)^2) > 0 put lambda_-
above -2 (sympy proofs in the tests).  This holds where f = e^-t, t < 0,
where f = 1 + e^-t, and in a window ``window_witness`` proves, so a warp
of ``FAMILIES`` is certified with lambda^2 = 2 unless its grid reaches
t >= 0 in pure-exp's regime or the window proof fails.  The range (-2, 0)
is exact: as f -> 1 and f', f'' -> 0, on the shifted tail t -> oo, lambda_-
tends to -2 and K(xy) to 0 (sympy limits in the tests), and so do
pure-exp's -1 - e^2t and e^2t - 1 as t -> 0-.  So lambda^2 = 2 is the
least scale: any smaller one leaves planes with K / lambda^2 < -1.  The grid (z = 0)
is evidence: one warp evaluation, the margins and one closed-form kernel,
whose 0-d case ``extremize_k`` equals a grid point bit for bit.
``extremize_point`` bounds K at any ``MetricPoint``: the first and last
``eigvalsh`` eigenvalues of its ``riemann_closed`` frame form.

Completeness needs no report field.  g - dt^2 is positive semidefinite,
so every curve from p to q is at least |t(p) - t(q)| long: |t(p) - t(q)|
<= dist(p, q).  A closed bounded set thus lies in some [t0, T] x C, which
is compact as the cross section C is, so the set is compact, and
Hopf-Rinow makes g complete (the tests check g - dt^2 >= 0 on a grid of
each family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import MetricPoint, riemann_closed
from .warp import FAMILIES, condition_margins, window_witness, worst_margin

__all__ = [
    "CurvatureBounds",
    "CertificationReport",
    "extremize_k",
    "extremize_point",
    "certify",
    "rescale_to_pinching",
]

# largest t-grid certify builds: a tracemalloc peak of 23 MB on the default
# warp, about 230 B a point
_MAX_GRID_POINTS = 10**5


@dataclass(frozen=True)
class CurvatureBounds:
    """Extremal sectional curvature over all tangent 2-planes, per point.

    Every field has the stack's shape, () for one point.  ``block_min`` and
    ``block_max`` are the integer codes of the blocks that attain k_min and
    k_max (the module docstring).
    """

    t: np.ndarray
    k_min: np.ndarray
    k_max: np.ndarray
    block_min: np.ndarray
    block_max: np.ndarray


# no run path calls this or extremize_k; perfbench/spans.py traces both by name
def extremize_point(p: MetricPoint) -> tuple[float, float]:
    """(k_min, k_max) over all 2-planes at one MetricPoint (a 0-d stack).

    For any metric, not only the cusp ansatz: the extreme eigenvalues of
    the frame form of one closed-form Riemann tensor, which bound K on
    every plane (the module docstring).
    """
    if p.shape != ():
        raise ValueError(f"extremize_point takes one point, not a stack of shape {p.shape}")
    with np.errstate(all="ignore"):  # an overflow is refused below
        Q = riemann_closed(p).pair_matrix(frame=True)
    if not np.isfinite(Q).all():
        raise ValueError(f"the frame curvature form is not finite at t={float(p.t)}")
    vals = np.linalg.eigvalsh(Q)
    return vals[0], vals[-1]


def _closed_extremes(t, a, f, fp, fpp) -> CurvatureBounds:
    """Extremal K over all 2-planes at every t, from the closed forms of the
    four-block frame form (see the module docstring).

    ``a`` is margin a, passed in rather than computed as f - 1.  Leading
    axes pass through.  Raises ValueError at the first t where a value of
    the form or an extreme is not finite.
    """
    with np.errstate(all="ignore"):  # a non-finite value is refused below
        f2 = f * f
        k_xy = -a * (f + 1.0) / f2
        A = (f * fp - 1.0) / f2
        B = (f + fp) / f2
        k_zt = -fpp / f
        lo = (A - 1.0) / 2.0 - np.hypot((A + 1.0) / 2.0, B)
        hi = (-A - B * B) / lo
        lows, highs = np.stack((k_xy, lo, k_zt)), np.stack((k_xy, hi, k_zt))
        finite = np.isfinite(np.stack((k_xy, lo, hi, k_zt))).all(axis=0)
    if not finite.all():
        bad = float(np.broadcast_to(t, finite.shape)[~finite].flat[0])
        raise ValueError(f"the frame curvature form is not finite at t={bad}")
    # asarray: a reduction to 0-d returns a scalar, not a 0-d array
    return CurvatureBounds(
        t=np.asarray(t),
        k_min=np.asarray(lows.min(axis=0)),
        k_max=np.asarray(highs.max(axis=0)),
        block_min=np.asarray(lows.argmin(axis=0)),
        block_max=np.asarray(highs.argmax(axis=0)),
    )


def extremize_k(warp, t: float) -> CurvatureBounds:
    """Extremal K at one t, the 0-d case of certify's kernel; z is a
    symmetry direction of the frame form."""
    t = np.asarray(float(t))
    with np.errstate(all="ignore"):  # a non-finite value is refused by the margins
        values = warp.eval(t)
    return _closed_extremes(t, condition_margins(warp, t, values)[..., 0], *values)


def rescale_to_pinching(warp) -> tuple[float, float]:
    """Rescale factor lambda (g -> lambda^2 g) and start of the pinched range
    of a certified warp.

    -2 < K < 0 on every plane of a certified warp (the module docstring),
    so lambda^2 = 2 puts K / lambda^2 in (-1, 0): from -inf where the
    shifted regime holds above a finite ``warp.t_hi``, and nowhere (+inf)
    for pure-exp, which is certified only below t = 0.
    """
    return float(np.sqrt(2.0)), -np.inf if warp.t_hi < np.inf else np.inf


@dataclass(frozen=True)
class CertificationReport:
    """Verdict and evidence of the curvature certification run."""

    status: str                     # certified | refused_conditions
    grid: np.ndarray
    bounds_curve: CurvatureBounds | None  # None when refused
    margins: np.ndarray             # (n, 4) condition margins on the grid
    max_k: float
    pinched_from: float
    scale: float
    witness: dict | None
    config: dict
    # always empty, not a field: perfbench/spans.py's certify hook takes its
    # len, and certify.json writes it as []
    flagged_points = ()

    def curve_rows(self):
        """(t, k_min, k_max, margin_a..d, block_min, block_max) per grid point."""
        b = self.bounds_curve
        if b is None:
            return []
        return np.column_stack((b.t, b.k_min, b.k_max, self.margins,
                                b.block_min, b.block_max))


def certify(
    warp,
    t_range: tuple[float, float],
    t_step: float,
) -> CertificationReport:
    """Certify K < 0 and the pinching of a warp of ``FAMILIES``, and bound K
    as evidence on the grid t_min + k t_step, k = 0, 1, ..., up to t_max.

    The verdict comes from the proofs in the module docstring, whatever
    the grid: refused where the grid reaches t >= 0 in pure-exp's regime
    (the witness is the grid's worst margin) or where ``window_witness``
    rejects the transition window, certified otherwise.  Only a certified
    report has a bounds curve and ``max_k``.  A warp of another type has
    no proof and is refused with a ValueError.
    """
    if type(warp) not in FAMILIES.values():
        raise ValueError(f"no proof covers a warp of type {type(warp).__name__}")
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise ValueError("t_range must be a finite increasing pair")
    if not 0.0 < t_step < np.inf:
        raise ValueError(f"t_step must be positive and finite, got {t_step}")
    if (t1 - t0) / t_step + 1.0 > _MAX_GRID_POINTS:
        raise ValueError(f"t_step {t_step} gives more than {_MAX_GRID_POINTS} "
                         f"grid points on [{t0}, {t1}]")
    # arange's end may pass t_max by up to half a step
    grid = np.arange(t0, t1 + t_step / 2.0, t_step)
    grid = grid[grid <= t1]

    config = {"t_min": t0, "t_max": t1, "t_step": float(t_step)}
    with np.errstate(all="ignore"):  # a non-finite value is refused by the margins
        values = warp.eval(grid)
    margins = condition_margins(warp, grid, values)
    curve, max_k = None, np.nan
    scale, pinched_from = np.nan, np.inf

    if np.any((grid >= 0.0) & (grid <= warp.t_lo)):
        t_w, cond, val = worst_margin(grid, margins)
        witness = {"kind": "condition", "t": t_w, "condition": cond, "margin": val}
    elif (gap := window_witness(warp)) is not None:
        witness = {"kind": "window", **gap}
    else:
        witness = None
        curve = _closed_extremes(grid, margins[:, 0], *values)
        max_k = float(np.max(curve.k_max))
        scale, pinched_from = rescale_to_pinching(warp)

    return CertificationReport(
        status="refused_conditions" if witness else "certified", grid=grid,
        bounds_curve=curve, margins=margins, max_k=max_k, pinched_from=pinched_from,
        scale=scale, witness=witness, config=config,
    )
