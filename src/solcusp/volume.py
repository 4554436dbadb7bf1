"""Cusp volume: vol(C) x integral of the metric volume density over t.

The density sqrt(det g) is computed from the metric diagonal (not hard
coded) and equals f(t) e^(-2t), an identity the test suite checks for
every warp family.  f is exactly e^(-t) for t <= lo and exactly
1 + e^(-t) for t >= hi, with (lo, hi) = ``warp.regimes``, so with
a = max(t0, lo) and b = max(t0, hi) the improper integral over [t0, inf)
splits into closed forms and one quadrature over the transition window:

    (e^(-3 t0) - e^(-3a))/3 + e^(-2b)/2 + e^(-3b)/3 + GK15 over [a, b].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import metric_diag
from .warp import regimes

__all__ = ["VolumeResult", "QuadratureError", "cusp_volume", "adaptive_quad"]


class QuadratureError(RuntimeError):
    """Adaptive subdivision cannot reach the requested tolerance."""


# 15-point Kronrod nodes with Gauss-7 and Kronrod-15 weights
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_W_GAUSS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])

# subintervals adaptive_quad may hold before it gives up
_MAX_INTERVALS = 2000


def _gk15(fn, *ends: float) -> list[tuple[float, ...]]:
    """(lo, hi, Kronrod sum, error estimate, Kronrod sum of |fn|) of each
    panel [lo, hi] between consecutive ends, from one call of fn on all
    their nodes."""
    panels = list(zip(ends, ends[1:]))
    y = fn(np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _GK_NODES for a, b in panels]))
    out = []
    for (a, b), yn in zip(panels, np.split(y, len(panels))):
        half = 0.5 * (b - a)
        k = half * float(_W_KRONROD @ yn)
        g = half * float(_W_GAUSS @ yn)
        out.append((a, b, k, (200.0 * abs(k - g)) ** 1.5, half * float(_W_KRONROD @ np.abs(yn))))
    return out


def adaptive_quad(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on [a, b] to absolute tolerance tol.

    ``fn`` must accept an array of abscissae and act on each one alone.  It
    is called once on the 15 nodes of [a, b], then once per split on the
    30 nodes of both halves.  Returns (integral, error_estimate).  The
    estimate is never below the rounding level 50 eps * integral of |fn| on
    the first panel (QUADPACK's QK15 rule); a tol below that level raises
    QuadratureError before any subdivision, as does exhausting the budget
    of ``_MAX_INTERVALS``.
    """
    if b <= a:
        raise ValueError("need a < b")
    intervals = _gk15(fn, a, b)
    rounding = float(50.0 * np.finfo(float).eps * intervals[0][4])
    if tol < rounding:
        raise QuadratureError(
            f"tol {tol:g} is below the rounding level {rounding:g} of the integral"
        )
    while True:
        total = sum(iv[2] for iv in intervals)
        errs = [iv[3] for iv in intervals]
        err_sum = float(np.sqrt(np.sum(np.square(errs))))
        if err_sum <= tol:
            return float(total), max(err_sum, rounding)
        if len(intervals) >= _MAX_INTERVALS:
            raise QuadratureError(
                f"no convergence to {tol:g} within {_MAX_INTERVALS} intervals "
                f"(reached {err_sum:g})"
            )
        worst = int(np.argmax(errs))
        lo, hi = intervals[worst][:2]
        intervals[worst], right = _gk15(fn, lo, 0.5 * (lo + hi), hi)
        intervals.append(right)


@dataclass(frozen=True)
class VolumeResult:
    """Cusp integral over [t0, inf) and its scaling by vol(C)."""

    integral: float      # integral over [t0, inf) of f e^(-2t)
    total: float         # vol(C) x integral


def _density(warp):
    def fn(t: np.ndarray) -> np.ndarray:
        gxx, gyy, gzz, gtt = metric_diag(warp, t, 0.0)
        return np.sqrt(gxx * gyy * gzz * gtt)
    return fn


def cusp_volume(warp, vol_c: float, t0: float, tol: float) -> VolumeResult:
    """Integral of the volume density over [t0, inf), scaled by vol(C).

    Only the part of the transition window above t0 is integrated
    numerically, to the whole tol; the rest is in closed form, so the
    reported integral differs from the improper one by at most tol plus
    rounding.  Raises ValueError when the volume overflows a float (e^-3t0
    does for t0 below about -236).
    """
    if not 0.0 < vol_c < np.inf:
        raise ValueError(f"vol_c must be positive and finite, got {vol_c}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not np.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    ends = regimes(warp)
    if ends is None:
        raise ValueError(
            f"no closed-form tail for warp family {getattr(warp, 'family', warp)!r}"
        )
    t0 = float(t0)
    a, b = max(t0, ends[0]), max(t0, ends[1])
    with np.errstate(all="ignore"):  # an overflow is refused below
        integral = float((np.exp(-3.0 * t0) - np.exp(-3.0 * a)) / 3.0
                         + np.exp(-2.0 * b) / 2.0 + np.exp(-3.0 * b) / 3.0)
        if a < b:  # f is not analytic at a or b: no GK15 panel may span them
            integral += adaptive_quad(_density(warp), a, b, tol)[0]
    total = float(vol_c) * integral
    if not np.isfinite(total):
        raise ValueError(f"the cusp volume from t0={t0} overflows a float "
                         f"(integral {integral})")
    return VolumeResult(integral=integral, total=total)
