"""Cusp volume: vol(C) x integral of the metric volume density over t.

The density sqrt(det g) is computed from the metric diagonal (not hard
coded) and equals f(t) e^(-2t), an identity the test suite checks for
every warp family; the improper integral over [t0, inf) is
split into an adaptive Gauss-Kronrod part on [t0, cutoff] plus an
analytic exponential tail bound

    integral over [cutoff, inf) of f e^(-2t) <= sup f * e^(-2 cutoff) / 2,

with sup f on the tail taken from the family's closed form (all families
are decreasing there, so the sup is f(cutoff)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import metric_diag
from .warp import Interpolated, PureExp, ShiftedExp

__all__ = ["VolumeResult", "QuadratureError", "cusp_volume", "adaptive_quad"]


class QuadratureError(RuntimeError):
    """Adaptive subdivision failed to reach the requested tolerance."""


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


def _gk15(fn, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GK_NODES
    y = fn(x)
    k = half * float(_W_KRONROD @ y)
    g = half * float(_W_GAUSS @ y)
    err = (200.0 * abs(k - g)) ** 1.5
    return k, err


def adaptive_quad(fn, a: float, b: float, tol: float, max_intervals: int = 2000,
                  *, breakpoints=()) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on [a, b] to absolute tolerance tol.

    ``fn`` must accept an array of abscissae.  The initial partition is
    split at the ``breakpoints`` inside (a, b): a panel spanning a point
    where fn is not analytic is where the Gauss and Kronrod sums can agree
    by chance, both wrong.  Returns (integral, error_estimate); raises
    QuadratureError if the interval budget is exhausted first.
    """
    if b <= a:
        raise ValueError("need a < b")
    edges = [a, *sorted(float(p) for p in breakpoints if a < p < b), b]
    intervals = [(lo, hi, *_gk15(fn, lo, hi)) for lo, hi in zip(edges, edges[1:])]
    while True:
        total = sum(iv[2] for iv in intervals)
        errs = [iv[3] for iv in intervals]
        err_sum = float(np.sqrt(np.sum(np.square(errs))))
        if err_sum <= tol:
            return float(total), err_sum
        if len(intervals) >= max_intervals:
            raise QuadratureError(
                f"no convergence to {tol:g} within {max_intervals} intervals "
                f"(reached {err_sum:g})"
            )
        worst = int(np.argmax(errs))
        lo, hi, _, _ = intervals[worst]
        mid = 0.5 * (lo + hi)
        intervals[worst] = (lo, mid, *_gk15(fn, lo, mid))
        intervals.append((mid, hi, *_gk15(fn, mid, hi)))


@dataclass(frozen=True)
class VolumeResult:
    """Truncated cusp integral with its certified truncation bound."""

    integral: float      # integral over [t0, inf) of f e^(-2t), via cutoff
    tail_bound: float    # analytic bound on the dropped [cutoff, inf) part
    cutoff: float
    total: float         # vol(C) x integral
    quad_error: float    # error estimate of the adaptive part


def _density(warp):
    def fn(t: np.ndarray) -> np.ndarray:
        gxx, gyy, gzz, gtt = metric_diag(warp, t, 0.0)
        return np.sqrt(gxx * gyy * gzz * gtt)
    return fn


def _tail_sup(warp, c: float) -> float:
    """Closed-form bound on sup of f over [c, inf)."""
    if isinstance(warp, (PureExp, ShiftedExp)):
        return warp.eval(c)[0]
    if isinstance(warp, Interpolated):
        if c < warp.t_hi:
            raise ValueError("cutoff below the transition end")
        return warp.eval(c)[0]
    raise ValueError(
        f"no closed-form tail bound for warp family {getattr(warp, 'family', warp)!r}"
    )


def cusp_volume(warp, vol_c: float, t0: float, tol: float) -> VolumeResult:
    """Integral of the volume density over [t0, inf), scaled by vol(C).

    The cutoff is pushed out until the analytic tail bound drops below
    tol/2; the finite part is then integrated adaptively to tol/2, so the
    reported integral differs from the improper one by at most tol.
    """
    if vol_c <= 0.0:
        raise ValueError("vol_c must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    cutoff = float(t0)
    if isinstance(warp, Interpolated):
        cutoff = max(cutoff, float(warp.t_hi))
    cutoff = max(cutoff, 0.0) + 1.0
    for _ in range(400):
        if _tail_sup(warp, cutoff) * np.exp(-2.0 * cutoff) / 2.0 <= tol / 2.0:
            break
        cutoff += 1.0
    else:
        raise ValueError("tail bound did not reach tolerance")
    tail_bound = float(_tail_sup(warp, cutoff) * np.exp(-2.0 * cutoff) / 2.0)

    # the step is not analytic at the window ends
    breaks = (warp.t_lo, warp.t_hi) if isinstance(warp, Interpolated) else ()
    integral, quad_err = adaptive_quad(_density(warp), float(t0), cutoff, tol / 2.0,
                                       breakpoints=breaks)
    return VolumeResult(
        integral=integral,
        tail_bound=tail_bound,
        cutoff=cutoff,
        total=float(vol_c) * integral,
        quad_error=quad_err,
    )
