"""Cusp volume: vol(C) x integral of the metric volume density over t.

The density sqrt(det g) is f(t) e^(-2t), an identity the test suite checks
against the metric for every warp family.  f is exactly e^(-t) for
t <= warp.t_lo and exactly 1 + e^(-t) for t >= warp.t_hi, so with
a = max(t0, t_lo) and b = max(t0, t_hi) the improper integral over
[t0, inf) splits into closed forms and one quadrature over the transition
window:

    (e^(-3 t0) - e^(-3a))/3 + e^(-2b)/2 + e^(-3b)/3 + GK15 over [a, b].

The density is analytic on each (a, b), so the quadrature refines
uniformly: GK15 on 4 equal panels of [a, b], then 8, 16, and so on, one
density call per level, until the summed error estimate meets tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VolumeResult", "QuadratureError", "cusp_volume", "adaptive_quad"]


class QuadratureError(RuntimeError):
    """No level of panels reaches the requested tolerance."""


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

# panels of adaptive_quad's first level, and the most it may use
_FIRST_LEVEL = 4
_MAX_INTERVALS = 2000


def adaptive_quad(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Gauss-Kronrod on [a, b] to absolute tolerance tol, in uniform levels.

    Level n splits [a, b] into n equal panels, n = 4, 8, 16, ...; ``fn``
    must accept an array of abscissae and act on each one alone, and is
    called once per level on all 15 n Kronrod nodes.  The first level whose
    QK15 estimates (200 |K - G|)^1.5, summed in quadrature, meet tol gives
    (integral, error_estimate).  The estimate is never below the rounding
    level 50 eps * integral of |fn| on the first level (QUADPACK's QK15
    rule); a tol below that level raises QuadratureError at once, as does
    a next level of more than ``_MAX_INTERVALS`` panels.
    """
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    n = _FIRST_LEVEL
    while True:
        half = 0.5 * (b - a) / n
        mid = a + half * (2.0 * np.arange(n) + 1.0)
        y = fn((mid[:, None] + half * _GK_NODES).ravel()).reshape(n, _GK_NODES.size)
        k, g = half * (y @ _W_KRONROD), half * (y @ _W_GAUSS)
        if n == _FIRST_LEVEL:
            rounding = float(50.0 * np.finfo(float).eps * half * np.sum(np.abs(y) @ _W_KRONROD))
            if tol < rounding:
                raise QuadratureError(
                    f"tol {tol:g} is below the rounding level {rounding:g} of the integral"
                )
        err = float(np.linalg.norm((200.0 * np.abs(k - g)) ** 1.5))
        if err <= tol:
            return float(np.sum(k)), max(err, rounding)
        if 2 * n > _MAX_INTERVALS:
            raise QuadratureError(
                f"no convergence to {tol:g} within {_MAX_INTERVALS} intervals "
                f"(reached {err:g})"
            )
        n *= 2


@dataclass(frozen=True)
class VolumeResult:
    """Cusp integral over [t0, inf) and its scaling by vol(C)."""

    integral: float      # integral over [t0, inf) of f e^(-2t)
    total: float         # vol(C) x integral


def _density(warp):
    def fn(t: np.ndarray) -> np.ndarray:
        return warp.eval(t)[0] * np.exp(-2.0 * t)
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
    t0 = float(t0)
    a, b = max(t0, warp.t_lo), max(t0, warp.t_hi)
    with np.errstate(all="ignore"):  # an overflow is refused below
        integral = float((np.exp(-3.0 * t0) - np.exp(-3.0 * a)) / 3.0
                         + np.exp(-2.0 * b) / 2.0 + np.exp(-3.0 * b) / 3.0)
        # f is not analytic at a or b: no GK15 panel may span them.  An
        # overflowed closed-form part is refused below, whatever the tol
        if a < b and np.isfinite(integral):
            integral += adaptive_quad(_density(warp), a, b, tol)[0]
    total = float(vol_c) * integral
    if not np.isfinite(total):
        raise ValueError(f"the cusp volume from t0={t0} overflows a float "
                         f"(integral {integral})")
    return VolumeResult(integral=integral, total=total)
