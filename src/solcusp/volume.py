"""Cusp volume: vol(C) x integral of the metric volume density over t.

The density sqrt(det g) is f(t) e^(-2t), an identity the test suite checks
against the metric for every warp family.  Every family has f = e^(-t) + s
with 0 <= s <= 1, s = 0 for t <= warp.t_lo and s = 1 for t >= warp.t_hi,
so with a = max(t0, t_lo) and b = max(t0, t_hi) the improper integral is

    e^(-3 t0)/3 + e^(-2b)/2 + integral over [a, b] of s e^(-2t),

and the tanh-sinh rule sees only s e^(-2t) = (f - e^(-t)) e^(-2t) on the
window [a, b].  A tol below the rounding level, the sum of three terms, is refused:

* (|r| + 3 eps)(e^(-3 t0)/3 + e^(-2b)/2) for the closed forms: -3 t0 rounds
  by r, which e^x makes a relative error; exp, / 3 and two sums add 3 eps;
* eps (e^(-3a) - e^(-3b))/3 for f's rounding: in the window s <= 1 <= e^(-t),
  so f - e^(-t) is exact (Sterbenz) and carries f's rounding, <= eps e^(-t);
* the rule's 50 eps integral of |s e^(-2t)|, <= 25 eps (e^(-2a) - e^(-2b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VolumeResult", "QuadratureError", "cusp_volume", "adaptive_quad"]

_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """No level of the rule reaches the requested tolerance."""


def _nodes(h: float, k: np.ndarray) -> tuple:
    """Tanh-sinh nodes x = tanh(y), y = pi/2 sinh(kh), on [-1, 1]: whether
    x < 0, the offset from the nearer end, +-(1 - tanh|y|) = +-2/(e^(2|y|) + 1)
    so that nothing cancels, and the weight over h, pi/2 cosh(kh) / cosh(y)^2."""
    y = 0.5 * np.pi * np.sinh(k * h)
    offset = 2.0 / (np.exp(2.0 * np.abs(y)) + 1.0)
    return k < 0, np.where(k < 0, offset, -offset), 0.5 * np.pi * np.cosh(k * h) / np.cosh(y) ** 2


# |kh| <= 3.1875, past which the weights fall below 1e-16.  The first level
# holds the 103 nodes of h = 1/16: those of h = 1/4, then those h = 1/8 adds,
# then the rest.  Each later level holds the odd k of the next h, to 1/1024
_K = np.arange(-51, 52)
_LEVELS = [_nodes(0.0625, np.concatenate([_K[_K % 4 == 0], _K[_K % 4 == 2], _K[_K % 2 == 1]]))] + [
    _nodes(2.0**-m, np.arange(1 - 51 * 2 ** (m - 4), 51 * 2 ** (m - 4), 2)) for m in range(5, 11)]


def adaptive_quad(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """The tanh-sinh rule on [a, b] to absolute tolerance tol.

    ``fn`` must accept an array of abscissae and act on each one alone.  It
    is called once per level: on the 103 nodes of step h = 1/16, which hold
    the rules of h = 1/4 and 1/8, then on the new nodes as h halves, down
    to 1/1024.  The first h whose estimate, the larger of the last two
    differences of successive h (one alone can vanish by aliasing), meets
    tol gives (integral, max(estimate, rounding level)).  The rounding level
    is 50 eps * integral of |fn| on the first level; a tol below it raises
    QuadratureError at once, as does no h meeting tol.
    """
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    integrals, total = [], 0.0
    for left, offset, weight in _LEVELS:
        wy = weight * fn(np.where(left, a, b) + half * offset)
        if not integrals:
            rounding = 50.0 * _EPS * half / 16.0 * float(np.abs(wy).sum())
            if tol < rounding:
                raise QuadratureError(f"tol {tol:g} is below the rounding level {rounding:g} "
                                      "of the integral")
        # the sum over each h's new nodes: h = 1/4, 1/8 and 1/16 on the first level
        for part in np.add.reduceat(wy, [0, 25, 51] if not integrals else [0]):
            total += float(part)
            integrals.append(half * total / 2.0 ** (len(integrals) + 2))
        err = max(abs(integrals[-1] - integrals[-2]), abs(integrals[-2] - integrals[-3]))
        if err <= tol:
            return integrals[-1], max(err, rounding)
    raise QuadratureError(f"no convergence to {tol:g} by the finest step h = 1/1024 "
                          f"(reached {err:g})")


@dataclass(frozen=True)
class VolumeResult:
    """Cusp integral over [t0, inf) and its scaling by vol(C)."""

    integral: float      # integral over [t0, inf) of f e^(-2t)
    total: float         # vol(C) x integral


def _density(warp):
    """s e^(-2t) = f e^(-2t) - e^(-3t), from one exp."""
    def fn(t: np.ndarray) -> np.ndarray:
        e = np.exp(-t)
        return (warp.eval(t)[0] - e) * (e * e)
    return fn


def _total(vol_c: float, t0: float, integral: float) -> float:
    total = float(vol_c) * integral
    if not np.isfinite(total):
        raise ValueError(f"the cusp volume from t0={t0} overflows a float (integral {integral})")
    return total


def cusp_volume(warp, vol_c: float, t0: float, tol: float) -> VolumeResult:
    """Integral of the volume density over [t0, inf), within the absolute
    tol of the improper one, scaled by vol(C).  Raises ValueError when the
    volume overflows a float (e^-3t0 does for t0 below about -236), whatever
    the tol, and QuadratureError for a tol below the rounding level."""
    if not 0.0 < vol_c < np.inf:
        raise ValueError(f"vol_c must be positive and finite, got {vol_c}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not np.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    t0 = float(t0)
    a, b = max(t0, warp.t_lo), max(t0, warp.t_hi)
    x = -3.0 * t0
    with np.errstate(over="ignore"):  # an overflow is refused next
        integral = float(np.exp(x) / 3.0 + np.exp(-2.0 * b) / 2.0)
    _total(vol_c, t0, integral)
    # r = x + 3 t0, exact by Sterbenz twice (0 where e^x is 0); without a
    # window, a = b and its terms are 0
    r = (x + 2.0 * t0) + t0 if x > -np.inf else 0.0
    fixed = (abs(r) + 3.0 * _EPS) * integral + _EPS * (math.exp(-3.0 * a) - math.exp(-3.0 * b)) / 3
    level = fixed + 25.0 * _EPS * (math.exp(-2.0 * a) - math.exp(-2.0 * b))
    if tol < level:
        raise QuadratureError(f"tol {tol:g} is below the rounding level {level:g} of the integral")
    if a < b:
        integral += adaptive_quad(_density(warp), a, b, tol - fixed)[0]
    return VolumeResult(integral=integral, total=_total(vol_c, t0, integral))
