"""Warping-function families for the cusp metric.

Three families are provided:

* ``PureExp``     -- f(t) = e^(-t)
* ``ShiftedExp``  -- f(t) = 1 + e^(-t)
* ``Interpolated``-- equals PureExp for t <= T0 and ShiftedExp for t >= T1,
  glued with a C-infinity bump-quotient step so that f, f', f'' are smooth
  across both junctions.

A warp f is admissible for negative curvature when four pointwise margins
are all positive:

    a = f - 1,   b = -f',   c = f'',   d = 1 - f*f' - (1 + f'/f)^2

Each family's ``eval`` takes a float or an array of t and returns
(f, f', f'') of the same shape.  ``Interpolated.eval`` computes e^-t on all
of t and the step s only where it moves: s = 0 for u <= 0 and s = 1 for
u >= 1, and inside (0, 1) the logistic in g = 1/u - 1/(1-u) runs only where
|g| < _STEP_CLIP (beyond, s is 0 or 1 to far below double precision).
Everywhere else f = e^-t + s, f' = 0.0 - e^-t and f'' = e^-t + 0/W^2.

``build_interpolation`` doubles the width W of a window t_lo < t_hi <= 0
until ``window_witness`` proves the four margins positive at every t:

* below t_lo: e^-t - 1, e^-t, e^-t and 1 + e^-2t; above t_hi: ShiftedExp's;
* inside, f = e^-t + s(u) with u = (t - t_lo)/W, so a = e^-t + s - 1 > 0,
  and d = x(f^2 + 2 - x) with x = b/f and b <= e^-t < f: d > 0 iff b > 0;
* b > 0 iff s' e^t < W, and c > 0 iff -s'' e^t < W^2.  A table bounds both
  left sides on each cell in u by the larger end value plus M h/2 (M a
  bound on the next derivative of s), times e^t at the cell's right end.
  Any W >= 4 passes (s' < 2.01, |s''| < 9.85, e^t <= 1), so the search
  ends.  The tests prove each fact used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "PureExp",
    "ShiftedExp",
    "Interpolated",
    "GRID_STEP",
    "FAMILIES",
    "regimes",
    "condition_margins",
    "worst_margin",
    "validation_grid",
    "window_witness",
    "build_interpolation",
    "warp_from_name",
]

# exp(g) with |g| beyond this is numerically 0 or 1 in the step quotient
_STEP_CLIP = 500.0
# spacing of the grid that warp.json and the warp CSV report on
GRID_STEP = 1e-3
# e^-t overflows a float below this t
_T_OVERFLOW = -float(np.log(np.finfo(float).max))
# cells in u of the window proof; with 1 024 some valid windows widen once more
_PROOF_CELLS = 16384
# proved bounds on sup |s''| (about 9.8410) and sup |s'''| (about 110.6)
_S2_BOUND = 9.85
_S3_BOUND = 111.0
# the proof accepts ratios below 1 - _ROUNDING, for float rounding
_ROUNDING = 1e-9


@dataclass(frozen=True)
class PureExp:
    """f(t) = e^(-t); satisfies the four margin conditions for t < 0 only."""

    family: ClassVar[str] = "pure-exp"

    def eval(self, t: float | np.ndarray) -> tuple:
        f = np.exp(-np.asarray(t, dtype=float))
        return f, -f, f


@dataclass(frozen=True)
class ShiftedExp:
    """f(t) = 1 + e^(-t); satisfies the four margin conditions for all t."""

    family: ClassVar[str] = "shifted-exp"

    def eval(self, t: float | np.ndarray) -> tuple:
        e = np.exp(-np.asarray(t, dtype=float))
        return 1.0 + e, -e, e


def _run(i: np.ndarray) -> slice | np.ndarray:
    """Indices i, as a slice when they are consecutive (a sorted t): views, not copies."""
    return slice(i[0], i[-1] + 1) if i.size and i[-1] - i[0] == i.size - 1 else i


def _step(u: np.ndarray) -> tuple[np.ndarray, slice | np.ndarray, tuple]:
    """On a flat u: where 0 < u < 1, the indices with s = 1, the indices j with
    |g| < _STEP_CLIP, and (s, s', s'') at j.  s(u) = phi(u) / (phi(u) + phi(1-u)),
    phi(u) = exp(-1/u), is a logistic in g, which keeps s, s', s'' finite."""
    i = ((u > 0.0) & (u < 1.0)).nonzero()[0]
    u = u[_run(i)]
    v = 1.0 - u
    with np.errstate(over="ignore"):  # 1/u is inf below 1/(float max)
        g = 1.0 / u - 1.0 / v
    top, k = i[g <= -_STEP_CLIP], _run((np.abs(g) < _STEP_CLIP).nonzero()[0])
    u, v, g = u[k], v[k], g[k]
    sig = 1.0 / (1.0 + np.exp(g))      # s = sigma(g)
    w = sig * (1.0 - sig)               # |sigma'|
    g1 = -1.0 / u**2 - 1.0 / v**2
    g2 = 2.0 / u**3 - 2.0 / v**3
    return top, _run(i[k]), (sig, -w * g1, w * (1.0 - 2.0 * sig) * g1**2 - w * g2)


def _proof_table() -> tuple[np.ndarray, np.ndarray]:
    """Cell right ends in u, and per cell bounds on s' and max(-s'', 0).

    Nodes u > 1/2 mirror u < 1/2, as s(1 - u) = 1 - s(u): 1 - sigma cancels there.
    """
    n = _PROOF_CELLS
    s1, s2 = np.zeros((2, n // 2 + 1))
    _, i, (_, s1[i], s2[i]) = _step(np.arange(n // 2 + 1) / n)  # 0 off i, as s', s'' are
    s1, neg_s2 = np.concatenate([s1, s1[-2::-1]]), np.concatenate([-s2, s2[-2::-1]])
    return np.arange(1, n + 1) / n, np.stack([
        np.maximum(s1[:-1], s1[1:]) + _S2_BOUND * 0.5 / n,
        np.maximum(np.maximum(neg_s2[:-1], neg_s2[1:]), 0.0) + _S3_BOUND * 0.5 / n])


_CELL_END, _CELL_BOUNDS = _proof_table()
_CELL_GAP = 1.0 - _CELL_END


@dataclass(frozen=True)
class Interpolated:
    """PureExp for t <= t_lo, ShiftedExp for t >= t_hi, smooth in between.

    f(t) = e^(-t) + s((t - t_lo)/(t_hi - t_lo)) with the C-infinity step s,
    so the junction values and all derivatives match the closed forms
    exactly at both ends of the transition.
    """

    t_lo: float
    t_hi: float
    family: ClassVar[str] = "interpolated"

    def __post_init__(self) -> None:
        if not (-np.inf < self.t_lo < self.t_hi <= 0.0):
            raise ValueError(
                f"need finite t_lo < t_hi <= 0, got ({self.t_lo}, {self.t_hi})"
            )
        width = self.t_hi - self.t_lo
        if not np.isfinite(width * width):  # eval divides f'' by width^2
            raise ValueError(f"the window width {width} squared overflows a float")

    def eval(self, t: float | np.ndarray) -> tuple:
        t = np.asarray(t, dtype=float)
        width = self.t_hi - self.t_lo
        u = (t.ravel() - self.t_lo) / width
        e = np.exp(-t.ravel())
        top, i, (s, s1, s2) = _step(u)
        # the closed forms, then the step at i; fp takes u's buffer, fpp e's
        f = e + (u >= 1.0)
        f[top] += 1.0
        fp = np.subtract(0.0, e, out=u)
        ei = e[i]
        fpp = e if width**2 else e + np.divide(0.0, width**2)  # e + 0.0 is e
        f[i], fp[i], fpp[i] = ei + s, -ei + s1 / width, ei + s2 / width**2
        return f.reshape(t.shape)[()], fp.reshape(t.shape)[()], fpp.reshape(t.shape)[()]


def regimes(warp) -> tuple[float, float] | None:
    """Ends (lo, hi) of the closed-form regimes of a warp family.

    f = e^(-t) exactly for t <= lo and f = 1 + e^(-t) exactly for t >= hi;
    None for a family with no such closed form.
    """
    if isinstance(warp, PureExp):
        return np.inf, np.inf
    if isinstance(warp, ShiftedExp):
        return -np.inf, -np.inf
    if isinstance(warp, Interpolated):
        return warp.t_lo, warp.t_hi
    return None


def condition_margins(warp, t: np.ndarray, values: tuple | None = None) -> np.ndarray:
    """Margins (a, b, c, d) at t, shape np.shape(t) + (4,); ``values``: warp.eval(t) if known.

    Raises ValueError if f(t) <= 0 anywhere on the grid (margin d divides
    by f), or if f, f' or f'' is not finite there.  Margin d may then still
    overflow to +-inf, which keeps its sign.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("grid must be nonempty")
    with np.errstate(all="ignore"):  # an overflow is refused or keeps its sign
        f, fp, fpp = warp.eval(t) if values is None else values
        m = np.empty((4,) + t.shape)  # one margin per row; m[k, ...] is a view, 0-d too
        np.subtract(f, 1.0, out=m[0, ...])
        np.negative(fp, out=m[1, ...])
        m[2, ...] = fpp
        finite = np.isfinite(m[:3]).all(axis=0)  # a, b, c: exactly where f, f', f'' are
        if not finite.all():
            raise ValueError(f"f, f' or f'' is not finite at t={float(t.flat[np.argmin(finite)])}")
        if np.min(f) <= 0.0:
            bad = float(t.flat[np.argmax(f <= 0.0)])
            raise ValueError(f"f(t) <= 0 at t={bad}; margin d is undefined there")
        np.subtract(1.0, np.multiply(f, fp, out=m[3, ...]), out=m[3, ...])
        m[3, ...] -= (1.0 + fp / f) ** 2
        return m.transpose(*range(1, m.ndim), 0)  # the moveaxis view: (a, b, c, d) last


def worst_margin(t: np.ndarray, margins: np.ndarray) -> tuple[float, str, float]:
    """(t, condition letter, margin) of the smallest margin on the grid t."""
    i, j = np.unravel_index(np.argmin(margins), margins.shape)
    return float(t[i]), "abcd"[j], float(margins[i, j])


def validation_grid(warp) -> np.ndarray:
    """[t_lo - 2, 1] at ``GRID_STEP``; t_lo = -6 without a finite window.

    Refused when it would start below -log(float max), where e^-t overflows.
    """
    ends = regimes(warp)
    lo = (ends[0] if ends is not None and np.isfinite(ends[0]) else -6.0) - 2.0
    if lo < _T_OVERFLOW:
        raise ValueError(f"the report grid would start at t={lo}, below "
                         f"{_T_OVERFLOW:.2f}, where e^-t overflows")
    return np.arange(lo, 1.0 + GRID_STEP / 2, GRID_STEP)


def window_witness(warp) -> dict | None:
    """None when warp has no transition window or every cell's bound on
    s' e^t / W (margin b) and on -s'' e^t / W^2 (margin c) is below
    1 - ``_ROUNDING``; else the worst cell's right end t, its condition
    and that bound, ``ratio``.
    """
    if not isinstance(warp, Interpolated):
        return None
    width = warp.t_hi - warp.t_lo
    t = warp.t_hi - _CELL_GAP * width
    with np.errstate(over="ignore", divide="ignore"):  # an infinite ratio fails
        ratios = _CELL_BOUNDS * (np.exp(t) / [[width], [width * width]])
    k, i = np.unravel_index(np.argmax(ratios), ratios.shape)
    if ratios[k, i] < 1.0 - _ROUNDING:
        return None
    return {"t": float(t[i]), "condition": "bc"[k], "ratio": float(ratios[k, i])}


def build_interpolation(t_lo: float, t_hi: float) -> Interpolated:
    """The window (t_lo, t_hi), widened t_lo <- t_hi - 2 (t_hi - t_lo)
    until ``window_witness`` proves it admissible; any W >= 4 is.
    """
    warp = Interpolated(float(t_lo), float(t_hi))
    while window_witness(warp) is not None:
        warp = Interpolated(warp.t_hi - 2.0 * (warp.t_hi - warp.t_lo), warp.t_hi)
    return warp


FAMILIES = {cls.family: cls for cls in (PureExp, ShiftedExp, Interpolated)}


def warp_from_name(name: str, t_lo: float, t_hi: float):
    """The warp of family ``name``; an interpolated one is validated."""
    if name not in FAMILIES:
        raise ValueError(f"unknown warp family: {name!r}")
    if name == Interpolated.family:
        return build_interpolation(t_lo, t_hi)
    return FAMILIES[name]()
