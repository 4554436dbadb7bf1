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
(f, f', f'') of the same shape.

``build_interpolation`` searches for a transition window wide enough that
all four margins stay above ``_MARGIN_FLOOR`` on the ``GRID_STEP`` grid,
widening the window geometrically (at most ``_MAX_WIDENINGS`` times) until
validation passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "PureExp",
    "ShiftedExp",
    "Interpolated",
    "InterpolationError",
    "GRID_STEP",
    "FAMILIES",
    "regimes",
    "condition_margins",
    "worst_margin",
    "validation_grid",
    "build_interpolation",
    "warp_from_name",
]

# exp(g) with |g| beyond this is numerically 0 or 1 in the step quotient
_STEP_CLIP = 500.0
# window doublings build_interpolation tries before giving up
_MAX_WIDENINGS = 20
# every margin must exceed this on the validation grid
_MARGIN_FLOOR = 1e-6
# spacing of the validation grid
GRID_STEP = 1e-3
# a window narrower than this (100 grid steps) counts as failing, since the
# grid cannot see inside it: no point of the grid lies in the window
# (-1e-4, -5e-5), where margin c reaches -3.9e9
_MIN_WINDOW_WIDTH = 0.1


class InterpolationError(RuntimeError):
    """No transition window satisfying the margin floor was found."""


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


def _smooth_step(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C-infinity step s(u) with s=0 for u<=0, s=1 for u>=1.

    s(u) = phi(u) / (phi(u) + phi(1-u)) with phi(u) = exp(-1/u), written as
    a logistic in g(u) = 1/u - 1/(1-u) so that s, s', s'' stay finite in
    floating point all the way to the endpoints.  Returns (s, s', s'').
    """
    u = np.asarray(u, dtype=float)
    s = np.zeros_like(u)
    s1 = np.zeros_like(u)
    s2 = np.zeros_like(u)

    lo = u <= 0.0
    hi = u >= 1.0
    mid = ~(lo | hi)
    s[hi] = 1.0

    if np.any(mid):
        um = u[mid]
        g = 1.0 / um - 1.0 / (1.0 - um)
        # within +-_STEP_CLIP the logistic and its first two derivatives are
        # representable; outside, s is 0 or 1 to far below double precision
        inner = np.abs(g) < _STEP_CLIP
        sm = np.where(g <= -_STEP_CLIP, 1.0, 0.0)
        s1m = np.zeros_like(um)
        s2m = np.zeros_like(um)
        if np.any(inner):
            ui = um[inner]
            gi = g[inner]
            sig = 1.0 / (1.0 + np.exp(gi))      # s = sigma(g)
            w = sig * (1.0 - sig)               # |sigma'|
            g1 = -1.0 / ui**2 - 1.0 / (1.0 - ui) ** 2
            g2 = 2.0 / ui**3 - 2.0 / (1.0 - ui) ** 3
            sm[inner] = sig
            s1m[inner] = -w * g1
            s2m[inner] = w * (1.0 - 2.0 * sig) * g1**2 - w * g2
        s[mid] = sm
        s1[mid] = s1m
        s2[mid] = s2m
    return s, s1, s2


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

    def eval(self, t: float | np.ndarray) -> tuple:
        t = np.asarray(t, dtype=float)
        width = self.t_hi - self.t_lo
        u = (t - self.t_lo) / width
        s, s1, s2 = _smooth_step(u)
        e = np.exp(-t)
        f = e + s
        fp = -e + s1 / width
        fpp = e + s2 / width**2
        return f, fp, fpp


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


def condition_margins(warp, t: np.ndarray) -> np.ndarray:
    """Vectorized margins; returns an (n, 4) array of (a, b, c, d).

    Raises ValueError if f(t) <= 0 anywhere on the grid (margin d divides
    by f).
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("grid must be nonempty")
    f, fp, fpp = warp.eval(t)
    if np.any(f <= 0.0):
        bad = float(t[np.argmax(f <= 0.0)])
        raise ValueError(f"f(t) <= 0 at t={bad}; margin d is undefined there")
    a = f - 1.0
    b = -fp
    c = fpp
    d = 1.0 - f * fp - (1.0 + fp / f) ** 2
    return np.stack([a, b, c, d], axis=1)


def worst_margin(t: np.ndarray, margins: np.ndarray) -> tuple[float, str, float]:
    """(t, condition letter, margin) of the smallest margin on the grid t."""
    i, j = np.unravel_index(np.argmin(margins), margins.shape)
    return float(t[i]), "abcd"[j], float(margins[i, j])


def validation_grid(warp) -> np.ndarray:
    """[t_lo - 2, 1] at ``GRID_STEP``; t_lo = -6 without a finite window."""
    ends = regimes(warp)
    lo = ends[0] if ends is not None and np.isfinite(ends[0]) else -6.0
    return np.arange(lo - 2.0, 1.0 + GRID_STEP / 2, GRID_STEP)


def build_interpolation(t_lo: float, t_hi: float) -> Interpolated:
    """Construct a validated interpolation between e^(-t) and 1 + e^(-t).

    Starting from the window (t_lo, t_hi), checks all four margins on the
    validation grid [t_lo - 2, 1].  If any margin falls at or below
    ``_MARGIN_FLOOR``, or the window is narrower than ``_MIN_WINDOW_WIDTH``
    (too narrow for the grid to see inside it), the window is widened,
    t_lo <- t_hi - 2*(t_hi - t_lo), up to ``_MAX_WIDENINGS`` times.  Raises
    InterpolationError with the worst (t, condition, margin) if no window
    validates.
    """
    lo = float(t_lo)
    for _ in range(_MAX_WIDENINGS + 1):
        warp = Interpolated(lo, float(t_hi))
        grid = validation_grid(warp)
        t_w, cond, val = worst_margin(grid, condition_margins(warp, grid))
        if val > _MARGIN_FLOOR and t_hi - lo >= _MIN_WINDOW_WIDTH:
            return warp
        lo = t_hi - 2.0 * (t_hi - lo)
    raise InterpolationError(
        f"no valid transition window down to t_lo={lo}: worst margin "
        f"({cond}) = {val:.3e} at t = {t_w:.6f}"
    )


FAMILIES = {cls.family: cls for cls in (PureExp, ShiftedExp, Interpolated)}


def warp_from_name(name: str, t_lo: float, t_hi: float):
    """The warp of family ``name``; an interpolated one is validated."""
    if name not in FAMILIES:
        raise ValueError(f"unknown warp family: {name!r}")
    if name == Interpolated.family:
        return build_interpolation(t_lo, t_hi)
    return FAMILIES[name]()
