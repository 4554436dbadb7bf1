"""Warping-function families for the cusp metric.

A warp states ``eval(t)``, (f, f', f'') of t's shape for a float or an
array t; its ``family`` name; and where its closed forms hold:
f = e^(-t) for t <= ``t_lo`` and f = 1 + e^(-t) for t >= ``t_hi``, to the
bit, ends included (t_lo = -inf or t_hi = +inf: nowhere).  Three families:

* ``PureExp``     -- f(t) = e^(-t); t_lo = t_hi = +inf
* ``ShiftedExp``  -- f(t) = 1 + e^(-t); t_lo = t_hi = -inf
* ``Interpolated``-- equals PureExp for t <= t_lo and ShiftedExp for
  t >= t_hi, glued with a C-infinity bump-quotient step so that f, f', f''
  are smooth across both junctions.

A warp f is admissible for negative curvature when four pointwise margins
are all positive:

    a = f - 1,   b = -f',   c = f'',   d = 1 - f*f' - (1 + f'/f)^2

``Interpolated.eval`` computes e^-t on all of t and the step s only where
it moves: s = 0 for u <= 0 and s = 1 for u >= 1, and inside (0, 1) the
logistic in g = 1/u - 1/(1-u) runs only where |g| < _STEP_CLIP (beyond, s
is 0 or 1 to far below double precision).
Everywhere else f = e^-t + s, f' = 0.0 - e^-t and f'' = e^-t.  A window
whose W^2 overflows or underflows to 0 is refused: f'' divides by W^2.

``build_interpolation`` doubles the width W of a window t_lo < t_hi <= 0
until ``window_witness`` proves the four margins positive at every t:

* below t_lo: e^-t - 1, e^-t, e^-t and 1 + e^-2t; above t_hi: ShiftedExp's;
* inside, f = e^-t + s(u) with u = (t - t_lo)/W, so a = e^-t + s - 1 > 0,
  and d = x(f^2 + 2 - x) with x = b/f and b <= e^-t < f: d > 0 iff b > 0;
* b > 0 iff s' e^t < W, and |s''| e^t < W^2 gives both c > 0 and
  f'' < 2f, which the pinching needs (``certify``).  A table bounds both
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
    "condition_margins",
    "worst_margin",
    "validation_grid",
    "window_witness",
    "build_interpolation",
    "warp_from_name",
]

# exp(g) with |g| beyond this is numerically 0 or 1 in the step quotient
_STEP_CLIP = 500.0
# spacing of the grid of the warp CSV (build-warp --csv)
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
    t_lo: ClassVar[float] = np.inf
    t_hi: ClassVar[float] = np.inf

    def eval(self, t: float | np.ndarray) -> tuple:
        f = np.exp(-np.asarray(t, dtype=float))
        return f, 0.0 - f, f


@dataclass(frozen=True)
class ShiftedExp:
    """f(t) = 1 + e^(-t); satisfies the four margin conditions for all t."""

    family: ClassVar[str] = "shifted-exp"
    t_lo: ClassVar[float] = -np.inf
    t_hi: ClassVar[float] = -np.inf

    def eval(self, t: float | np.ndarray) -> tuple:
        e = np.exp(-np.asarray(t, dtype=float))
        return 1.0 + e, 0.0 - e, e


def _run(i: np.ndarray) -> slice | np.ndarray:
    """Indices i, as a slice when they are consecutive (a sorted t): views, not copies."""
    return slice(i[0], i[-1] + 1) if i.size and i[-1] - i[0] == i.size - 1 else i


def _step(u: np.ndarray) -> tuple[np.ndarray, slice | np.ndarray, tuple]:
    """On a flat u: where 0 < u < 1, the indices with s = 1, the indices j with
    |g| < _STEP_CLIP, and (s, s', s'') at j.

    s(u) = phi(u) / (phi(u) + phi(1-u)), phi(u) = exp(-1/u), is the logistic
    sigma = 1/(e + 1), e = exp(g), of g = ru - rv with ru = 1/u, rv = 1/(1-u),
    which keeps s, s', s'' finite.  With w = -dsigma/dg = sigma (sigma e),
    G = ru^2 + rv^2 = -g' and H = ru^3 - rv^3 = -g''/2:

        s' = w G,    s'' = w ((1 - 2 sigma) G^2 - 2 H).

    w is not sigma (1 - sigma), whose 1 - sigma cancels as sigma -> 1 (u -> 1),
    nor (sigma sigma) e, whose sigma^2 underflows to 0 for g above about 372.
    """
    i = ((u > 0.0) & (u < 1.0)).nonzero()[0]
    u = u[_run(i)]
    with np.errstate(over="ignore"):  # 1/u is inf below 1/(float max)
        ru, rv = 1.0 / u, 1.0 / (1.0 - u)
        g = ru - rv
    top, k = i[g <= -_STEP_CLIP], _run((np.abs(g) < _STEP_CLIP).nonzero()[0])
    # in place, in six buffers of k's size: ru, rv, w (g's), sig, G and s1; H is
    # ru's and s2 rv's
    ru, rv, w = ru[k], rv[k], g[k]
    np.exp(w, out=w)
    sig = w + 1.0
    np.divide(1.0, sig, out=sig)              # s = sigma
    w *= sig
    w *= sig                                  # w = sigma (sigma e)
    G, s1 = ru * ru, rv * rv
    ru *= G
    rv *= s1
    G += s1
    np.multiply(w, G, out=s1)                 # s' = w G
    H = np.subtract(ru, rv, out=ru)
    s2 = np.multiply(sig, 2.0, out=rv)
    np.subtract(1.0, s2, out=s2)
    G *= G
    s2 *= G
    H *= 2.0
    s2 -= H
    s2 *= w                                   # s'' = w ((1 - 2 sigma) G^2 - 2 H)
    return top, _run(i[k]), (sig, s1, s2)


def _proof_table() -> tuple[np.ndarray, np.ndarray]:
    """Cell right ends in u, and per cell bounds on s' and |s''|.

    Nodes u > 1/2 mirror u < 1/2, as s(1 - u) = 1 - s(u) makes |s'| and |s''|
    even about 1/2: the mirror halves the work.
    """
    n = _PROOF_CELLS
    s = np.zeros((2, n // 2 + 1))
    _, i, (_, s[0, i], s[1, i]) = _step(np.arange(n // 2 + 1) / n)  # 0 off i, as s', s'' are
    s = np.abs(np.concatenate([s, s[:, -2::-1]], axis=1))
    return np.arange(1, n + 1) / n, (np.maximum(s[:, :-1], s[:, 1:])
                                     + np.array([[_S2_BOUND], [_S3_BOUND]]) * (0.5 / n))


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
        if not 0.0 < width * width < np.inf:  # eval divides f'' by width^2
            raise ValueError(f"the window width {width} squared underflows or overflows")

    def eval(self, t: float | np.ndarray) -> tuple:
        t = np.asarray(t, dtype=float)
        width = self.t_hi - self.t_lo
        u = (t.ravel() - self.t_lo) / width
        e = np.exp(-t.ravel())
        top, i, (s, s1, s2) = _step(u)
        # the closed forms, then the step at i; fp takes u's buffer, f'' is e
        f = e + (u >= 1.0)
        f[top] += 1.0
        fp = np.subtract(0.0, e, out=u)
        ei = e[i]
        # ei + s, -ei + s1 / W and ei + s2 / W^2, in the step's buffers
        s += ei
        s1 /= width
        s1 -= ei
        s2 /= width**2
        s2 += ei
        f[i], fp[i], e[i] = s, s1, s2
        return f.reshape(t.shape)[()], fp.reshape(t.shape)[()], e.reshape(t.shape)[()]


def _write_margins(m: np.ndarray, f, fp, fpp) -> None:
    """Rows a = f - 1, b = -f', c = f'' and d = (1 - f f') - (1 + f'/f)^2 of m, d first."""
    np.subtract(1.0, np.multiply(f, fp, out=m[3, ...]), out=m[3, ...])
    m[3, ...] -= (1.0 + fp / f) ** 2
    np.subtract(f, 1.0, out=m[0, ...])
    np.negative(fp, out=m[1, ...])
    m[2, ...] = fpp


def condition_margins(warp, t: np.ndarray, values: tuple | None = None) -> np.ndarray:
    """Margins (a, b, c, d) at t, shape np.shape(t) + (4,); ``values``: warp.eval(t) if known.

    Without ``values``, a sorted 1-D t takes (f, f', f'') = (e, 0.0 - e, e),
    e = e^-t, below warp.t_lo, (1.0 + e, 0.0 - e, e) above warp.t_hi (eval's
    bits) and ``warp.eval`` from t_lo to t_hi; any other t ``warp.eval(t)``.

    Raises ValueError if f(t) <= 0 anywhere on the grid (margin d divides
    by f), or if f, f' or f'' is not finite there.  Margin d may then still
    overflow to +-inf, which keeps its sign.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("grid must be nonempty")
    m = np.empty((4,) + t.shape)  # one margin per row; m[k, ...] is a view, 0-d too
    with np.errstate(all="ignore"):  # an overflow is refused or keeps its sign
        lo, t_eval, m_eval, below = 0, t, m, ()  # below: (0, f) of the t below t_lo
        if values is None and t.ndim == 1 and (t[:-1] <= t[1:]).all():
            # the ends themselves go to eval: an infinite end holds nowhere
            lo, hi = np.searchsorted(t, warp.t_lo, "left"), np.searchsorted(t, warp.t_hi, "right")
            for part, one in ((np.s_[hi:], 1.0), (np.s_[:lo], 0.0)):  # f = 1 + e, 0 + e = e
                a, b, e = m[:3, part]  # f, f' and e = e^-t go in rows a, b, c: d is written first
                np.exp(np.negative(t[part], out=e), out=e)
                _write_margins(m[:, part], np.add(one, e, out=a), np.subtract(0.0, e, out=b), e)
            t_eval, m_eval, below = t[lo:hi], m[:, lo:hi], ((0, e),)
        values = warp.eval(t_eval) if values is None else values
        _write_margins(m_eval, *values)
        # a, b, c are finite exactly where f, f', f'' are.  A finite sum proves
        # them all finite; when it is not (a term is not, or the sum
        # overflows), the scan finds the first t to name, if any
        if not np.isfinite(np.sum(m[:3])):
            finite = np.isfinite(m[:3]).all(axis=0)
            if not finite.all():
                raise ValueError(f"f, f' or f'' is not finite at t={float(t.flat[np.argmin(finite)])}")
        for start, f in (*below, (lo, values[0])):  # above t_hi, f >= 1
            if np.min(f, initial=np.inf) <= 0.0:
                bad = float(t.flat[start + np.argmax(f <= 0.0)])
                raise ValueError(f"f(t) <= 0 at t={bad}; margin d is undefined there")
        return m.transpose(*range(1, m.ndim), 0)  # the moveaxis view: (a, b, c, d) last


def worst_margin(t: np.ndarray, margins: np.ndarray) -> tuple[float, str, float]:
    """(t, condition letter, margin) of the smallest margin on the grid t."""
    i, j = np.unravel_index(np.argmin(margins), margins.shape)
    return float(t[i]), "abcd"[j], float(margins[i, j])


def validation_grid(warp) -> np.ndarray:
    """The grid of the warp CSV (build-warp --csv) of an interpolated warp:
    [t_lo - 2, 1] at ``GRID_STEP``.  It reports margins and decides
    nothing: ``window_witness`` proves the window.

    Refused when it would start below -log(float max), where e^-t overflows.
    """
    lo = warp.t_lo - 2.0
    if lo < _T_OVERFLOW:
        raise ValueError(f"the report grid would start at t={lo}, below "
                         f"{_T_OVERFLOW:.2f}, where e^-t overflows")
    return np.arange(lo, 1.0 + GRID_STEP / 2, GRID_STEP)


def window_witness(warp) -> dict | None:
    """None when warp has no transition window or every cell's bound on
    s' e^t / W (margin b) and on |s''| e^t / W^2 (margin c, and f'' < 2f)
    is below 1 - ``_ROUNDING``; else the worst cell's right end t, its
    condition and that bound, ``ratio``.
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
    """The window (t_lo, t_hi), widened t_lo <- t_hi - 2 (t_hi - t_lo) until
    ``window_witness`` proves it admissible (any W >= 4 is); a W whose square
    underflows, which ``Interpolated`` refuses, is widened unbuilt."""
    t_lo, t_hi = float(t_lo), float(t_hi)
    while (0.0 < t_hi - t_lo and (t_hi - t_lo) * (t_hi - t_lo) == 0.0
           or window_witness(Interpolated(t_lo, t_hi)) is not None):
        t_lo = t_hi - 2.0 * (t_hi - t_lo)
    return Interpolated(t_lo, t_hi)


FAMILIES = {cls.family: cls for cls in (PureExp, ShiftedExp, Interpolated)}


def warp_from_name(name: str, t_lo: float, t_hi: float):
    """The warp of family ``name``; an interpolated one is validated."""
    if name not in FAMILIES:
        raise ValueError(f"unknown warp family: {name!r}")
    if name == Interpolated.family:
        return build_interpolation(t_lo, t_hi)
    return FAMILIES[name]()
