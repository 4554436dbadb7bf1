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
it moves: the logistic in g = 1/u - 1/(1-u) runs only where |g| <
_STEP_CLIP, one run of u, ``_STEP_RUN``, as g is nonincreasing in floats
too (each operation is correctly rounded and monotone); s = 0 below it and
1 above it, to far below double precision.  Everywhere else f = e^-t + s,
f' = 0.0 - e^-t and f'' = e^-t.  A window whose W^2 overflows or
underflows to 0 is refused: f'' divides by W^2.

``condition_margins`` writes an interpolated warp's margins on a sorted t
in place, in one (4, n) buffer.  ``searchsorted`` splits t at t_lo and
t_hi, then the window's u at the ends of ``_STEP_RUN``, which a bisection
in g finds once; only that run goes to ``_step``, writing f, f', f'' in rows
a, b, c.  Below it f = e^-t, so f'/f = -1 and d = 1 + e^-2t exactly; above
it f = 1 + e^-t.  There a and b are finite exactly where c = e^-t is, so
the finiteness check reads only row c there.

``build_interpolation`` doubles the width W of a window t_lo < t_hi <= 0
until ``window_witness`` proves the four margins positive at every t:

* below t_lo: e^-t - 1, e^-t, e^-t and 1 + e^-2t; above t_hi: ShiftedExp's;
* inside, f = e^-t + s(u) with u = (t - t_lo)/W, so a = e^-t + s - 1 > 0,
  and d = x(f^2 + 2 - x) with x = b/f and b <= e^-t < f: d > 0 iff b > 0;
* b > 0 iff s' e^t < W, and |s''| e^t < W^2 gives both c > 0 and
  f'' < 2f, which the pinching needs (``certify``).  As e^t <= e^t_hi
  and |s''| < M2 = ``_S2_BOUND``, one inequality decides:

      M2 e^t_hi / W^2 < 1 - R,   R = ``_ROUNDING``.

  Margin b follows: s' < M1 = 2.01, and M2 (1 - R) >= M1^2 e^t_hi for
  t_hi <= 0, so W > M1 e^t_hi / (1 - R) > s' e^t.  Any W >= 4 passes
  (M2 < 16 (1 - R)), so the search ends.  The tests prove each fact used.
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
# proved bound on sup |s''| (about 9.8444)
_S2_BOUND = 9.85
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


def _least_u(holds) -> float:
    """The least float u in (0, 1) with holds(g), g as ``_step`` forms it, for a
    test that holds from some u on: a bisection on the bits, which order floats."""
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        u = float(np.int64(mid).view(np.float64))
        lo, hi = (lo, mid) if holds(1.0 / u - 1.0 / (1.0 - u)) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


# |g| < _STEP_CLIP exactly on _STEP_RUN[0] <= u < _STEP_RUN[1]
_STEP_RUN = np.array([_least_u(lambda g: g < _STEP_CLIP), _least_u(lambda g: g <= -_STEP_CLIP)])


def _step(u: np.ndarray, et, width: float, s: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """f = s + et, f' = s'/W - et and f'' = s''/W^2 + et, W = width, at u on
    the step's run, into s, s1 and s2 (et = 0 and W = 1 give s, s' and
    s''); u's buffer is used up.

    s(u) = phi(u) / (phi(u) + phi(1-u)), phi(u) = exp(-1/u), is the logistic
    sigma = 1/(e + 1), e = exp(g), of g = ru - rv with ru = 1/u, rv = 1/(1-u),
    which keeps s, s', s'' finite.  With w = -dsigma/dg = sigma (sigma e),
    G = ru^2 + rv^2 = -g' and H = ru^3 - rv^3 = -g''/2:

        s' = w G,    s'' = w ((1 - 2 sigma) G^2 - 2 H).

    w is not sigma (1 - sigma), whose 1 - sigma cancels as sigma -> 1 (u -> 1),
    nor (sigma sigma) e, whose sigma^2 underflows to 0 for g above about 372.
    """
    # in place: w takes u's buffer, rv and then H s2's; ru and G are new
    ru = 1.0 / u
    rv = np.subtract(1.0, u, out=s2)
    np.divide(1.0, rv, out=rv)
    w = np.subtract(ru, rv, out=u)            # g
    np.exp(w, out=w)
    np.add(w, 1.0, out=s)
    np.divide(1.0, s, out=s)                  # s = sigma
    w *= s
    w *= s                                    # w = sigma (sigma e)
    G = ru * ru
    np.multiply(rv, rv, out=s1)
    ru *= G
    rv *= s1
    G += s1
    np.multiply(w, G, out=s1)                 # s' = w G
    H = np.subtract(ru, rv, out=ru)
    np.multiply(s, 2.0, out=s2)
    np.subtract(1.0, s2, out=s2)
    G *= G
    s2 *= G
    H *= 2.0
    s2 -= H
    s2 *= w                                   # s'' = w ((1 - 2 sigma) G^2 - 2 H)
    s += et
    s1 /= width
    s1 -= et
    s2 /= width**2
    s2 += et


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
        # the closed forms, s = 1 above the run, then the run i; fp takes u's buffer, f'' is e
        f = e + (u >= _STEP_RUN[1])
        i = _run(((u >= _STEP_RUN[0]) & (u < _STEP_RUN[1])).nonzero()[0])
        ui = u[i]
        s = np.empty((3, ui.size))
        _step(ui, e[i], width, *s)
        fp = np.subtract(0.0, e, out=u)
        f[i], fp[i], e[i] = s
        return f.reshape(t.shape)[()], fp.reshape(t.shape)[()], e.reshape(t.shape)[()]


def _write_margins(m: np.ndarray, f, fp, fpp=None) -> None:
    """Rows a = f - 1, b = -f', c = f'' and d = (1 - f f') - (1 + f'/f)^2 of
    m, d first, so f and f' may be rows a and b; without fpp, row c is f''."""
    d = np.subtract(1.0, np.multiply(f, fp, out=m[3, ...]), out=m[3, ...])
    x = fp / f
    x += 1.0
    x *= x
    d -= x
    np.subtract(f, 1.0, out=m[0, ...])
    np.negative(fp, out=m[1, ...])
    if fpp is not None:
        m[2, ...] = fpp


def condition_margins(warp, t: np.ndarray, values: tuple | None = None) -> np.ndarray:
    """Margins (a, b, c, d) at t, shape np.shape(t) + (4,); ``values``: warp.eval(t) if known.

    Without ``values``, a sorted 1-D t of an ``Interpolated`` warp takes
    eval's bits in place, regime by regime (the module docstring); any other
    t takes ``warp.eval(t)``.

    Raises ValueError if f(t) <= 0 anywhere on the grid (margin d divides
    by f), or if f, f' or f'' is not finite there.  Margin d may then still
    overflow to +-inf, which keeps its sign.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("grid must be nonempty")
    m = np.empty((4,) + t.shape)  # one margin per row; m[k, ...] is a view, 0-d too
    with np.errstate(all="ignore"):  # an overflow is refused or keeps its sign
        if (values is None and isinstance(warp, Interpolated)
                and t.ndim == 1 and (t[:-1] <= t[1:]).all()):
            # f >= 1 here (e >= 1 at t <= t_hi <= 0, and s >= 0): f <= 0 needs no check
            lo, hi = t.searchsorted(warp.t_lo, "left"), t.searchsorted(warp.t_hi, "right")
            width = warp.t_hi - warp.t_lo
            u = np.subtract(t[lo:hi], warp.t_lo, out=m[3, lo:hi])
            u /= width
            lo, hi = lo + u.searchsorted(_STEP_RUN)
            if hi > lo:
                e = np.negative(t[lo:hi])
                _step(m[3, lo:hi], np.exp(e, out=e), width, *m[:3, lo:hi])  # uses up u, in row d
            if lo:
                a, b, e, d = m[:, :lo]
                np.exp(np.negative(t[:lo], out=e), out=e)
                np.subtract(e, 1.0, out=a)
                np.copyto(b, e)  # -(0.0 - e), as e > 0
                np.add(1.0, np.multiply(e, e, out=d), out=d)
            if hi < t.size:
                a, b, e = m[:3, hi:]
                np.exp(np.negative(t[hi:], out=e), out=e)
                np.add(1.0, e, out=a)
                np.subtract(0.0, e, out=b)
            if lo < t.size:
                _write_margins(m[:, lo:], m[0, lo:], m[1, lo:])
            total = m[2].sum() + m[:2, lo:hi].sum()
        else:
            values = warp.eval(t) if values is None else values
            _write_margins(m, *values)
            total = m[:3].sum()
        # a, b, c are finite exactly where f, f', f'' are.  A finite sum proves
        # them all finite; when it is not (a term is not, or the sum
        # overflows), the scan finds the first t to name, if any
        if not np.isfinite(total):
            finite = np.isfinite(m[:3]).all(axis=0)
            if not finite.all():
                raise ValueError(f"f, f' or f'' is not finite at t={float(t.flat[np.argmin(finite)])}")
        if values is not None and np.min(values[0], initial=np.inf) <= 0.0:
            bad = float(t.flat[np.argmax(values[0] <= 0.0)])
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


def _window_ratio(t_lo: float, t_hi: float) -> float:
    """M2 e^t_hi / W^2, W = t_hi - t_lo: inf or NaN where W^2 underflows to 0."""
    width = t_hi - t_lo
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.float64(_S2_BOUND * np.exp(t_hi)) / (width * width))


def window_witness(warp) -> dict | None:
    """None when warp has no transition window or M2 e^t_hi / W^2, a bound
    on |s''| e^t / W^2 (margin c, and f'' < 2f) at every t inside, is below
    1 - ``_ROUNDING``; else t = t_hi, condition "c" and that bound,
    ``ratio``.  Margin b is its corollary (the module docstring)."""
    if not isinstance(warp, Interpolated):
        return None
    ratio = _window_ratio(warp.t_lo, warp.t_hi)
    if ratio < 1.0 - _ROUNDING:
        return None
    return {"t": float(warp.t_hi), "condition": "c", "ratio": ratio}


def build_interpolation(t_lo: float, t_hi: float) -> Interpolated:
    """The window (t_lo, t_hi), widened t_lo <- t_hi - 2 (t_hi - t_lo) until
    ``window_witness`` proves it admissible (any W >= 4 is); a W whose square
    underflows has no finite ratio and is widened too.  Arguments that are
    no window are left to ``Interpolated`` to refuse."""
    t_lo, t_hi = float(t_lo), float(t_hi)
    if -np.inf < t_lo < t_hi <= 0.0:
        while not _window_ratio(t_lo, t_hi) < 1.0 - _ROUNDING:
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
