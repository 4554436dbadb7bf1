"""The windowed transition step and the in-place margins, bit for bit.

``Interpolated.eval`` runs the logistic only where 0 < u < 1 and
|g| < ``_STEP_CLIP``, and ``condition_margins`` writes a, b, c and d into
one (4, ...) buffer.  The references in ``per_point_reference.py`` are the
bodies that computed the step on the whole grid and stacked the margins as
columns.  Every output must equal theirs by ``tobytes()``, with the same
type and shape, signed zeros and NaN included.  ``condition_margins`` of a
sorted t, which takes the closed forms outside the window, must equal the
margins of ``warp.eval(t)`` the same way.
"""

import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import per_point_reference as ref
from solcusp.warp import (
    _STEP_CLIP,
    _STEP_RUN,
    Interpolated,
    PureExp,
    ShiftedExp,
    build_interpolation,
    condition_margins,
)

# the narrowest window width whose square does not underflow to 0: it rounds
# to 2^-1074, the least positive float; Interpolated refuses a narrower one
W_MIN = 1.5717277847026288e-162


def same_bits(x, y) -> bool:
    return (type(x) is type(y) and np.shape(x) == np.shape(y)
            and np.asarray(x).tobytes() == np.asarray(y).tobytes())


def u_at_g(c: float) -> float:
    """The root in (0, 1) of g(u) = 1/u - 1/(1 - u) = c, for c != 0."""
    return ((c + 2.0) - np.sqrt((c + 2.0) ** 2 - 4.0 * c)) / (2.0 * c)


def neighbours(x: float, k: int = 3) -> list[float]:
    """x and the k floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


# widths down to W_MIN; a t_lo that rounds to t_hi, or a width whose square
# underflows after rounding, is dropped
narrow = st.tuples(
    st.sampled_from([0.0, -1e-300, -1e-12, -1.0, -3.0, -20.0]),
    st.floats(np.log10(W_MIN), 1.0).map(lambda x: max(10.0 ** x, W_MIN)),
).map(lambda w: (w[0] - w[1], w[0])).filter(
    lambda w: (w[1] - w[0]) * (w[1] - w[0]) > 0.0).map(lambda w: Interpolated(*w))
widened = st.tuples(
    st.floats(-20.0, 0.0),
    st.floats(-6.0, 1.0).map(lambda x: 10.0 ** x),
).filter(lambda w: w[0] - w[1] < w[0]).map(lambda w: build_interpolation(w[0] - w[1], w[0]))


def grid_for(warp, rng) -> np.ndarray:
    """Shuffled t: the window's ends and their neighbours, the points where
    |g| is near _STEP_CLIP, random points around the window, and t >= 745,
    where e^-t underflows to 0."""
    lo, hi = warp.t_lo, warp.t_hi
    width = hi - lo
    t = neighbours(lo) + neighbours(hi) + [745.0, 746.0, 800.0, 1e4]
    for c in (_STEP_CLIP, -_STEP_CLIP, 0.999 * _STEP_CLIP, -1.001 * _STEP_CLIP):
        t += neighbours(lo + u_at_g(c) * width, 2)
    t += list(lo + width * rng.uniform(-0.5, 1.5, 40)) + list(rng.uniform(lo - 2.0, 1.0, 20))
    return rng.permutation(np.array(t))


@settings(max_examples=150, deadline=None)
@given(warp=st.one_of(narrow, widened), seed=st.integers(0, 2**32 - 1))
@example(warp=Interpolated(-W_MIN, 0.0), seed=0)  # W^2 is the least positive float
@example(warp=Interpolated(-4.0, -1.0), seed=1)
def test_eval_and_margins_keep_the_full_grid_bits(warp, seed):
    t = grid_for(warp, np.random.default_rng(seed))
    # sorted, the step's indices are runs, taken as slices; one t beyond the
    # window in the middle of a run splits it
    run = np.sort(t)
    split = np.insert(run, np.searchsorted(run, (warp.t_lo + warp.t_hi) / 2), 1e4)
    with np.errstate(all="ignore"):  # a narrow window may make NaN or inf in both
        for arg in (t, run, run[::-3], split, t[:24].reshape(4, 6).T, float(t[0])):
            got, want = warp.eval(arg), ref.interpolated_eval(warp, arg)
            assert all(same_bits(x, y) for x, y in zip(got, want)), arg
            if isinstance(arg, float):
                assert all(type(x) is np.float64 for x in got)
    for arg in (t, np.sort(t)):
        try:
            want = ref.condition_margins(lambda s: ref.interpolated_eval(warp, s), arg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                condition_margins(warp, arg)
        else:
            got = condition_margins(warp, arg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_reference_margins(warp, t):
    want = ref.condition_margins(lambda s: ref.interpolated_eval(warp, s), t)
    got = condition_margins(warp, t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(t_hi=st.floats(-1.5, -0.3), width=st.floats(0.2, 3.0), h=st.sampled_from([1e-4, 1e-3, 0.37]))
@example(t_hi=-1.0, width=3.0, h=1e-4)
def test_layer_scan_grids_keep_the_reference_bits(t_hi, width, h):
    # the margin grid of layer-scan: a built window and [t_lo - 2, 1] at h,
    # written in place by regime; then with t_lo and t_hi on the grid, a t
    # below t_hi whose u rounds to 1.0, and t across g = +-_STEP_CLIP
    w = build_interpolation(t_hi - width, t_hi)
    lo, hi, width = w.t_lo, w.t_hi, w.t_hi - w.t_lo
    t = np.arange(lo - 2.0, 1.0 + h / 2, h)
    assert_reference_margins(w, t)
    rounds_to_1 = [x for x in neighbours(hi, 8) if x < hi and (x - lo) / width == 1.0]
    extra = [lo, hi] + rounds_to_1[:1]
    for c in (_STEP_CLIP, -_STEP_CLIP):
        extra += neighbours(lo + u_at_g(c) * width, 3)
    assert_reference_margins(w, np.union1d(t, extra))


def test_windows_of_few_points_keep_the_reference_bits():
    # the window's slice holds 0, 1 or 2 t: each regime may be empty
    w = build_interpolation(-3.3, -0.3)
    lo, hi, width = w.t_lo, w.t_hi, w.t_hi - w.t_lo
    rounds_to_1 = [x for x in neighbours(hi, 8) if x < hi and (x - lo) / width == 1.0]
    assert rounds_to_1  # so that case is on a grid below
    inside = [lo, hi, lo + 1e-9 * width, lo + 0.5 * width, lo + u_at_g(-_STEP_CLIP) * width,
              rounds_to_1[0]]
    for n in (0, 1, 2):
        for picked in {tuple(sorted(inside[i:i + n])) for i in range(len(inside))}:
            for outside in ([], [lo - 1.0], [hi + 0.5], [lo - 1.0, hi + 0.5]):
                t = np.sort(np.array(outside + list(picked)))
                if t.size:
                    assert_reference_margins(w, t)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(float, st.integers(1, 60), elements=st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(neighbours(float(_STEP_RUN[0])) + neighbours(float(_STEP_RUN[1]))))))
def test_g_is_nonincreasing_and_below_the_clip_on_one_run(u):
    # g = 1/u - 1/(1 - u), formed as the step forms it: each operation is
    # correctly rounded and monotone, so g is nonincreasing on a sorted u in
    # [0, 1], and |g| < _STEP_CLIP on one run, found by searchsorted at the
    # ends that the bisection of g gives
    u = np.sort(u)
    with np.errstate(divide="ignore", over="ignore"):  # at u = 0 or 1, and 1/u past float max
        ru, rv = 1.0 / u, 1.0 / (1.0 - u)
    g = ru - rv
    assert np.all(g[:-1] >= g[1:])
    assert g.tobytes() == np.array([1.0 / x - 1.0 / (1.0 - x) if 0.0 < x < 1.0 else y
                                    for x, y in zip(u.tolist(), g.tolist())]).tobytes()
    start, stop = np.searchsorted(u, _STEP_RUN)
    assert np.array_equal(np.abs(g) < _STEP_CLIP, (np.arange(u.size) >= start)
                          & (np.arange(u.size) < stop))


def test_margins_have_the_shape_of_t_then_four():
    # 0-d once raised numpy's AxisError and a (3, 5) grid came back (3, 4, 5)
    w = build_interpolation(-4.0, -1.0)
    t2 = np.linspace(-6.0, 1.0, 15).reshape(3, 5)
    for t in (t2, t2[1], t2[1, 2], float(t2[2, 4])):
        m = condition_margins(w, t)
        assert m.shape == np.shape(t) + (4,)
        for idx in np.ndindex(np.shape(t)):
            one = condition_margins(w, [np.asarray(t)[idx]])
            assert m[idx].tobytes() == one[0].tobytes()


def test_a_window_whose_square_underflows_is_refused_and_widened_unbuilt():
    # such a window's eval once made f'' = e + 0/W^2 NaN at every t, in its
    # closed regimes too, and warned outside any errstate
    assert W_MIN * W_MIN > 0.0 and np.nextafter(W_MIN, 0.0) ** 2 == 0.0
    assert Interpolated(-W_MIN, 0.0).eval(1.0)[2] == np.exp(-1.0)
    for width in (float(np.nextafter(W_MIN, 0.0)), 1e-165, 1e-170, 5e-324):
        with pytest.raises(ValueError, match=f"^the window width {re.escape(str(width))} "
                                             "squared underflows or overflows$"):
            Interpolated(-width, 0.0)
    # the doublings from such a width are the ones the proof took before
    assert build_interpolation(-1e-170, 0.0) == Interpolated(-4.830671903771573, 0.0)


@dataclass(frozen=True)
class Everywhere:
    """A window everywhere: ``eval`` of ``inner``, stating no closed form."""

    inner: Interpolated
    t_lo: ClassVar[float] = -np.inf
    t_hi: ClassVar[float] = np.inf

    def eval(self, t):
        return self.inner.eval(t)


def margins_or_message(warp, t, values=None):
    try:
        return condition_margins(warp, t, values).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(warp=st.one_of(st.sampled_from([PureExp(), ShiftedExp()]), narrow, widened,
                      st.one_of(narrow, widened).map(Everywhere)),
       extras=st.sets(st.sampled_from([745.2, 800.0, -709.8, "infinite ends"])),
       seed=st.integers(0, 2**32 - 1))
@example(warp=ShiftedExp(), extras={745.2, 800.0}, seed=0)  # f' = 0.0 - 0.0 = +0.0
@example(warp=PureExp(), extras={"infinite ends"}, seed=1)  # f(+inf) = 0 is refused
@example(warp=Interpolated(-W_MIN, 0.0), extras={745.2}, seed=2)
def test_margins_by_regime_are_the_margins_of_eval(warp, extras, seed):
    # a sorted t takes e^-t's closed forms below t_lo and above t_hi and
    # eval between; it must give eval's margins to the bit, or the same
    # refusal naming the same t.  Grid: the finite ends and 3 floats on
    # either side, points in and around the window, and some of t = 745.2
    # and 800 (e = 0), -709.8 (e = inf) and the infinite ends (PureExp's f
    # is 0 at t = +inf, which must not take ShiftedExp's 1).  A shuffled t
    # goes through eval whole and permutes the rows
    rng = np.random.default_rng(seed)
    t = [x for end in (warp.t_lo, warp.t_hi) if np.isfinite(end) for x in neighbours(end)]
    if "infinite ends" in extras:
        t += [end for end in (warp.t_lo, warp.t_hi) if not np.isfinite(end)]
    t += [x for x in extras if x != "infinite ends"] + list(rng.uniform(-30.0, 30.0, 20))
    inner = getattr(warp, "inner", warp)
    if np.isfinite(inner.t_lo):
        width = inner.t_hi - inner.t_lo
        t += list(inner.t_lo + width * rng.uniform(-0.5, 1.5, 40))
    t = np.sort(np.array(t + t[:2]))  # a repeated t too
    shuffled = rng.permutation(t.size)
    with np.errstate(all="ignore"):  # e^-t overflows below -709.79, in both
        for grid in (t, t[shuffled]):
            assert margins_or_message(warp, grid) == margins_or_message(warp, grid, warp.eval(grid))
    by_regime = margins_or_message(warp, t)
    if isinstance(by_regime, bytes):
        got = condition_margins(warp, t[shuffled])
        assert got.tobytes() == condition_margins(warp, t)[shuffled].tobytes()
