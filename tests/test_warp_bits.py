"""The windowed transition step and the in-place margins, bit for bit.

``Interpolated.eval`` runs the logistic only where 0 < u < 1 and
|g| < ``_STEP_CLIP``, and ``condition_margins`` writes a, b, c and d into
one (4, ...) buffer.  The references in ``per_point_reference.py`` are the
bodies that computed the step on the whole grid and stacked the margins as
columns.  Every output must equal theirs by ``tobytes()``, with the same
type and shape, signed zeros and NaN included.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_point_reference as ref
from solcusp.warp import (
    _STEP_CLIP,
    Interpolated,
    build_interpolation,
    condition_margins,
)


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


# widths down to 1e-170, where W^2 underflows to 0 and f'' is NaN
narrow = st.tuples(
    st.sampled_from([0.0, -1e-300, -1e-12, -1.0, -3.0, -20.0]),
    st.floats(-170.0, 1.0).map(lambda x: 10.0 ** x),
).filter(lambda w: w[0] - w[1] < w[0]).map(lambda w: Interpolated(w[0] - w[1], w[0]))
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
@example(warp=Interpolated(-1e-165, 0.0), seed=0)  # W^2 underflows: f'' is NaN
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


def test_the_proof_table_is_built_from_the_same_step():
    # the table's nodes run through the full-grid step of the reference too
    from solcusp import warp

    n = warp._PROOF_CELLS
    _, s1, s2 = ref.smooth_step(np.arange(n // 2 + 1) / n)
    s1, neg_s2 = np.concatenate([s1, s1[-2::-1]]), np.concatenate([-s2, s2[-2::-1]])
    bounds = np.stack([
        np.maximum(s1[:-1], s1[1:]) + warp._S2_BOUND * 0.5 / n,
        np.maximum(np.maximum(neg_s2[:-1], neg_s2[1:]), 0.0) + warp._S3_BOUND * 0.5 / n])
    assert warp._CELL_BOUNDS.tobytes() == bounds.tobytes()


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
