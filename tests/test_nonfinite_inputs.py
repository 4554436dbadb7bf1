"""NaN and +-inf in any numeric argument of the library's entry points.

Each of ``certify``, ``cusp_volume``, ``match_component_table`` and
``build_interpolation`` must refuse a non-finite argument with ValueError,
before any work and without a warning, rather than return a report built
on it (a "nan" volume, "nan" residuals) or fail later with another error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solcusp.certify import certify
from solcusp.curvature import match_component_table
from solcusp.volume import cusp_volume
from solcusp.warp import Interpolated, ShiftedExp, build_interpolation

NON_FINITE = (np.nan, np.inf, -np.inf)

# valid values for each numeric argument, in call order
ARGUMENTS = {
    # t_min, t_max, t_step
    "certify": (st.floats(-6.0, -1.0), st.floats(0.0, 4.0), st.floats(0.05, 1.0)),
    # vol_c, t0, tol
    "cusp_volume": (st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.floats(1e-8, 1e-4)),
    # t, z of one point among finite ones
    "match_component_table": (st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
    # t_lo, t_hi
    "build_interpolation": (st.floats(-5.5, -1.6), st.floats(-1.5, -0.1)),
}

CALLS = {
    "certify": lambda a: certify(ShiftedExp(), (a[0], a[1]), a[2]),
    "cusp_volume": lambda a: cusp_volume(Interpolated(-4.0, -1.0), *a),
    "match_component_table": lambda a: match_component_table(
        ShiftedExp(), [(0.0, 0.0), tuple(a), (1.0, 0.5)]),
    "build_interpolation": lambda a: build_interpolation(*a),
}


@st.composite
def poisoned_calls(draw):
    """(entry point, its arguments with one replaced by NaN or +-inf)."""
    name = draw(st.sampled_from(sorted(ARGUMENTS)))
    args = [draw(arg) for arg in ARGUMENTS[name]]
    args[draw(st.integers(0, len(args) - 1))] = draw(st.sampled_from(NON_FINITE))
    return name, args


@settings(max_examples=300, deadline=None)
@given(call=poisoned_calls())
def test_every_non_finite_argument_is_a_value_error(call):
    name, args = call
    with pytest.raises(ValueError):
        CALLS[name](args)
