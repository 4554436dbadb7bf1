"""The array kernels against the per-point loops they replaced.

``match_component_table`` scores all 48 (labelling, sign) pairs in one
reduction, from one stacked call of each Riemann pipeline, and
``verify_isometry`` checks every sample in one batch.  The references
below are the loops those kernels were first written as: one point and one
labelling at a time, on the per-point pipelines of
``per_point_reference.py``, and one sample and one 3x3 SVD at a time.
The kernels must reproduce them exactly (==), not merely to a tolerance.
The scan must also reproduce, bit for bit, the 48-step loop over
(labelling, sign) pairs on the stacked pipelines that it replaced.
"""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_point_reference as ref
from solcusp import curvature
from solcusp.curvature import (
    AXIS_NAMES,
    DIM,
    PAIRS,
    component_table,
    match_component_table,
)
from solcusp.lattice import (
    AffineMap3,
    AnosovMatrix,
    build_sol_lattice,
    default_samples,
    verify_isometry,
)
from solcusp.warp import Interpolated, PureExp, ShiftedExp, build_interpolation

TABLE_LABELS = {
    (0, 1, 0, 1): "R_1212",
    (0, 2, 0, 2): "R_1313",
    (0, 3, 0, 3): "R_1414",
    (1, 2, 1, 2): "R_2323",
    (1, 3, 1, 3): "R_2424",
    (2, 3, 2, 3): "R_3434",
    (0, 3, 2, 0): "R_1431",
    (1, 3, 2, 1): "R_2432",
}


# ---------------------------------------------------------------------------
# reference: the per-point 48-way labelling scan
# ---------------------------------------------------------------------------

def loop_pair_matrix(full):
    Q = np.empty((6, 6))
    for a, (i, j) in enumerate(PAIRS):
        for b, (k, l) in enumerate(PAIRS):
            Q[a, b] = full[i, j, k, l]
    return Q


def loop_slots(assign):
    slots = {}
    for labels in TABLE_LABELS:
        i, j, k, l = (assign[a] for a in labels)
        sgn = 1.0
        if i > j:
            i, j = j, i
            sgn = -sgn
        if k > l:
            k, l = l, k
            sgn = -sgn
        a = PAIRS.index((i, j))
        b = PAIRS.index((k, l))
        slots[labels] = (min(a, b), max(a, b), sgn)
    return slots


def reference_match(warp, points, riemann_fd=ref.riemann_fd):
    """The labelling scan with every table and pair matrix rebuilt per pair."""
    points = list(points)
    computed = []
    agreement = 0.0
    bianchi = 0.0
    for (t, z) in points:
        R_fd = riemann_fd(warp, t, z)
        R_cl = ref.riemann_closed(ref.metric_at(warp, t, z))
        agreement = max(agreement, float(np.max(np.abs(R_fd.full - R_cl.full))))
        bianchi = max(bianchi, R_fd.bianchi_residual())
        computed.append((t, z, R_fd))

    best = None
    scores = {}
    for assign in permutations(range(DIM)):
        slots = loop_slots(assign)
        for sign in (1, -1):
            per = {lab: 0.0 for lab in TABLE_LABELS.values()}
            for (t, z, R) in computed:
                Q = sign * loop_pair_matrix(R.full)
                table = component_table(warp, t, z)
                scale = max(abs(v) for v in table.values())
                for labels, expect in table.items():
                    a, b, sgn = slots[labels]
                    got = sgn * Q[a, b]
                    res = abs(got - expect) / max(abs(expect), scale, 1e-12)
                    key = TABLE_LABELS[labels]
                    per[key] = max(per[key], res)
            score = max(per.values())
            name = "".join(AXIS_NAMES[assign[a]] for a in range(DIM)) + ("+" if sign > 0 else "-")
            scores[name] = score
            if best is None or score < best[0]:
                best = (score, assign, sign, per)

    score, assign, sign, per = best
    listed = {(a, b) for (a, b, _) in loop_slots(assign).values()}
    extras = []
    for (t, z, R) in computed:
        Q = loop_pair_matrix(R.full)
        for a in range(6):
            for b in range(a, 6):
                if (a, b) not in listed and abs(Q[a, b]) > 1e-7:
                    pa, pb = PAIRS[a], PAIRS[b]
                    extras.append({
                        "pairs": (AXIS_NAMES[pa[0]] + AXIS_NAMES[pa[1]],
                                  AXIS_NAMES[pb[0]] + AXIS_NAMES[pb[1]]),
                        "t": float(t), "z": float(z), "value": float(Q[a, b]),
                    })
    return {
        "index_map": {a + 1: AXIS_NAMES[assign[a]] for a in range(DIM)},
        "sign": sign,
        "max_residual": float(score),
        "per_component": {k: float(v) for k, v in per.items()},
        "extra_components": extras,
        "pipeline_agreement": float(agreement),
        "bianchi_residual": float(bianchi),
        "all_assignments": scores,
    }


def assert_same_report(rep, ref):
    assert rep.index_map == ref["index_map"]
    assert rep.sign == ref["sign"]
    assert rep.max_residual == ref["max_residual"]
    assert rep.per_component == ref["per_component"]
    assert list(rep.per_component) == list(ref["per_component"])
    assert rep.extra_components == ref["extra_components"]
    assert rep.pipeline_agreement == ref["pipeline_agreement"]
    assert rep.bianchi_residual == ref["bianchi_residual"]


FAMILIES = [PureExp(), ShiftedExp(), Interpolated(-4.0, -1.0)]
GRID_Z = [(t, z) for t in np.linspace(-3.0, 3.0, 5) for z in (-0.9, -0.35, 0.2, 0.75)]


@pytest.mark.parametrize("warp", FAMILIES, ids=lambda w: w.family)
def test_scan_equals_per_point_loop_on_grid(warp):
    assert_same_report(match_component_table(warp, GRID_Z), reference_match(warp, GRID_Z))


def test_scan_equals_per_point_loop_with_extra_components(monkeypatch):
    # seeded noise in every slot, so unlisted slots carry signal and the
    # extras list is long enough to check its (point, slot) order; the
    # stacked seam and the per-point reference draw the same noise, one
    # (4, 4, 4, 4) block per point in point order
    rng = np.random.default_rng(7)
    exact = curvature.riemann_fd

    def noise(shape):
        return np.array([1e-6 * rng.standard_normal((4,) * 4)
                         for _ in np.ndindex(shape)]).reshape(shape + (4,) * 4)

    def noisy(warp, t, z):
        R = exact(warp, t, z)
        return curvature.RiemannTensor(full=R.full + noise(R.full.shape[:-4]),
                                       g=np.array(R.g))

    def noisy_reference(warp, t, z):
        R = ref.riemann_fd(warp, t, z)
        return curvature.RiemannTensor(full=R.full + noise(()), g=np.array(R.g))

    monkeypatch.setattr(curvature, "riemann_fd", noisy)
    points = [(-1.0, 0.5), (0.0, -0.25), (1.5, 0.8)]
    warp = ShiftedExp()
    state = rng.bit_generator.state
    rep = match_component_table(warp, points)
    rng.bit_generator.state = state
    ref_rep = reference_match(warp, points, riemann_fd=noisy_reference)
    assert len(rep.extra_components) > 30
    assert_same_report(rep, ref_rep)


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["pure-exp", "shifted-exp", "interpolated"]),
    t_hi=st.floats(min_value=-1.5, max_value=-0.1),
    width=st.floats(min_value=0.5, max_value=4.0),
    points=st.lists(
        st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                  st.floats(min_value=-1.0, max_value=1.0)),
        min_size=1, max_size=40),
)
def test_scan_equals_per_point_loop_property(family, t_hi, width, points):
    warp = {"pure-exp": PureExp, "shifted-exp": ShiftedExp}.get(family)
    warp = warp() if warp else build_interpolation(t_hi - width, t_hi)
    assert_same_report(match_component_table(warp, points), reference_match(warp, points))


# ---------------------------------------------------------------------------
# reference: the 48-step (labelling, sign) loop on the stacked pipelines
# ---------------------------------------------------------------------------

def assert_same_bits(rep, want):
    assert rep == want
    assert repr(rep) == repr(want)     # repr tells -0.0 from 0.0, and each double apart
    assert list(rep.per_component) == list(want.per_component)


@pytest.mark.parametrize("warp", FAMILIES, ids=lambda w: w.family)
def test_scan_equals_the_labelling_loop_where_labellings_tie(warp):
    # verify-riemann --t-grid 0:0:1 --z-grid 0:0:1: at z = 0 several pairs
    # score alike; for pure-exp the best two (xyzt+ and yxzt+) tie, and the
    # first in scan order must win
    scores = list(reference_match(warp, [(0.0, 0.0)])["all_assignments"].values())
    assert len(set(scores)) < len(scores)
    if warp.family == "pure-exp":
        assert scores.count(min(scores)) == 2
    assert_same_bits(match_component_table(warp, [(0.0, 0.0)]),
                     ref.labelling_loop_match(warp, [(0.0, 0.0)]))


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["pure-exp", "shifted-exp", "interpolated"]),
    t_hi=st.floats(min_value=-1.5, max_value=-0.1),
    width=st.floats(min_value=0.5, max_value=4.0),
    points=st.lists(
        st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                  st.floats(min_value=-1.0, max_value=1.0)),
        min_size=1, max_size=30),
    flat=st.booleans(),
)
def test_scan_equals_the_labelling_loop(family, t_hi, width, points, flat):
    # with flat, every z is 0, where labellings tie
    warp = {"pure-exp": PureExp, "shifted-exp": ShiftedExp}.get(family)
    warp = warp() if warp else build_interpolation(t_hi - width, t_hi)
    if flat:
        points = [(t, 0.0) for t, _ in points]
    assert_same_bits(match_component_table(warp, points), ref.labelling_loop_match(warp, points))


# ---------------------------------------------------------------------------
# reference: one pullback and one 3x3 SVD per sample
# ---------------------------------------------------------------------------

def point_metric(p):
    z = float(np.asarray(p, dtype=float)[2])
    return np.diag([np.exp(-2.0 * z), np.exp(2.0 * z), 1.0])


def reference_isometry(m, samples):
    J = np.diag(m.diagonal)
    worst = 0.0
    for p in samples:
        mapped = J @ np.asarray(p, dtype=float) + m.offset
        pulled = J.T @ point_metric(mapped) @ J
        worst = max(worst, float(np.linalg.norm(pulled - point_metric(p), 2)))
    return worst


MATRICES = [(2, 1, 1, 1), (-2, -1, -1, -1), (3, 2, 1, 1), (1, 1, 1, 2), (5, 7, 2, 3),
            (-13, 8, 8, -5)]


@pytest.mark.parametrize("entries", MATRICES)
def test_pullback_equals_per_sample_loop_on_deck_maps(entries):
    gens = build_sol_lattice(AnosovMatrix(*entries)).generators
    # each product g1 after g2 as one affine map
    maps = gens + [AffineMap3(g1.diagonal * g2.diagonal, g1.diagonal * g2.offset + g1.offset)
                   for g1 in gens for g2 in gens]
    samples = default_samples()
    for m in maps:
        assert verify_isometry(m, samples) == reference_isometry(m, samples)


def _rotation(axis, angle):
    c, s = np.cos(angle), np.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    r = np.eye(3)
    r[i, i] = r[j, j] = c
    r[i, j], r[j, i] = -s, s
    return r


NON_DIAGONAL = (
    [np.eye(3) + s * np.eye(3, k=1) for s in (0.5, -2.0)]          # shears
    + [np.eye(3) + 0.7 * np.eye(3, k=-2), np.eye(3) - 1.3 * np.eye(3, k=-1)]
    + [_rotation(axis, angle) for axis in range(3) for angle in (0.3, 2.0)]
)


@pytest.mark.parametrize("linear", NON_DIAGONAL)
def test_affine_map_refuses_a_linear_part_off_the_diagonal(linear):
    # no deck map of g_Sol shears or rotates, and none of these is an
    # isometry: the map stores a diagonal, which a 3x3 matrix is not
    with pytest.raises(ValueError):
        AffineMap3(linear, np.array([0.3, -0.2, 0.5]))


def test_pullback_sample_containers_agree():
    m = AffineMap3(np.array([1.5, -0.5, 2.0]), np.array([0.2, -0.1, 0.3]))
    points = [np.array(q, dtype=float) for q in product((-1.0, 0.5), repeat=3)]
    ref = reference_isometry(m, points)
    assert ref > 0.1           # not an isometry, so the deviation is no rounding noise
    assert verify_isometry(m, points) == ref                     # list of arrays
    assert verify_isometry(m, np.array(points)) == ref           # (n, 3) array
    assert verify_isometry(m, (tuple(q) for q in points)) == ref  # iterable of tuples
    assert verify_isometry(m, points[3:4]) == reference_isometry(m, points[3:4])


@pytest.mark.parametrize("empty", [np.empty((0, 3)), iter(())], ids=["array", "iterator"])
def test_pullback_rejects_empty_samples(empty):
    with pytest.raises(ValueError, match="nonempty"):
        verify_isometry(AffineMap3(np.ones(3), np.zeros(3)), empty)


def test_pullback_rejects_points_outside_r3():
    with pytest.raises(ValueError, match="R\\^3"):
        verify_isometry(AffineMap3(np.ones(3), np.zeros(3)), [np.zeros(2)])
