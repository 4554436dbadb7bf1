"""The per-point curvature and certify kernels, as references for the stacks,
and the full-grid warp step and margins, as references for the windowed ones.

These are the bodies ``metric_at``, ``christoffel``,
``christoffel_derivatives``, ``riemann_closed``, ``riemann_fd`` and
``extremize_point`` had when they took one point at a time: scalar t and
z, 4x4 matrices, einsums without leading axes, one ``metric_at`` per
stencil point, and one ``eigvalsh`` per point of a frame form filled entry
by entry.  The stacked kernels must reproduce them exactly (==).

``smooth_step`` computes the transition step's formulas (s' = w G and
s'' = w ((1 - 2 sigma) G^2 - 2 H), from 1/u and 1/(1 - u)) on the whole
grid: two zero arrays, a boolean gather and scatter, one expression per
output.  ``interpolated_eval`` and ``condition_margins`` are the bodies
``Interpolated.eval`` and the margins had when the step was computed that
way and the margins were stacked as columns; ``Interpolated.eval`` and
``warp.condition_margins`` must reproduce their bytes.

The next section holds the dense bodies the diagonal kernels replaced: the
stacked einsum Christoffel, derivative and lowering code and the SVD
deviation of ``verify_isometry``.  The last holds the 48-step labelling scan of
``match_component_table`` and the per-value JSON and CSV encoders of
``serialize``.
"""

import json
import math
from itertools import permutations

import numpy as np

from solcusp import curvature
from solcusp.curvature import (
    _TABLE_LABELS,
    AXIS_NAMES,
    DIM,
    PAIR_NAMES,
    PAIRS,
    MatchReport,
    MetricPoint,
    RiemannTensor,
)

FD_STEP = 1e-4
STEP_CLIP = 500.0


def metric_at(warp, t: float, z: float) -> MetricPoint:
    t = float(t)
    z = float(z)
    f, fp, fpp = warp.eval(t)
    A = np.exp(-2.0 * t - 2.0 * z)
    B = np.exp(-2.0 * t + 2.0 * z)

    g = np.diag([A, B, f * f, 1.0])

    X, Y, Z, T = 0, 1, 2, 3
    dg = np.zeros((DIM, DIM, DIM))
    dg[Z, X, X] = -2.0 * A
    dg[Z, Y, Y] = 2.0 * B
    dg[T, X, X] = -2.0 * A
    dg[T, Y, Y] = -2.0 * B
    dg[T, Z, Z] = 2.0 * f * fp

    d2g = np.zeros((DIM, DIM, DIM, DIM))
    d2g[Z, Z, X, X] = 4.0 * A
    d2g[Z, Z, Y, Y] = 4.0 * B
    d2g[T, T, X, X] = 4.0 * A
    d2g[T, T, Y, Y] = 4.0 * B
    d2g[T, Z, X, X] = d2g[Z, T, X, X] = 4.0 * A
    d2g[T, Z, Y, Y] = d2g[Z, T, Y, Y] = -4.0 * B
    d2g[T, T, Z, Z] = 2.0 * (fp * fp + f * fpp)

    return MetricPoint(t=t, z=z, g=g, dg=dg, d2g=d2g)


def _first_kind(dg):
    return np.einsum("jmk->mjk", dg) + np.einsum("kmj->mjk", dg) - dg


def _g_inv(p):
    # the dense inverse metric, 1 / g_ii on the diagonal
    return np.diag(1.0 / np.diag(p.g))


def christoffel(p):
    return 0.5 * np.einsum("im,mjk->ijk", _g_inv(p), _first_kind(p.dg))


def christoffel_derivatives(p):
    T = _first_kind(p.dg)
    dT = np.einsum("ljmk->lmjk", p.d2g) + np.einsum("lkmj->lmjk", p.d2g) - p.d2g
    g_inv = _g_inv(p)
    dginv = -np.einsum("ia,lab,bm->lim", g_inv, p.dg, g_inv)
    return 0.5 * (
        np.einsum("lim,mjk->lijk", dginv, T)
        + np.einsum("im,lmjk->lijk", g_inv, dT)
    )


def _riemann_from_gamma(Gam, dGam, g):
    Rup = (
        np.einsum("kilj->ijkl", dGam)
        - np.einsum("likj->ijkl", dGam)
        + np.einsum("ikm,mlj->ijkl", Gam, Gam)
        - np.einsum("ilm,mkj->ijkl", Gam, Gam)
    )
    low = np.einsum("im,mjkl->ijkl", g, Rup)
    return RiemannTensor(full=low, g=g.copy())


def riemann_closed(p) -> RiemannTensor:
    return _riemann_from_gamma(christoffel(p), christoffel_derivatives(p), p.g)


def riemann_fd(warp, t: float, z: float) -> RiemannTensor:
    p = metric_at(warp, t, z)
    Gam = christoffel(p)

    def dgamma(step):
        d = np.zeros((DIM, DIM, DIM, DIM))
        d[2] = (
            christoffel(metric_at(warp, t, z + step))
            - christoffel(metric_at(warp, t, z - step))
        ) / (2.0 * step)
        d[3] = (
            christoffel(metric_at(warp, t + step, z))
            - christoffel(metric_at(warp, t - step, z))
        ) / (2.0 * step)
        return d

    dGam = (4.0 * dgamma(FD_STEP / 2.0) - dgamma(FD_STEP)) / 3.0
    return _riemann_from_gamma(Gam, dGam, p.g)


def frame_pair_matrix(R: RiemannTensor) -> np.ndarray:
    s = 1.0 / np.sqrt(np.diag(R.g))
    full = R.full * np.einsum("i,j,k,l->ijkl", s, s, s, s)
    Q = np.empty((6, 6))
    for a, (i, j) in enumerate(PAIRS):
        for b, (k, l) in enumerate(PAIRS):
            Q[a, b] = full[i, j, k, l]
    return Q


def extremize_point(p) -> tuple[float, float]:
    vals = np.linalg.eigvalsh(frame_pair_matrix(riemann_closed(p)))
    return float(vals[0]), float(vals[-1])


def smooth_step(u):
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        ru, rv = 1.0 / u, 1.0 / (1.0 - u)
        g = ru - rv
    inner = (u > 0.0) & (u < 1.0) & (np.abs(g) < STEP_CLIP)
    s = np.where((u >= 1.0) | ((u > 0.0) & (g <= -STEP_CLIP)), 1.0, 0.0)
    s1 = np.zeros_like(u)
    s2 = np.zeros_like(u)
    ri, vi, e = ru[inner], rv[inner], np.exp(g[inner])
    sig = 1.0 / (1.0 + e)
    w = sig * (sig * e)
    G = ri * ri + vi * vi
    H = ri * (ri * ri) - vi * (vi * vi)
    s[inner] = sig
    s1[inner] = w * G
    s2[inner] = w * ((1.0 - 2.0 * sig) * (G * G) - 2.0 * H)
    return s, s1, s2


def interpolated_eval(warp, t):
    t = np.asarray(t, dtype=float)
    width = warp.t_hi - warp.t_lo
    u = (t - warp.t_lo) / width
    s, s1, s2 = smooth_step(u)
    e = np.exp(-t)
    return e + s, -e + s1 / width, e + s2 / width**2


def condition_margins(eval_, t):
    """The margins as (n, 4) columns, from ``eval_(t)``; t is 1-D."""
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("grid must be nonempty")
    with np.errstate(all="ignore"):
        f, fp, fpp = eval_(t)
        finite = np.isfinite(f) & np.isfinite(fp) & np.isfinite(fpp)
        if not finite.all():
            raise ValueError(f"f, f' or f'' is not finite at t={float(t[np.argmin(finite)])}")
        if np.any(f <= 0.0):
            bad = float(t[np.argmax(f <= 0.0)])
            raise ValueError(f"f(t) <= 0 at t={bad}; margin d is undefined there")
        return np.stack([f - 1.0, -fp, fpp, 1.0 - f * fp - (1.0 + fp / f) ** 2], axis=1)


# ---------------------------------------------------------------------------
# the dense bodies the diagonal kernels replaced
# ---------------------------------------------------------------------------
#
# ``stacked_christoffel``, ``stacked_christoffel_derivatives`` and
# ``stacked_lowering`` contract against the full g, g^-1 and d(g^-1) by
# einsum; ``stacked_riemann_closed`` and ``stacked_riemann_fd`` run the two
# pipelines through them, and ``svd_isometry`` takes every pullback's
# spectral norm by SVD.  The kernels must reproduce their bytes wherever
# every tensor is finite.  ``stack_isometry`` is ``verify_isometry`` before
# its z-only path, whose finite values it must keep.  Both build g_Sol at
# every sample as one (n, 3, 3) stack, by ``sol_metric_3d`` below.

def _stacked_first_kind(dg):
    return np.einsum("...jmk->...mjk", dg) + np.einsum("...kmj->...mjk", dg) - dg


def _stacked_g_inv(p):
    g_inv = np.zeros(p.g.shape)
    diag = np.arange(DIM)
    g_inv[..., diag, diag] = 1.0 / np.diagonal(p.g, axis1=-2, axis2=-1)
    return g_inv


def stacked_christoffel(p):
    return 0.5 * np.einsum("...im,...mjk->...ijk", _stacked_g_inv(p),
                           _stacked_first_kind(p.dg))


def stacked_christoffel_derivatives(p):
    T = _stacked_first_kind(p.dg)
    dT = _stacked_first_kind(p.d2g)
    g_inv = _stacked_g_inv(p)
    dginv = -np.einsum("...ia,...lab,...bm->...lim", g_inv, p.dg, g_inv)
    return 0.5 * (
        np.einsum("...lim,...mjk->...lijk", dginv, T)
        + np.einsum("...im,...lmjk->...lijk", g_inv, dT)
    )


def stacked_lowering(Gam, dGam, g):
    Rup = (
        np.einsum("...kilj->...ijkl", dGam)
        - np.einsum("...likj->...ijkl", dGam)
        + np.einsum("...ikm,...mlj->...ijkl", Gam, Gam)
        - np.einsum("...ilm,...mkj->...ijkl", Gam, Gam)
    )
    low = np.einsum("...im,...mjkl->...ijkl", g, Rup)
    return RiemannTensor(full=low, g=g.copy())


def stacked_riemann_closed(p):
    return stacked_lowering(stacked_christoffel(p), stacked_christoffel_derivatives(p), p.g)


def stacked_riemann_fd(warp, t, z):
    from solcusp.curvature import _STENCIL, _metric
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(z, dtype=float))
    p = _metric(warp, t[..., None] + _STENCIL[:, 0], z[..., None] + _STENCIL[:, 1], False)
    Gam = stacked_christoffel(p)

    def dgamma(first, step):
        d = np.zeros(t.shape + (DIM,) * 4)
        for axis, row in ((2, first), (3, first + 2)):
            d[..., axis, :, :, :] = (
                Gam[..., row, :, :, :] - Gam[..., row + 1, :, :, :]
            ) / (2.0 * step)
        return d

    dGam = (4.0 * dgamma(5, FD_STEP / 2.0) - dgamma(1, FD_STEP)) / 3.0
    return stacked_lowering(Gam[..., 0, :, :, :], dGam, p.g[..., 0, :, :])


def sol_metric_3d(p):
    """g_Sol = diag(e^(-2z), e^(2z), 1) at each of the (n, 3) points."""
    z = np.asarray(p, dtype=float)[..., 2]
    g = np.zeros(z.shape + (3, 3))
    g[..., 0, 0] = np.exp(-2.0 * z)
    g[..., 1, 1] = np.exp(2.0 * z)
    g[..., 2, 2] = 1.0
    return g


def stack_isometry(m, samples):
    """``verify_isometry`` as it was before its z-only path: every map's
    pullbacks as one (n, 3, 3) stack, the largest |entry| where each
    difference is exactly diagonal and an SVD of each otherwise."""
    p = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    if p.size == 0:
        raise ValueError("samples must be nonempty")
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"samples must be points of R^3, got shape {p.shape}")
    J = np.diag(m.diagonal)
    mapped = np.matmul(J, p[:, :, None])[:, :, 0] + m.offset
    diff = J.T @ sol_metric_3d(mapped) @ J - sol_metric_3d(p)
    if not diff[:, ~np.eye(3, dtype=bool)].any():
        return float(np.max(np.abs(np.diagonal(diff, axis1=1, axis2=2))))
    return float(np.max(np.linalg.norm(diff, 2, axis=(1, 2))))


def svd_isometry(m, samples):
    p = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    J = np.diag(m.diagonal)
    mapped = np.matmul(J, p[:, :, None])[:, :, 0] + m.offset
    pulled = J.T @ sol_metric_3d(mapped) @ J
    dev = np.linalg.norm(pulled - sol_metric_3d(p), 2, axis=(1, 2))
    return float(np.max(dev))


# ---------------------------------------------------------------------------
# the 48-step labelling scan and the per-value report encoders
# ---------------------------------------------------------------------------
#
# ``labelling_loop_match`` is ``match_component_table`` as it was when each
# (assignment, sign) pair gathered its eight slots and reduced its scaled
# residuals over the points in a Python loop; the one-reduction scan must
# reproduce every field of its report bit for bit.  ``encode_json`` and
# ``encode_csv`` are the serializer bodies that built one ``json.dumps``
# encoder per string and formatted one CSV cell at a time;
# ``serialize.to_json_text`` and ``serialize.write_csv_text`` must
# reproduce their bytes for every input free of lone surrogates.

def _pair_slots(assign):
    rows, cols, sgns = [], [], []
    for labels in _TABLE_LABELS:
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
        rows.append(min(a, b))
        cols.append(max(a, b))
        sgns.append(sgn)
    return np.array(rows), np.array(cols), np.array(sgns)


def labelling_loop_match(warp, points):
    points = list(points)
    t, z = np.array(points, dtype=float).T
    with np.errstate(all="ignore"):
        R_fd = curvature.riemann_fd(warp, t, z)
        R_cl = curvature.riemann_closed(curvature.metric_at(warp, t, z))
        table = curvature.component_table(warp, t, z)
    expect = np.stack([table[labels] for labels in _TABLE_LABELS], axis=1)
    agreement = float(np.max(np.abs(R_fd.full - R_cl.full)))
    bianchi = R_fd.bianchi_residual()
    Q = R_fd.pair_matrix()
    scale = np.max(np.abs(expect), axis=1, keepdims=True)
    denom = np.maximum(np.maximum(np.abs(expect), scale), 1e-12)

    best = None
    for assign in permutations(range(DIM)):
        rows, cols, sgns = _pair_slots(assign)
        got = sgns * Q[:, rows, cols]
        for sign in (1, -1):
            per = np.max(np.abs(sign * got - expect) / denom, axis=0)
            score = np.max(per)
            if best is None or score < best[0]:
                best = (score, assign, sign, per, rows, cols)

    score, assign, sign, per, rows, cols = best
    unlisted = np.triu(np.ones((6, 6), dtype=bool))
    unlisted[rows, cols] = False
    extras = []
    for n, a, b in zip(*np.nonzero(unlisted & (np.abs(Q) > 1e-7))):
        extras.append({
            "pairs": (PAIR_NAMES[a], PAIR_NAMES[b]),
            "t": float(t[n]),
            "z": float(z[n]),
            "value": float(Q[n, a, b]),
        })
    return MatchReport(
        index_map={a + 1: AXIS_NAMES[assign[a]] for a in range(DIM)},
        sign=sign,
        max_residual=float(score),
        per_component={key: float(v) for key, v in zip(_TABLE_LABELS.values(), per)},
        extra_components=extras,
        pipeline_agreement=agreement,
        bianchi_residual=bianchi,
    )


def _format_float(x):
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _encode(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(obj))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for n, key in enumerate(sorted(obj, key=str)):
            if n:
                out.append(",")
            _encode(str(key), out)
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for n, item in enumerate(obj):
            if n:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def encode_json(obj):
    out = []
    _encode(obj, out)
    return "".join(out) + "\n"


def encode_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(_format_float(float(cell)).strip('"'))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
