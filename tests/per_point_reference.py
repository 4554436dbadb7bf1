"""The per-point curvature and certify kernels, as references for the stacks,
and the full-grid warp step and margins, as references for the windowed ones.

These are the bodies ``metric_at``, ``christoffel``,
``christoffel_derivatives``, ``riemann_closed``, ``riemann_fd``,
``extremize_point`` and ``rescale_to_pinching`` had when they took one
point at a time: scalar t and z, 4x4 matrices, einsums without leading
axes, one ``metric_at`` per stencil point, one eigh, SVD and witness K per
point from fresh 1-D arrays, and a loop over a list of per-point bounds
for the pinched suffix.  The stacked kernels must reproduce them exactly
(==).

``smooth_step``, ``interpolated_eval`` and ``condition_margins`` are the
bodies the transition step and the margins had when the step was computed
on the whole grid (two zero arrays, a boolean gather and scatter) and the
margins were stacked as columns; ``Interpolated.eval`` and
``warp.condition_margins`` must reproduce their bytes.

The last section holds the dense bodies the diagonal kernels replaced: the
stacked einsum Christoffel, derivative and lowering code, the SVD
deviation of ``verify_isometry`` and the one-panel-per-call
``adaptive_quad``.
"""

import numpy as np

from solcusp.certify import _FLOOR, CurvatureBounds, WitnessPlane
from solcusp.curvature import DIM, PAIRS, MetricPoint, RiemannTensor

FD_STEP = 1e-4
STEP_CLIP = 500.0


def metric_at(warp, t: float, z: float) -> MetricPoint:
    t = float(t)
    z = float(z)
    f, fp, fpp = warp.eval(t)
    A = np.exp(-2.0 * t - 2.0 * z)
    B = np.exp(-2.0 * t + 2.0 * z)

    g = np.diag([A, B, f * f, 1.0])
    g_inv = np.diag([1.0 / A, 1.0 / B, 1.0 / (f * f), 1.0])

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

    return MetricPoint(t=t, z=z, g=g, g_inv=g_inv, dg=dg, d2g=d2g)


def _first_kind(dg):
    return np.einsum("jmk->mjk", dg) + np.einsum("kmj->mjk", dg) - dg


def christoffel(p):
    return 0.5 * np.einsum("im,mjk->ijk", p.g_inv, _first_kind(p.dg))


def christoffel_derivatives(p):
    T = _first_kind(p.dg)
    dT = np.einsum("ljmk->lmjk", p.d2g) + np.einsum("lkmj->lmjk", p.d2g) - p.d2g
    dginv = -np.einsum("ia,lab,bm->lim", p.g_inv, p.dg, p.g_inv)
    return 0.5 * (
        np.einsum("lim,mjk->lijk", dginv, T)
        + np.einsum("im,lmjk->lijk", p.g_inv, dT)
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


def k_of_plane(Q, u, v) -> float:
    """Witness K from a fresh 1-D bivector, by 1-D matmul."""
    w = np.array([u[i] * v[j] - u[j] * v[i] for (i, j) in PAIRS])
    return float(w @ Q @ w / (w @ w))


def plane_from_bivector(w):
    W = np.zeros((4, 4))
    i, j = np.transpose(PAIRS)
    W[i, j], W[j, i] = w, -w
    U, _, _ = np.linalg.svd(W)
    return U[:, 0], U[:, 1]


def extremize_point(p) -> CurvatureBounds:
    Q = frame_pair_matrix(riemann_closed(p))
    vals, vecs = np.linalg.eigh(Q)
    u_min, v_min = plane_from_bivector(vecs[:, 0])
    u_max, v_max = plane_from_bivector(vecs[:, -1])
    k_at_min, k_at_max = k_of_plane(Q, u_min, v_min), k_of_plane(Q, u_max, v_max)
    k_min, k_max = float(vals[0]), float(vals[-1])
    return CurvatureBounds(
        t=float(p.t),
        k_min=k_min,
        k_max=k_max,
        argmin_plane=WitnessPlane(u_min, v_min),
        argmax_plane=WitnessPlane(u_max, v_max),
        method_agreement=max(abs(k_at_min - k_min), abs(k_at_max - k_max)),
    )


def rescale_to_pinching(bounds_curve, tail_k_min=None):
    """The rescale over a list of per-point bounds, suffix found by a loop."""
    bounds = list(bounds_curve)
    if not bounds:
        raise ValueError("bounds_curve must be nonempty")
    k_min = np.array([b.k_min for b in bounds])
    k_max = np.array([b.k_max for b in bounds])
    if np.any(k_max >= 0.0):
        raise ValueError("rescaling requires a globally negative curve")

    tail_sup = 0.0 if tail_k_min is None else abs(tail_k_min)
    lam2 = (1.0 + _FLOOR) * max(1.0, float(abs(k_min[-1])), tail_sup)
    lam = float(np.sqrt(lam2))
    if tail_k_min is None:
        return lam, float("inf")

    ok = (k_min / lam2 > -1.0) & (k_max / lam2 < 0.0)
    pinched_from = np.inf
    for i in range(len(bounds) - 1, -1, -1):
        if not ok[i]:
            break
        pinched_from = bounds[i].t
    return lam, float(pinched_from)


def smooth_step(u):
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        g = 1.0 / u - 1.0 / (1.0 - u)
    inner = (u > 0.0) & (u < 1.0) & (np.abs(g) < STEP_CLIP)
    s = np.where((u >= 1.0) | ((u > 0.0) & (g <= -STEP_CLIP)), 1.0, 0.0)
    s1 = np.zeros_like(u)
    s2 = np.zeros_like(u)
    ui, gi = u[inner], g[inner]
    sig = 1.0 / (1.0 + np.exp(gi))
    w = sig * (1.0 - sig)
    g1 = -1.0 / ui**2 - 1.0 / (1.0 - ui) ** 2
    g2 = 2.0 / ui**3 - 2.0 / (1.0 - ui) ** 3
    s[inner] = sig
    s1[inner] = -w * g1
    s2[inner] = w * (1.0 - 2.0 * sig) * g1**2 - w * g2
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
# pipelines through them.  ``svd_isometry`` takes every pullback's spectral
# norm by SVD, and ``one_panel_quad`` calls fn once per 15-node panel.  The
# kernels must reproduce their bytes wherever every tensor is finite.

def _stacked_first_kind(dg):
    return np.einsum("...jmk->...mjk", dg) + np.einsum("...kmj->...mjk", dg) - dg


def stacked_christoffel(p):
    return 0.5 * np.einsum("...im,...mjk->...ijk", p.g_inv, _stacked_first_kind(p.dg))


def stacked_christoffel_derivatives(p):
    T = _stacked_first_kind(p.dg)
    dT = _stacked_first_kind(p.d2g)
    dginv = -np.einsum("...ia,...lab,...bm->...lim", p.g_inv, p.dg, p.g_inv)
    return 0.5 * (
        np.einsum("...lim,...mjk->...lijk", dginv, T)
        + np.einsum("...im,...lmjk->...lijk", p.g_inv, dT)
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


def svd_isometry(m, samples):
    from solcusp.lattice import sol_metric_3d
    p = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    J = m.linear
    mapped = np.matmul(J, p[:, :, None])[:, :, 0] + m.offset
    pulled = J.T @ sol_metric_3d(mapped) @ J
    dev = np.linalg.norm(pulled - sol_metric_3d(p), 2, axis=(1, 2))
    return float(np.max(dev))


def one_panel_quad(fn, a, b, tol):
    from solcusp.volume import _MAX_INTERVALS, _W_GAUSS, _W_KRONROD, _GK_NODES, QuadratureError

    def gk15(lo, hi):
        half = 0.5 * (hi - lo)
        y = fn(0.5 * (lo + hi) + half * _GK_NODES)
        k = half * float(_W_KRONROD @ y)
        g = half * float(_W_GAUSS @ y)
        return k, (200.0 * abs(k - g)) ** 1.5, half * float(_W_KRONROD @ np.abs(y))

    if b <= a:
        raise ValueError("need a < b")
    intervals = [(a, b, *gk15(a, b))]
    rounding = float(50.0 * np.finfo(float).eps * intervals[0][4])
    if tol < rounding:
        raise QuadratureError(
            f"tol {tol:g} is below the rounding level {rounding:g} of the integral"
        )
    while True:
        total = sum(iv[2] for iv in intervals)
        errs = [iv[3] for iv in intervals]
        err_sum = float(np.sqrt(np.sum(np.square(errs))))
        if err_sum <= tol:
            return float(total), max(err_sum, rounding)
        if len(intervals) >= _MAX_INTERVALS:
            raise QuadratureError(
                f"no convergence to {tol:g} within {_MAX_INTERVALS} intervals "
                f"(reached {err_sum:g})"
            )
        worst = int(np.argmax(errs))
        lo, hi = intervals[worst][:2]
        mid = 0.5 * (lo + hi)
        intervals[worst] = (lo, mid, *gk15(lo, mid))
        intervals.append((mid, hi, *gk15(mid, hi)))
