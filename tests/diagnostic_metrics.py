"""Diagnostic metric points with known curvature, for the tests.

Each builds a ``MetricPoint`` directly, bypassing the cusp ansatz, so the
curvature pipelines and the certifier can be checked on metrics whose
sectional curvatures are known in closed form.  The helpers at the end
read the frame scales, the frame coordinate-plane curvatures and the
algebraic symmetry residuals off any point or tensor, and
``sectional_curvature`` gives K of any plane from coordinate components.
``witness_plane`` builds a plane of the cusp frame form's block from its
code in ``certify``'s bounds; ``closed_form_gaps`` checks the extremes
against ``eigh`` of the closed pipeline's frame form and against K of
those planes.
"""

import numpy as np

from solcusp.curvature import DIM, PAIR_NAMES, MetricPoint, RiemannTensor, metric_at, riemann_closed


def flat_metric_point(shape: tuple[int, ...] = ()) -> MetricPoint:
    """Diagnostic override: constant identity metric (all Gamma vanish).

    ``shape`` is the stack's leading shape, as ``riemann_fd_general``'s
    stencil asks for.
    """
    eye = np.broadcast_to(np.eye(DIM), shape + (DIM, DIM))
    return MetricPoint(
        t=np.zeros(shape), z=np.zeros(shape),
        g=eye,
        dg=np.zeros(shape + (DIM,) * 3), d2g=np.zeros(shape + (DIM,) * 4),
    )


def hyperbolic_metric_point(t: float, z: float = 0.0) -> MetricPoint:
    """Diagnostic: dt^2 + e^(-2t)(dx^2 + dy^2 + dz^2), K = -1 everywhere."""
    t = float(t)
    e = np.exp(-2.0 * t)
    g = np.diag([e, e, e, 1.0])
    dg = np.zeros((DIM, DIM, DIM))
    d2g = np.zeros((DIM, DIM, DIM, DIM))
    for i in range(3):
        dg[3, i, i] = -2.0 * e
        d2g[3, 3, i, i] = 4.0 * e
    return MetricPoint(t=t, z=float(z), g=g, dg=dg, d2g=d2g)


def sol_product_metric_point(z: float, t: float = 0.0) -> MetricPoint:
    """Diagnostic: (Sol 3-metric) x (flat line), coefficient 1 on slot t.

    Planes inside the Sol factor keep their Sol sectional curvatures:
    K(x,y) = +1, K(x,z) = K(y,z) = -1.
    """
    z = float(z)
    A = np.exp(-2.0 * z)
    B = np.exp(2.0 * z)
    g = np.diag([A, B, 1.0, 1.0])
    dg = np.zeros((DIM, DIM, DIM))
    dg[2, 0, 0] = -2.0 * A
    dg[2, 1, 1] = 2.0 * B
    d2g = np.zeros((DIM, DIM, DIM, DIM))
    d2g[2, 2, 0, 0] = 4.0 * A
    d2g[2, 2, 1, 1] = 4.0 * B
    return MetricPoint(t=float(t), z=z, g=g, dg=dg, d2g=d2g)


def frame_scales(p: MetricPoint) -> np.ndarray:
    """1/sqrt(g_ii): the coordinate components of the orthonormal frame."""
    return 1.0 / np.sqrt(np.diagonal(p.g, axis1=-2, axis2=-1))


def frame_plane_k(p: MetricPoint) -> dict[str, np.ndarray]:
    """K of each frame coordinate plane, keyed by pair name ("xy", ..., "zt").

    The diagonal of ``riemann_closed``'s frame curvature form.
    """
    diag = np.diagonal(riemann_closed(p).pair_matrix(frame=True), axis1=-2, axis2=-1)
    return {name: diag[..., a] for a, name in enumerate(PAIR_NAMES)}


def symmetry_residuals(R) -> tuple[float, float]:
    """(antisymmetry, pair symmetry) residuals of R_ijkl, worst over the stack.

    Antisymmetry is the worse of max |R_ijkl + R_jikl| and
    max |R_ijkl + R_ijlk|; pair symmetry is max |R_ijkl - R_klij|.
    """
    full = R.full
    r1 = np.max(np.abs(full + np.einsum("...ijkl->...jikl", full)))
    r2 = np.max(np.abs(full + np.einsum("...ijkl->...ijlk", full)))
    pair = np.max(np.abs(full - np.einsum("...ijkl->...klij", full)))
    return float(max(r1, r2)), float(pair)


class DegeneratePlaneError(ValueError):
    """The two vectors do not span a 2-plane (Gram determinant underflow)."""


def sectional_curvature(R: RiemannTensor, p: MetricPoint, u, v) -> float:
    """K of span(u, v): R(u,v,u,v) / (|u|^2 |v|^2 - <u,v>^2), g-inner products.

    Raises DegeneratePlaneError when the normalized Gram determinant falls
    below 1e-12.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = p.g
    uu = u @ g @ u
    vv = v @ g @ v
    uv = u @ g @ v
    gram = uu * vv - uv * uv
    if uu <= 0.0 or vv <= 0.0 or gram / (uu * vv) <= 1e-12:
        raise DegeneratePlaneError("vectors do not span a nondegenerate 2-plane")
    num = np.einsum("ijkl,i,j,k,l->", R.full, u, v, u, v)
    return float(num / gram)


def witness_plane(warp, t: float, code: int, lowest: bool) -> np.ndarray:
    """A frame-orthonormal pair (u, v), a (2, 4) array, whose plane's K is
    the lowest (or highest) eigenvalue of block ``code`` of the cusp frame
    form at (t, 0): certify's codes 0 = xy, 1 = mixed and 2 = zt.

    Code 0 gives (e_x, e_y) and code 2 gives (e_z, e_t).  Code 1 gives
    (e_x, alpha e_z + beta e_t), with (alpha, beta) the eigenvector from
    ``eigh`` of [[A, -B], [-B, -1]], A = (f f' - 1) / f^2 and
    B = (f + f') / f^2.  u / sqrt(g_ii) are u's coordinates.
    """
    plane = np.zeros((2, 4))
    if code == 0:
        plane[0, 0] = plane[1, 1] = 1.0
    elif code == 2:
        plane[0, 2] = plane[1, 3] = 1.0
    elif code == 1:
        f, fp, _ = (float(v) for v in warp.eval(float(t)))
        A, B = (f * fp - 1.0) / (f * f), (f + fp) / (f * f)
        vecs = np.linalg.eigh(np.array([[A, -B], [-B, -1.0]]))[1]
        plane[0, 0] = 1.0
        plane[1, 2:] = vecs[:, 0 if lowest else 1]
    else:
        raise ValueError(f"no block has code {code}")
    return plane


def closed_form_gaps(warp, bounds) -> tuple[float, float]:
    """(extreme gap, witness gap) of certify's bounds along their grid.

    The extreme gap is the worst |k - lambda| / (eps max(1, |lambda|)) of
    k_min and k_max against the extreme eigenvalues lambda of ``eigh`` of
    ``riemann_closed(p).pair_matrix(frame=True)`` at (t, 0).  The witness
    gap is the worst |K - k| / max(1, |k|), with K from coordinate
    components by ``sectional_curvature`` of the ``witness_plane`` of each
    extreme's block code.
    """
    t = np.ravel(bounds.t)
    k = np.stack((np.ravel(bounds.k_min), np.ravel(bounds.k_max)), axis=1)
    codes = np.stack((np.ravel(bounds.block_min), np.ravel(bounds.block_max)), axis=1)
    eig = np.linalg.eigvalsh(riemann_closed(metric_at(warp, t, 0.0)).pair_matrix(frame=True))
    lam = eig[:, [0, -1]]
    extreme = np.max(np.abs(k - lam) / np.maximum(1.0, np.abs(lam))) / np.finfo(float).eps
    witness = 0.0
    for i, ti in enumerate(t):
        p = metric_at(warp, ti, 0.0)
        R, scales = riemann_closed(p), frame_scales(p)
        for j in (0, 1):
            uc, vc = witness_plane(warp, ti, codes[i, j], lowest=j == 0) * scales
            gap = abs(sectional_curvature(R, p, uc, vc) - k[i, j]) / max(1.0, abs(k[i, j]))
            witness = max(witness, gap)
    return float(extreme), witness
