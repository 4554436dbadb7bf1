"""Diagnostic metric points with known curvature, for the tests.

Each builds a ``MetricPoint`` directly, bypassing the cusp ansatz, so the
curvature pipelines and the certifier can be checked on metrics whose
sectional curvatures are known in closed form.
"""

import numpy as np

from solcusp.curvature import DIM, MetricPoint


def flat_metric_point() -> MetricPoint:
    """Diagnostic override: constant identity metric (all Gamma vanish)."""
    return MetricPoint(
        t=0.0, z=0.0,
        g=np.eye(DIM), g_inv=np.eye(DIM),
        dg=np.zeros((DIM, DIM, DIM)), d2g=np.zeros((DIM, DIM, DIM, DIM)),
    )


def hyperbolic_metric_point(t: float, z: float = 0.0) -> MetricPoint:
    """Diagnostic: dt^2 + e^(-2t)(dx^2 + dy^2 + dz^2), K = -1 everywhere."""
    t = float(t)
    e = np.exp(-2.0 * t)
    g = np.diag([e, e, e, 1.0])
    g_inv = np.diag([1.0 / e, 1.0 / e, 1.0 / e, 1.0])
    dg = np.zeros((DIM, DIM, DIM))
    d2g = np.zeros((DIM, DIM, DIM, DIM))
    for i in range(3):
        dg[3, i, i] = -2.0 * e
        d2g[3, 3, i, i] = 4.0 * e
    return MetricPoint(t=t, z=float(z), g=g, g_inv=g_inv, dg=dg, d2g=d2g)


def sol_product_metric_point(z: float, t: float = 0.0) -> MetricPoint:
    """Diagnostic: (Sol 3-metric) x (flat line), coefficient 1 on slot t.

    Planes inside the Sol factor keep their Sol sectional curvatures:
    K(x,y) = +1, K(x,z) = K(y,z) = -1.
    """
    z = float(z)
    A = np.exp(-2.0 * z)
    B = np.exp(2.0 * z)
    g = np.diag([A, B, 1.0, 1.0])
    g_inv = np.diag([1.0 / A, 1.0 / B, 1.0, 1.0])
    dg = np.zeros((DIM, DIM, DIM))
    dg[2, 0, 0] = -2.0 * A
    dg[2, 1, 1] = 2.0 * B
    d2g = np.zeros((DIM, DIM, DIM, DIM))
    d2g[2, 2, 0, 0] = 4.0 * A
    d2g[2, 2, 1, 1] = 4.0 * B
    return MetricPoint(t=float(t), z=z, g=g, g_inv=g_inv, dg=dg, d2g=d2g)
