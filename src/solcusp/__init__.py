"""Finite-volume negatively curved cusp metrics over compact Sol 3-manifolds.

The library builds the cusp metric

    g = dt^2 + f(t)^2 dz^2 + e^(-2t) (e^(-2z) dx^2 + e^(2z) dy^2)

over a Sol mapping-torus cross section, verifies its curvature tensor by
two independent pipelines, validates the four warping-function conditions,
certifies pinched negative sectional curvature over all tangent 2-planes,
and computes the cusp volume: closed forms outside the transition window,
the tanh-sinh rule inside it.
"""

from .certify import certify
from .curvature import metric_at, riemann_closed, riemann_fd
from .warp import build_interpolation

__version__ = "0.1.0"

__all__ = ["build_interpolation", "certify", "metric_at", "riemann_closed", "riemann_fd"]
