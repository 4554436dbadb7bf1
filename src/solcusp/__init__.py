"""Finite-volume negatively curved cusp metrics over compact Sol 3-manifolds.

The library builds the cusp metric

    g = dt^2 + f(t)^2 dz^2 + e^(-2t) (e^(-2z) dx^2 + e^(2z) dy^2)

over a Sol mapping-torus cross section, verifies its curvature tensor by
two independent pipelines, validates the four warping-function conditions,
certifies pinched negative sectional curvature over all tangent 2-planes,
and computes the cusp volume: closed forms outside the transition window,
adaptive quadrature inside it.
"""

from .certify import (
    CertificationReport,
    CurvatureBounds,
    WitnessPlane,
    certify,
    extremize_k,
    extremize_point,
    rescale_to_pinching,
)
from .curvature import (
    DegeneratePlaneError,
    MatchReport,
    MetricPoint,
    RiemannTensor,
    christoffel,
    match_component_table,
    metric_at,
    component_table,
    riemann_closed,
    riemann_fd,
    sectional_curvature,
)
from .lattice import (
    AffineMap3,
    AnosovMatrix,
    SolLattice,
    build_sol_lattice,
    cross_section_volume,
    verify_isometry,
)
from .volume import VolumeResult, adaptive_quad, cusp_volume
from .warp import (
    Interpolated,
    InterpolationError,
    PureExp,
    ShiftedExp,
    build_interpolation,
    condition_margins,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap3",
    "AnosovMatrix",
    "CertificationReport",
    "CurvatureBounds",
    "DegeneratePlaneError",
    "Interpolated",
    "InterpolationError",
    "MatchReport",
    "MetricPoint",
    "PureExp",
    "RiemannTensor",
    "ShiftedExp",
    "SolLattice",
    "VolumeResult",
    "WitnessPlane",
    "adaptive_quad",
    "build_interpolation",
    "build_sol_lattice",
    "certify",
    "christoffel",
    "condition_margins",
    "cross_section_volume",
    "cusp_volume",
    "extremize_k",
    "extremize_point",
    "match_component_table",
    "metric_at",
    "component_table",
    "rescale_to_pinching",
    "riemann_closed",
    "riemann_fd",
    "sectional_curvature",
    "verify_isometry",
]
