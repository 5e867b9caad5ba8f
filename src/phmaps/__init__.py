"""Polyharmonic unit-disk mappings.

Finitely supported coefficient series F(z) = sum_k |z|^(2(k-1)) (h_k + conj(g_k))
with exact-rational class membership, coefficientwise operators, grid-based
geometric verification, a catalog of named maps, and deterministic rendering.
"""

from .catalog import (
    ExtremalSpec,
    example_F1,
    example_F2,
    extremal_point,
    half_plane_map,
    identity_map,
)
from .classes import (
    ClassParams,
    Family,
    MembershipReport,
    class_reduction_check,
    hc,
    hs,
    hs_lambda,
    membership,
    weight,
)
from .errors import (
    GridTooLargeError,
    InvalidMapError,
    MapSyntaxError,
    NonFiniteError,
    NotMemberError,
    ParamError,
    PhmapsError,
    WeightError,
    ZeroDerivativeError,
    ZeroValueError,
)
from .exact import EPS_STRICT, Scalar, format_scalar, parse_scalar
from .geometry import (
    DiskGrid,
    DistortionEnvelope,
    GeometryReport,
    arg_derivative,
    convexity_indicator,
    convexity_radius,
    convolution_starlike_search,
    distortion_envelope,
    distortion_extremal,
    evaluate,
    evaluate_layer,
    jacobian,
    layer_bound_check,
    rescale_convexity_certificate,
    theta_derivative,
    verify_geometry,
    wirtinger_derivatives,
)
from .operators import (
    ConvexCombination,
    NeighborhoodReport,
    ch0_certificate,
    combine,
    convex_combine,
    convolve,
    delta_bound,
    integral_convolve,
    neighborhood_distance,
    neighborhood_report,
    rescale,
)
from .phmio import load_map, parse_map, save_map, serialize_map
from .render import RenderSpec, render_csv, render_svg
from .series import Coefficient, PolyharmonicMap, coeff, make_map

__version__ = "0.1.0"
