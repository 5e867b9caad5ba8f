"""Polyharmonic unit-disk mappings.

Finitely supported coefficient series F(z) = sum_k |z|^(2(k-1)) (h_k + conj(g_k))
with exact-rational class membership, coefficientwise operators, grid-based
geometric verification, a catalog of named maps, and deterministic rendering.

The exact core is imported eagerly and needs no numpy. The numeric layer
(`geometry`, `render`, and numpy with them) loads when one of its names is
first used, so exact-only work never pays for the numpy import.
"""

from .catalog import (
    ExtremalSpec,
    distortion_extremal,
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
)
from .exact import EPS_STRICT, Scalar, format_scalar, parse_scalar
from .operators import (
    DistortionEnvelope,
    NeighborhoodReport,
    ch0_certificate,
    combine,
    convexity_radius,
    convolve,
    delta_bound,
    distortion_envelope,
    integral_convolve,
    layer_bound_check,
    neighborhood_distance,
    neighborhood_report,
    rescale,
    rescale_convexity_certificate,
)
from .phmio import load_map, parse_map, save_map, serialize_map
from .series import Coefficient, PolyharmonicMap, coeff, make_map

__version__ = "0.1.0"

# Each name of the numeric layer, mapped to the submodule that defines it
# (a submodule's own name maps to itself).
_LAZY = {
    **dict.fromkeys(
        (
            "geometry",
            "DiskGrid",
            "DistortionReport",
            "GeometryReport",
            "distortion_check",
            "evaluate",
            "jacobian",
            "theta_derivative",
            "verify_geometry",
        ),
        "geometry",
    ),
    **dict.fromkeys(("render", "RenderSpec", "render_csv", "render_svg"), "render"),
}

__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    """Import the numeric submodule behind ``name`` on first use and cache the name here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
