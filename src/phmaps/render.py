"""Deterministic SVG and CSV rendering of the disk image under a mapping.

Output is a fixed SVG 1.1 subset: one polyline per grid ring (closed) and per
ray (from the origin outward), coordinates printed with %.6f, no external
references. Identical input produces byte-identical output, which is what the
golden-file tests rely on. CSV rows carry 17-significant-digit floats so they
round-trip the underlying doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError, ParamError
from .geometry import MAX_GRID_POINTS, DiskGrid, evaluate
from .series import PolyharmonicMap

# Boundary behavior of boundary-tight maps is cusp-like, so rendering stays
# strictly inside the disk by default.
DEFAULT_RENDER_GRID = DiskGrid(rings=12, rays=24, r_max=0.98)


@dataclass(frozen=True)
class RenderSpec:
    """Curve layout and canvas geometry for the renderer."""

    grid: DiskGrid = DEFAULT_RENDER_GRID
    samples_per_curve: int = 256
    width: int = 800
    height: int = 800
    margin: float = 0.06
    stroke_width: float = 1.0
    boundary_emphasis: bool = True

    def __post_init__(self):
        if self.samples_per_curve < 64:
            raise ParamError(f"samples_per_curve must be >= 64, got {self.samples_per_curve}")
        if self.width < 100 or self.height < 100:
            raise ParamError("canvas must be at least 100x100")
        if not 0 <= self.margin < 0.5:
            raise ParamError(f"margin fraction must lie in [0, 0.5), got {self.margin}")
        vertices = (self.grid.rings + self.grid.rays) * (self.samples_per_curve + 1)
        if vertices > MAX_GRID_POINTS:
            raise GridTooLargeError(f"(rings + rays) x (samples + 1) = {vertices} vertices "
                                    f"exceeds {MAX_GRID_POINTS}")


def _curves(F: PolyharmonicMap, spec: RenderSpec) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(curve_id, parameter values, image vertices) for every ring and ray."""
    m = spec.samples_per_curve
    out: list[tuple[str, np.ndarray, np.ndarray]] = []
    theta = 2.0 * np.pi * np.arange(m) / m
    for idx, r in enumerate(spec.grid.radii(), start=1):
        out.append((f"ring_{idx}", theta, evaluate(F, r * np.exp(1j * theta))))
    radial = spec.grid.r_max * np.arange(m + 1) / m
    for ray, ang in enumerate(spec.grid.angles()):
        out.append((f"ray_{ray}", radial, evaluate(F, radial * np.exp(1j * ang))))
    return out


def render_csv(F: PolyharmonicMap, spec: RenderSpec = RenderSpec()) -> bytes:
    """Rows "curve_id,theta_or_r,re,im"; rings parameterized by theta, rays by r."""
    lines = ["curve_id,theta_or_r,re,im"]
    for curve_id, params, w in _curves(F, spec):
        for t, v in zip(params, w):
            lines.append(f"{curve_id},{t:.17g},{v.real:.17g},{v.imag:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_svg(F: PolyharmonicMap, spec: RenderSpec = RenderSpec()) -> bytes:
    """Fitted, deterministic SVG of the ring and ray images."""
    curves = _curves(F, spec)
    all_pts = np.concatenate([w for _, _, w in curves])
    x_min, x_max = float(np.min(all_pts.real)), float(np.max(all_pts.real))
    y_min, y_max = float(np.min(all_pts.imag)), float(np.max(all_pts.imag))
    usable_w = spec.width * (1.0 - 2.0 * spec.margin)
    usable_h = spec.height * (1.0 - 2.0 * spec.margin)
    span_x = max(x_max - x_min, 1e-12)
    span_y = max(y_max - y_min, 1e-12)
    scale = min(usable_w / span_x, usable_h / span_y)
    off_x = (spec.width - scale * (x_min + x_max)) / 2.0
    off_y = (spec.height + scale * (y_min + y_max)) / 2.0  # SVG y axis points down

    n_rings = len(spec.grid.radii())
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
    ]
    for i, (curve_id, _, w) in enumerate(curves):
        verts = w
        if curve_id.startswith("ring"):
            verts = np.concatenate([w, w[:1]])  # close the loop on the exact first vertex
        sw = spec.stroke_width
        if spec.boundary_emphasis and i == n_rings - 1:
            sw = 2.0 * spec.stroke_width
        pts = " ".join(
            f"{off_x + scale * v.real:.6f},{off_y - scale * v.imag:.6f}" for v in verts
        )
        lines.append(f'<polyline fill="none" stroke="black" stroke-width="{sw:.6f}" points="{pts}"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
