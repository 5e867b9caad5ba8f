"""Deterministic SVG and CSV rendering of the disk image under a mapping.

An `Image` evaluates F once, on every grid ring and ray together, and raises
NonFiniteError on a NaN, infinite or float64-overflowing image. The SVG is a
fixed 1.1 subset: one polyline per ring (closed) and per ray (from the origin
outward), %.6f coordinates, no external references. CSV rows carry
17-significant-digit floats, which round-trip the doubles. Identical input
gives byte-identical output, which the golden tests rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import MAX_GRID_POINTS, GridTooLargeError, NonFiniteError, ParamError, as_integers
from .exact import Record
from .geometry import DiskGrid, evaluate
from .series import PolyharmonicMap

# Boundary behavior of boundary-tight maps is cusp-like, so rendering stays
# strictly inside the disk by default.
DEFAULT_RENDER_GRID = DiskGrid(rings=12, rays=24, r_max=0.98)
MARGIN = 0.06  # fraction of the canvas left blank on each side of the image
STROKE_WIDTH = 1.0  # every curve but the outermost ring, which is drawn twice as wide
BOUNDARY_STROKE_WIDTH = 2.0 * STROKE_WIDTH


class RenderSpec(Record):
    """Curve layout and integer canvas size; the margin and stroke widths are the constants above."""

    __slots__ = ("grid", "samples_per_curve", "width", "height")
    _defaults = {"grid": DEFAULT_RENDER_GRID, "samples_per_curve": 256, "width": 800, "height": 800}

    def _check(self):
        if self.samples_per_curve < 64:
            raise ParamError(f"samples_per_curve must be >= 64, got {self.samples_per_curve}")
        if not (100 <= self.width <= MAX_GRID_POINTS and 100 <= self.height <= MAX_GRID_POINTS):  # NaN fails too
            raise ParamError(f"canvas width and height must lie in [100, {MAX_GRID_POINTS}]")
        as_integers(self, "samples_per_curve", "width", "height")
        vertices = (self.grid.rings + self.grid.rays) * (self.samples_per_curve + 1)
        if vertices > MAX_GRID_POINTS:
            raise GridTooLargeError(f"(rings + rays) x (samples + 1) = {vertices} vertices "
                                    f"exceeds {MAX_GRID_POINTS}")


class Image:
    """``curves``: F along every grid ring, closed by theta = 0 again so that its last vertex is exactly its
    first, then every ray; (rings + rays) x (m + 1) vertices, serialised by csv() and svg()."""

    def __init__(self, F: PolyharmonicMap, spec: RenderSpec = RenderSpec()):
        m, self.spec = spec.samples_per_curve, spec
        self.theta = 2.0 * np.pi * np.arange(m) / m
        self.radial = spec.grid.r_max * np.arange(m + 1) / m
        points = np.concatenate([spec.grid.radii()[:, None] * np.exp(1j * np.append(self.theta, 0.0)),  # rings
                                 self.radial * np.exp(1j * spec.grid.angles())[:, None]])  # rays
        with np.errstate(all="ignore"):  # overflow shows as NonFiniteError, not as a warning
            w = self.curves = evaluate(F, points)
            self.bbox = float(w.real.min()), float(w.real.max()), float(w.imag.min()), float(w.imag.max())
            x_min, x_max, y_min, y_max = self.bbox
            if not np.isfinite(np.hypot(x_max - x_min, y_max - y_min)):  # also for any NaN or infinite vertex
                raise NonFiniteError("F's image is NaN, infinite or too wide for float64 on the render grid")

    def csv(self) -> bytes:
        """The render_csv bytes: each family formats its theta or r column once, into one row template."""
        out, rings = ["curve_id,theta_or_r,re,im\n"], self.spec.grid.rings
        for name, first, t, w in (("ring_%d", 1, self.theta, self.curves[:rings, :-1]),  # without the closing vertex
                                  ("ray_%d", 0, self.radial, self.curves[rings:])):
            template = "".join(["\0,%.17g,%%.17g,%%.17g\n" % x for x in t.tolist()])  # \0 stands for the curve id
            values = np.stack([w.real, w.imag], axis=-1).reshape(len(w), -1).tolist()
            out += [template.replace("\0", name % i) % tuple(row) for i, row in enumerate(values, start=first)]
        return "".join(out).encode("utf-8")

    def svg(self) -> bytes:
        """The render_svg bytes."""
        spec, w, (x_min, x_max, y_min, y_max) = self.spec, self.curves, self.bbox
        fit = 1.0 - 2.0 * MARGIN
        scale = min(spec.width * fit / max(x_max - x_min, 1e-12), spec.height * fit / max(y_max - y_min, 1e-12))
        off_x = (spec.width - scale * (x_min + x_max)) / 2.0
        off_y = (spec.height + scale * (y_min + y_max)) / 2.0  # SVG y axis points down
        xy = np.stack([off_x + scale * w.real, off_y - scale * w.imag], axis=-1).reshape(len(w), -1)
        pts = " ".join(["%.6f,%.6f"] * w.shape[1])
        widths = [STROKE_WIDTH] * len(w)
        widths[spec.grid.rings - 1] = BOUNDARY_STROKE_WIDTH
        head = (f'<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
                f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">\n')
        body = "".join(f'<polyline fill="none" stroke="black" stroke-width="{sw:.6f}" points="{pts % tuple(row)}"/>\n'
                       for sw, row in zip(widths, xy.tolist()))
        return (head + body + "</svg>\n").encode("utf-8")


def render_csv(F: PolyharmonicMap, spec: RenderSpec = RenderSpec()) -> bytes:
    """Rows "curve_id,theta_or_r,re,im"; rings parameterized by theta, rays by r."""
    return Image(F, spec).csv()


def render_svg(F: PolyharmonicMap, spec: RenderSpec = RenderSpec()) -> bytes:
    """Fitted, deterministic SVG of the ring and ray images."""
    return Image(F, spec).svg()
