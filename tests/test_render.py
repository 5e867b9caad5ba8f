import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from phmaps import (
    DiskGrid,
    GridTooLargeError,
    ParamError,
    convexity_radius,
    convolve,
    evaluate,
    example_F1,
    example_F2,
    extremal_point,
    ExtremalSpec,
    NonFiniteError,
    half_plane_map,
    identity_map,
    make_map,
    rescale,
    rescale_convexity_certificate,
)
from phmaps.geometry import MAX_GRID_POINTS
from phmaps.render import Image, RenderSpec, render_csv, render_svg
from phmaps.sampling import random_member

GOLDEN = Path(__file__).parent / "golden"

SMALL = RenderSpec(grid=DiskGrid(rings=4, rays=8, r_max=0.9), samples_per_curve=64)


def boundary_polyline(F, samples=512, r_max=0.98):
    theta = 2 * np.pi * np.arange(samples) / samples
    return evaluate(F, r_max * np.exp(1j * theta))


class TestDeterminism:
    def test_svg_byte_identical(self):
        assert render_svg(example_F1(), SMALL) == render_svg(example_F1(), SMALL)

    def test_csv_byte_identical(self):
        assert render_csv(example_F2(), SMALL) == render_csv(example_F2(), SMALL)

    def test_golden_csv(self):
        assert render_csv(example_F2(), SMALL) == (GOLDEN / "f2_render.csv").read_bytes()

    def test_golden_svg(self):
        assert render_svg(example_F2(), SMALL) == (GOLDEN / "f2_render.svg").read_bytes()


def assert_matches_reference(F, spec):
    assert render_svg(F, spec) == helpers.reference_render_svg(F, spec)
    assert render_csv(F, spec) == helpers.reference_render_csv(F, spec)


REFERENCE_MAPS = {
    "f1": example_F1(),
    "f2": example_F2(),
    "identity": identity_map(),
    "identity_p3": identity_map(3),
    "f1*h8": convolve(example_F1(), half_plane_map(8)),
    "h64": half_plane_map(64),
    "extremal_rotated": extremal_point(ExtremalSpec(n=3, k=2, lam=Fraction(1, 3), phase=Fraction(1, 8)), 2),
    "complex_exact": make_map(2, a={(2, 1): (Fraction(3, 20), Fraction(-1, 5)), (3, 2): (0, Fraction(1, 30))},
                              b={(1, 1): (Fraction(1, 4), Fraction(1, 3)), (2, 2): (Fraction(-1, 40), 0)}),
    "float": make_map(2, a={(2, 1): 0.1234, (1, 2): complex(0.05, -0.02)},
                      b={(1, 1): complex(0.3, 0.1), (3, 1): -0.01}),
}

REFERENCE_SPECS = {
    "default": RenderSpec(),
    "odd_samples": RenderSpec(grid=DiskGrid(rings=5, rays=7, r_max=0.9), samples_per_curve=101),
    "non_square": RenderSpec(grid=DiskGrid(rings=3, rays=9, r_max=0.97), samples_per_curve=80, width=1200,
                             height=150),
}

# Any curve layout: the CSV shares one theta or r column per family, whatever its values.
RENDER_SPECS = st.builds(lambda rings, rays, samples, r_max: RenderSpec(DiskGrid(rings, rays, r_max), samples),
                         st.integers(1, 6), st.integers(3, 9), st.integers(64, 130),
                         st.floats(0.1, 0.99, exclude_min=True, exclude_max=True))


class TestMatchesPerCurveReference:
    """The batched renderer writes the bytes of one evaluate call and one f-string per curve/vertex."""

    @pytest.mark.parametrize("spec", REFERENCE_SPECS.values(), ids=REFERENCE_SPECS.keys())
    @pytest.mark.parametrize("F", REFERENCE_MAPS.values(), ids=REFERENCE_MAPS.keys())
    def test_maps_and_specs(self, F, spec):
        assert_matches_reference(F, spec)

    def test_half_plane_truncations(self):
        for N in range(2, 65):
            assert_matches_reference(half_plane_map(N), SMALL)

    def test_random_members(self):
        rng = random.Random(6)
        for _ in range(12):
            lam = Fraction(rng.randint(0, 4), 4)
            F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5, tight=rng.random() < 0.3)
            assert_matches_reference(F, SMALL)

    @settings(deadline=None)
    @given(helpers.maps(), RENDER_SPECS)
    def test_hypothesis_maps(self, F, spec):
        assert_matches_reference(F, spec)

    def test_image_serialises_both_formats(self):
        image = Image(example_F2(), SMALL)
        assert image.svg() == (GOLDEN / "f2_render.svg").read_bytes()
        assert image.csv() == (GOLDEN / "f2_render.csv").read_bytes()


OVERFLOW_MAPS = {
    # infinite vertices, and NaN ones where overflows of opposite sign meet (default spec)
    "non_finite": make_map(1, a={(2, 1): 1e308, (3, 1): 1e308}, b={(2, 1): 1e308}),
    # finite vertices; the bounding-box diagonal (SMALL) or its width (default spec) overflows
    "wide": make_map(1, a={(2, 1): 1e308}),
}


@pytest.mark.parametrize("spec", [SMALL, RenderSpec()], ids=["small", "default"])
@pytest.mark.parametrize("F", OVERFLOW_MAPS.values(), ids=OVERFLOW_MAPS.keys())
def test_non_finite_image_raises_without_warnings(F, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for render in (Image, render_svg, render_csv):
            with pytest.raises(NonFiniteError, match="NaN, infinite or too wide"):
                render(F, spec)


class TestSvgStructure:
    def test_subset_and_formatting(self):
        text = render_svg(identity_map(), SMALL).decode()
        lines = text.splitlines()
        assert lines[0] == '<?xml version="1.0" encoding="UTF-8"?>'
        assert lines[1].startswith("<svg xmlns=")
        assert lines[-1] == "</svg>"
        body = lines[2:-1]
        assert all(l.startswith("<polyline ") for l in body)
        assert len(body) == 4 + 8  # rings + rays
        assert "http" not in "".join(body)
        coords = re.findall(r"-?\d+\.\d+", body[0])
        assert all(re.fullmatch(r"-?\d+\.\d{6}", c) for c in coords)

    def test_boundary_ring_is_emphasized(self):
        body = render_svg(identity_map(), SMALL).decode().splitlines()[2:-1]
        widths = [float(re.search(r'stroke-width="([\d.]+)"', l).group(1)) for l in body]
        assert widths[3] == 2.0 * widths[0]  # outermost of 4 rings
        assert widths[:3] + widths[4:] == [widths[0]] * (len(widths) - 1)

    def test_rings_are_closed(self):
        body = render_svg(identity_map(), SMALL).decode().splitlines()[2:-1]
        pts = body[0].split('points="')[1].split('"')[0].split()
        assert pts[0] == pts[-1]


class TestCsvContent:
    def test_identity_single_ring(self):
        spec = RenderSpec(grid=DiskGrid(rings=1, rays=4, r_max=0.5), samples_per_curve=64)
        rows = render_csv(identity_map(), spec).decode().splitlines()
        assert rows[0] == "curve_id,theta_or_r,re,im"
        ring_rows = [r for r in rows[1:] if r.startswith("ring_1,")]
        assert len(ring_rows) == 64
        for row in ring_rows:
            _, t, re_, im_ = row.split(",")
            assert abs(complex(float(re_), float(im_))) == pytest.approx(0.5)

    def test_csv_matches_evaluate_bit_for_bit(self):
        rows = render_csv(example_F1(), SMALL).decode().splitlines()
        row = rows[1 + 3 * 64]  # first row of the outermost ring
        _, t, re_, im_ = row.split(",")
        w = evaluate(example_F1(), 0.9 * np.exp(1j * float(t)))
        assert float(re_) == w.real and float(im_) == w.imag


class TestImageGeometry:
    def test_identity_rings_stay_circles(self):
        for r in SMALL.grid.radii():
            w = boundary_polyline(identity_map(), 128, r)
            assert np.max(np.abs(np.abs(w) - r)) < 1e-12

    def test_example_boundaries_are_simple_curves(self):
        for F in (example_F1(), example_F2()):
            assert helpers.polyline_self_intersections(boundary_polyline(F)) == 0

    def test_catalog_boundaries_are_star_shaped(self):
        catalog = [
            example_F1(),
            example_F2(),
            convolve(example_F1(), half_plane_map(8)),
            extremal_point(ExtremalSpec(n=2, k=1, lam=Fraction(2, 3))),
        ]
        for F in catalog:
            counts = helpers.ray_crossing_counts(boundary_polyline(F), 4096)
            assert np.all(counts == 1)

    def test_certified_rescaled_rings_are_convex(self):
        for F, lam in ((example_F1(), Fraction(2, 3)), (example_F2(), Fraction(1, 100))):
            r = convexity_radius(lam)
            assert rescale_convexity_certificate(F, lam, r)
            G = rescale(F, r)
            for radius in (0.5, 0.9, 0.98):
                assert helpers.polyline_is_convex(boundary_polyline(G, 512, radius))

    def test_full_disk_example_one_is_not_convex(self):
        # sanity check that the convexity oracle can fail: F1 at r=0.98 is starlike only
        assert not helpers.polyline_is_convex(boundary_polyline(example_F1(), 512, 0.98))


class TestSpecValidation:
    def test_sample_floor(self):
        with pytest.raises(ParamError):
            RenderSpec(samples_per_curve=32)

    def test_canvas_floor(self):
        with pytest.raises(ParamError):
            RenderSpec(width=50)

    def test_canvas_ceiling(self):
        RenderSpec(width=MAX_GRID_POINTS, height=MAX_GRID_POINTS)
        for side in (MAX_GRID_POINTS + 1, 10**400, float("inf"), float("nan")):
            for spec in ({"width": side}, {"height": side}):
                with pytest.raises(ParamError, match="canvas width and height"):
                    RenderSpec(**spec)

    @pytest.mark.parametrize("field", ["samples_per_curve", "width", "height"])
    def test_sizes_must_be_integers(self, field):
        with pytest.raises(ParamError, match=f"^{field} must be an integer, got 128.5$"):
            RenderSpec(**{field: 128.5})
        spec = RenderSpec(**{field: np.int64(128)})
        assert getattr(spec, field) == 128 and type(getattr(spec, field)) is int

    def test_vertex_budget(self):
        # (rings + rays) * (samples + 1) vertices; the CLI default 36 * 257 fits
        RenderSpec(grid=DiskGrid(rings=12, rays=24, r_max=0.98), samples_per_curve=256)
        RenderSpec(grid=DiskGrid(rings=8, rays=8, r_max=0.9), samples_per_curve=MAX_GRID_POINTS // 16 - 1)
        with pytest.raises(GridTooLargeError):
            RenderSpec(grid=DiskGrid(rings=8, rays=8, r_max=0.9), samples_per_curve=MAX_GRID_POINTS // 16)
        with pytest.raises(GridTooLargeError):
            RenderSpec(grid=DiskGrid(rings=10**9, rays=10**9, r_max=0.9), samples_per_curve=10**9)


def test_fold_map_boundary_self_intersects():
    # non-member with a fold: the boundary polyline must cross itself
    bad = make_map(1, a={(2, 1): Fraction(4, 5)}, b={(1, 1): Fraction(4, 5)})
    assert helpers.polyline_self_intersections(boundary_polyline(bad)) > 0
