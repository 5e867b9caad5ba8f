import math
import tracemalloc
from fractions import Fraction

import pytest

from phmaps import (
    DiskGrid,
    ExtremalSpec,
    GridTooLargeError,
    ParamError,
    convolve,
    distortion_extremal,
    example_F1,
    example_F2,
    extremal_point,
    half_plane_map,
    hs_lambda,
    identity_map,
    make_map,
    membership,
    verify_geometry,
)
from phmaps.catalog import phase_coefficient
from phmaps.errors import MAX_GRID_POINTS
from phmaps.sampling import axis_coefficient, random_fraction


def test_example_coefficients():
    F1 = example_F1()
    assert F1.coeff_a(2, 1).re == Fraction(1, 10)
    assert F1.coeff_b(2, 1).re == Fraction(1, 5)
    F2 = example_F2()
    assert F2.coeff_a(2, 1).re == Fraction(1, 101)
    assert F2.coeff_b(2, 1).re == Fraction(49, 101)


def test_example_margins_are_zero():
    assert membership(example_F1(), hs_lambda(Fraction(2, 3))).row1_margin == 0
    assert membership(example_F2(), hs_lambda(Fraction(1, 100))).row1_margin == 0


class TestExtremalPoint:
    def test_known_slots(self):
        F = extremal_point(ExtremalSpec(n=2, k=1, lam=Fraction(2, 3)))
        assert F == make_map(1, a={(2, 1): Fraction(3, 10)})
        F = extremal_point(ExtremalSpec(n=2, k=1, lam=1))
        assert F == make_map(1, a={(2, 1): Fraction(1, 4)})
        F = extremal_point(ExtremalSpec(n=2, k=2, lam=0, kind="antianalytic"), p=2)
        assert F == make_map(2, b={(2, 2): Fraction(1, 4)})

    def test_margin_exactly_zero(self, rng):
        for _ in range(40):
            spec = ExtremalSpec(
                n=rng.randint(2, 9),
                k=rng.randint(1, 3),
                lam=Fraction(rng.randint(0, 12), 12),
                kind=rng.choice(("analytic", "antianalytic")),
            )
            F = extremal_point(spec, p=3)
            rep = membership(F, hs_lambda(spec.lam, normalized=True))
            assert rep.member and rep.row1_margin == 0 and rep.exact

    def test_starlike_on_default_grid(self):
        for spec in (
            ExtremalSpec(n=2, k=1, lam=0),
            ExtremalSpec(n=3, k=2, lam=Fraction(1, 2), kind="antianalytic"),
            ExtremalSpec(n=5, k=3, lam=1),
        ):
            F = extremal_point(spec, p=3)
            rep = verify_geometry(F, DiskGrid(), ("jacobian", "starlike", "injective"))
            assert rep.passed()

    def test_rejects_degree_one(self):
        with pytest.raises(ParamError):
            ExtremalSpec(n=1, k=1, lam=0)

    @pytest.mark.parametrize("field, value", [("n", 3.0), ("n", 2.5), ("k", 1.0), ("k", "1")])
    def test_degree_and_layer_must_be_integers(self, field, value):
        with pytest.raises(ParamError, match=f"^{field} must be an integer, got {value!r}$"):
            ExtremalSpec(**{"n": 3, "k": 1, "lam": 0, field: value})

    def test_layer_must_fit(self):
        with pytest.raises(ParamError):
            extremal_point(ExtremalSpec(n=2, k=3, lam=0), p=2)

    def test_phase_rotates_coefficient(self):
        F = extremal_point(ExtremalSpec(n=2, k=1, lam=0, phase=math.pi / 2))
        assert F.coeff_a(2, 1).im == Fraction(1, 2) and F.coeff_a(2, 1).re == 0

    def test_nondecomposable_smoke(self, rng):
        # no exact midpoint decomposition F = (G+H)/2 with G != H inside the class
        lam = Fraction(1, 3)
        F = extremal_point(ExtremalSpec(n=2, k=1, lam=lam), p=2)
        params = hs_lambda(lam, normalized=True)
        for _ in range(100):
            n, k = rng.randint(2, 6), rng.randint(1, 2)
            axis = rng.choice(("re", "im"))
            mag = random_fraction(rng, 20, Fraction(1, 40), Fraction(1, 4))
            delta = axis_coefficient(mag, axis, rng.choice((1, -1)))
            a_plus = dict(F.a)
            a_minus = dict(F.a)
            a_plus[(n, k)] = a_plus.get((n, k), axis_coefficient(0, "re")) + delta
            a_minus[(n, k)] = a_minus.get((n, k), axis_coefficient(0, "re")) - delta
            G = make_map(2, a=a_plus, b=F.b)
            H = make_map(2, a=a_minus, b=F.b)
            both_members = membership(G, params).member and membership(H, params).member
            assert not both_members


class TestHalfPlaneMap:
    def test_truncation_two_matches_known_form(self):
        assert half_plane_map(2) == make_map(
            1, a={(2, 1): Fraction(3, 2)}, b={(2, 1): Fraction(-1, 2)}
        )

    def test_truncation_one_is_identity(self):
        assert half_plane_map(1) == identity_map()

    def test_series_oracle(self):
        # expand f = z/(1-z) = sum z^n and g = z/(1-z)^2 = sum n z^n;
        # analytic part (f+g)/2, antianalytic part conj((f-g)/2)
        N = 12
        H = half_plane_map(N)
        for n in range(2, N + 1):
            assert H.coeff_a(n, 1).re == Fraction(1 + n, 2)
            assert H.coeff_b(n, 1).re == Fraction(1 - n, 2)

    def test_certificate_bounds_met_with_equality(self):
        H = half_plane_map(10)
        for n in range(2, 11):
            assert 2 * H.coeff_a(n, 1).magnitude() == n + 1
            assert 2 * H.coeff_b(n, 1).magnitude() == n - 1

    def test_convolution_with_example(self):
        out = convolve(example_F1(), half_plane_map(8))
        assert out == make_map(1, a={(2, 1): Fraction(3, 20)}, b={(2, 1): Fraction(-1, 10)})

    def test_rejects_bad_truncation(self):
        with pytest.raises(ParamError):
            half_plane_map(0)

    def test_degree_budget_checked_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLargeError, match=f"^truncation degree {10**12} exceeds {MAX_GRID_POINTS}$"):
                half_plane_map(10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        with pytest.raises(GridTooLargeError):
            half_plane_map(MAX_GRID_POINTS + 1)
        assert half_plane_map(MAX_GRID_POINTS).coeff_a(MAX_GRID_POINTS, 1).re == Fraction(MAX_GRID_POINTS + 1, 2)


def test_phase_coefficient_quarter_turns_are_exact():
    m = Fraction(2, 7)
    assert phase_coefficient(m, 0.0) == axis_coefficient(m, "re")
    assert phase_coefficient(m, math.pi / 2) == axis_coefficient(m, "im")
    assert phase_coefficient(m, math.pi) == axis_coefficient(m, "re", -1)
    assert phase_coefficient(m, -math.pi / 2) == axis_coefficient(m, "im", -1)
    c = phase_coefficient(m, 1.0)
    assert isinstance(c.re, float)
    assert abs(complex(c.re, c.im) - float(m) * complex(math.cos(1), math.sin(1))) < 1e-15


def test_phase_coefficient_snaps_only_true_quarter_turns():
    # past |phase/(pi/2)| = 2**52 every float divides to an integer; e^{1e16 i} is -0.626+0.780i
    c = phase_coefficient(1, 1e16)
    assert abs(complex(c.re, c.im) - complex(math.cos(1e16), math.sin(1e16))) < 1e-15


@pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
def test_non_finite_phase_raises_param_error(phase):
    for build in (lambda: phase_coefficient(Fraction(1, 2), phase),
                  lambda: extremal_point(ExtremalSpec(n=2, k=1, lam=Fraction(1, 2), phase=phase)),
                  lambda: distortion_extremal(Fraction(1, 4), Fraction(1, 4), phases=(0.0, phase)),
                  lambda: distortion_extremal(1, Fraction(1, 8), Fraction(1, 10), phases=(phase, 0.0, 0.0))):
        with pytest.raises(ParamError, match="^phase must be finite"):
            build()
