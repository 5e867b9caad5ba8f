import itertools
import math
import os
import random
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from phmaps import (
    DiskGrid,
    DistortionReport,
    ExtremalSpec,
    GridTooLargeError,
    NonFiniteError,
    NotMemberError,
    ParamError,
    convexity_radius,
    distortion_check,
    distortion_envelope,
    distortion_extremal,
    evaluate,
    example_F1,
    example_F2,
    extremal_point,
    half_plane_map,
    hs_lambda,
    identity_map,
    jacobian,
    layer_bound_check,
    make_map,
    membership,
    rescale,
    rescale_convexity_certificate,
    theta_derivative,
    verify_geometry,
    wirtinger_derivatives,
)
from phmaps import geometry
from phmaps.exact import as_scalar
from phmaps.geometry import (ALL_CHECKS, EPS_ZERO, MAX_GRID_POINTS, SIGN_TOL, _collision_count, _d_theta, _d_wirtinger,
                             _injectivity_certified, _monomials)
from phmaps.sampling import random_member, random_valid_map
from phmaps.series import Coefficient, PolyharmonicMap


def random_interior_points(npr, count):
    r = npr.uniform(0.1, 0.9, count)
    return r * np.exp(1j * npr.uniform(0, 2 * np.pi, count))


class TestEvaluate:
    def test_identity(self):
        assert evaluate(identity_map(), 0.3 + 0.4j) == 0.3 + 0.4j

    def test_example_at_one(self):
        assert evaluate(example_F1(), 1.0) == pytest.approx(1.3)

    def test_second_layer_symbolic(self):
        # z + |z|^2 z maps r e^{i t} to (r + r^3) e^{i t}
        F = make_map(2, a={(1, 2): 1})
        for r, t in [(0.5, 0.0), (0.8, 2.1), (0.3, -1.0)]:
            z = r * np.exp(1j * t)
            assert evaluate(F, z) == pytest.approx((r + r**3) * np.exp(1j * t))

    def test_vectorized_matches_scalar(self):
        F = example_F2()
        zs = np.array([0.1 + 0.2j, -0.5j, 0.7])
        vec = evaluate(F, zs)
        for i, z in enumerate(zs):
            assert vec[i] == evaluate(F, complex(z))

    def test_rescale_consistency(self, rng):
        npr = np.random.default_rng(3)
        for _ in range(20):
            F = random_valid_map(rng, p=rng.randint(1, 3))
            r = Fraction(rng.randint(1, 9), 10)
            z = random_interior_points(npr, 50)
            lhs = evaluate(rescale(F, r), z)
            rhs = evaluate(F, float(r) * z) / float(r)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestThetaDerivative:
    def test_identity_order_one(self):
        val = theta_derivative(identity_map(), 0.5, 0.7, 1)
        assert val == pytest.approx(1j * 0.5 * np.exp(0.7j))

    def test_example_term_rule(self):
        r, t = 0.6, 1.1
        expected = (
            1j * r * np.exp(1j * t)
            + 2j / 10 * r**2 * np.exp(2j * t)
            - 2j / 5 * r**2 * np.exp(-2j * t)
        )
        assert theta_derivative(example_F1(), r, t, 1) == pytest.approx(expected, abs=1e-15)

    def test_against_finite_differences(self, rng):
        npr = np.random.default_rng(5)
        for _ in range(10):
            F = random_valid_map(rng, p=rng.randint(1, 3), max_degree=8)
            r = npr.uniform(0.1, 0.9, 20)
            t = npr.uniform(0, 2 * np.pi, 20)
            for order in (1, 2):
                cf = theta_derivative(F, r, t, order)
                fd = helpers.fd_theta_derivative(F, r, t, order)
                scale = np.maximum(1.0, np.abs(cf))
                assert np.max(np.abs(cf - fd) / scale) < 1e-7

    def test_order_validation(self):
        with pytest.raises(ParamError):
            theta_derivative(identity_map(), 0.5, 0.0, 3)


def theta_rate(F, r, theta, order):
    """Im(D^order F / D^(order-1) F) at r e^{i theta}, D = d/dtheta: the arg rate (order 1)
    or the convexity rate (order 2) at single points."""
    den = evaluate(F, r * np.exp(1j * theta)) if order == 1 else theta_derivative(F, r, theta, 1)
    return np.imag(theta_derivative(F, r, theta, order) / den)


class TestArgDerivative:
    def test_identity_is_one(self):
        t = np.linspace(0, 2 * np.pi, 64)
        assert np.allclose(theta_rate(identity_map(), 0.9, t, 1), 1.0)

    def test_example_positive_near_boundary(self):
        rep = verify_geometry(example_F1(), DiskGrid(1, 4096, 0.999), ("starlike",))
        assert rep.min_arg_derivative.value > 0

    def test_against_unwrapped_argument(self):
        F = make_map(1, b={(1, 1): Fraction(9, 10)})
        t = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
        w = evaluate(F, 0.5 * np.exp(1j * t))
        fd = np.gradient(np.unwrap(np.angle(w)), t)
        cf = theta_rate(F, 0.5, t, 1)
        # np.gradient is only O(h^2) and the rate spikes near the squeezed axis
        assert np.max(np.abs(cf - fd) / np.maximum(1.0, np.abs(cf))) < 1e-3
        assert np.array_equal(np.sign(cf), np.sign(fd))


class TestConvexityIndicator:
    def test_identity_is_one(self):
        assert theta_rate(identity_map(), 0.5, 1.0, 2) == pytest.approx(1.0)

    def test_example_one_convex_radius(self):
        rep = verify_geometry(example_F1(), DiskGrid(1, 4096, 2 / 3), ("convex",))
        assert rep.min_convexity_indicator.value >= -1e-9

    def test_example_two_convex_radius(self):
        rep = verify_geometry(example_F2(), DiskGrid(1, 4096, 0.5), ("convex",))
        assert rep.min_convexity_indicator.value >= -1e-9


class TestWirtinger:
    def test_identity(self):
        assert wirtinger_derivatives(identity_map(), 0.3 + 0.1j) == (1 + 0j, 0j)

    def test_example_closed_form(self):
        z = 0.25 - 0.6j
        fz, fzb = wirtinger_derivatives(example_F1(), z)
        assert fz == pytest.approx(1 + z / 5)
        assert fzb == pytest.approx(2 * np.conj(z) / 5)

    def test_second_layer_symbolic(self):
        F = make_map(2, a={(1, 2): 1})
        z = 0.4 + 0.3j
        fz, fzb = wirtinger_derivatives(F, z)
        assert fz == pytest.approx(1 + 2 * abs(z) ** 2)
        assert fzb == pytest.approx(z**2)

    def test_finite_at_origin(self):
        F = make_map(2, a={(1, 2): Fraction(1, 4)}, b={(3, 2): Fraction(1, 9)})
        fz, fzb = wirtinger_derivatives(F, 0j)
        assert np.isfinite([fz, fzb]).all()
        assert fz == 1 + 0j

    def test_against_finite_differences(self, rng):
        npr = np.random.default_rng(9)
        for _ in range(10):
            F = random_valid_map(rng, p=rng.randint(1, 3), max_degree=8)
            z = random_interior_points(npr, 20)
            fz, fzb = wirtinger_derivatives(F, z)
            fz_fd, fzb_fd = helpers.fd_wirtinger(F, z)
            scale = np.maximum(1.0, np.abs(fz) + np.abs(fzb))
            assert np.max(np.abs(fz - fz_fd) / scale) < 1e-7
            assert np.max(np.abs(fzb - fzb_fd) / scale) < 1e-7

    def test_jacobian_identity(self):
        assert jacobian(identity_map(), 0.5 + 0.2j) == pytest.approx(1.0)


class TestVerifyGeometry:
    def test_identity_grid(self):
        rep = verify_geometry(identity_map(), DiskGrid(16, 64, 0.9))
        assert rep.min_jacobian.value == pytest.approx(1.0)
        assert rep.min_arg_derivative.value == pytest.approx(1.0)
        assert rep.min_convexity_indicator.value == pytest.approx(1.0)
        assert rep.injectivity_collisions == 0
        assert rep.passed()
        # tie-break: constant fields argmin at lowest ring, lowest ray
        assert (rep.min_jacobian.ring, rep.min_jacobian.ray) == (0, 0)

    def test_examples_starlike_and_injective(self):
        grid = DiskGrid(32, 256, 0.995)
        for F in (example_F1(), example_F2()):
            rep = verify_geometry(F, grid, ("jacobian", "starlike", "injective"))
            assert rep.min_jacobian.value > 0
            assert rep.min_arg_derivative.value > 0
            assert rep.injectivity_collisions == 0

    def test_fold_map_collides(self):
        bad = make_map(1, a={(2, 1): Fraction(4, 5)}, b={(1, 1): Fraction(4, 5)})
        rep = verify_geometry(bad, DiskGrid(32, 256, 0.995), ("jacobian", "injective"))
        assert rep.min_jacobian.value < 0
        assert rep.injectivity_collisions > 0

    @pytest.mark.parametrize("r_max", [1e-11, 1e-100, 1e-290])
    def test_tiny_disk_is_not_degenerate(self, r_max):
        # degeneracy is |F| or |F_theta| <= EPS_ZERO r: the identity has |F| = |F_theta| = r
        rep = verify_geometry(identity_map(), DiskGrid(32, 256, r_max), ("starlike", "convex"))
        assert rep.passed() and rep.min_arg_derivative.value == pytest.approx(1.0)
        assert rep.min_convexity_indicator.value == pytest.approx(1.0)

    def test_interior_zero_recorded_as_neg_inf(self):
        F = make_map(1, a={(2, 1): -2})  # zero at z = 1/2
        rep = verify_geometry(F, DiskGrid(3, 8, 0.75), ("starlike",))
        assert rep.min_arg_derivative.value == -np.inf
        assert not rep.passed()

    def test_grid_budget(self):
        with pytest.raises(GridTooLargeError):
            verify_geometry(identity_map(), DiskGrid(256, 256, 0.9))

    def test_grid_budget_checked_before_allocating(self):
        # the points are counted from rings and rays, so no per-ring array is built first
        grid = DiskGrid(4_000_000, 3)
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLargeError, match="^4000000x3 grid exceeds"):
                verify_geometry(identity_map(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # 4 x 8192 points fit, 5 x 8192 do not
        with pytest.raises(GridTooLargeError, match="^5x8192 grid exceeds"):
            verify_geometry(identity_map(), DiskGrid(5, 8192))
        verify_geometry(identity_map(), DiskGrid(4, 8192), ("jacobian",))

    @pytest.mark.parametrize("F,grid,checks", [
        (random_member(random.Random(3), 2, Fraction(1, 2)), DiskGrid(32, 256, 0.995),
         ("jacobian", "starlike", "convex", "injective")),
        (example_F1(), DiskGrid(32, 1024, 0.995), ("jacobian", "starlike", "convex")),
    ], ids=["certified-member-all-32x256", "f1-grid-checks-32x1024"])
    def test_working_memory_stays_under_four_grids(self, F, grid, checks):
        # numpy reports its buffers to tracemalloc; holding every quantity to the end peaks at 7.6 grids.
        # The four grids are the thread's workspace: a cold call, in a new thread, builds it and
        # allocates under one grid besides; a warm call reuses it and allocates under one grid.
        grid_bytes = grid.rings * grid.rays * 16
        if "injective" in checks:
            assert _injectivity_certified(_monomials(F), grid)
        verify_geometry(F, grid, checks)  # one-time imports stay out of both peaks
        peaks = []

        def measure():
            tracemalloc.start()
            try:
                verify_geometry(F, grid, checks)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        cold = threading.Thread(target=measure)
        cold.start()
        cold.join()
        measure()  # warm: this thread's workspace is built already
        cold_peak, warm_peak = peaks
        assert cold_peak - 4 * grid_bytes < grid_bytes
        assert warm_peak < grid_bytes

    def test_grid_validation(self):
        with pytest.raises(ParamError):
            DiskGrid(0, 64, 0.9)
        with pytest.raises(ParamError):
            DiskGrid(4, 2, 0.9)
        with pytest.raises(ParamError):
            DiskGrid(4, 64, 1.0)
        with pytest.raises(ParamError):  # innermost ray spacing ~7.7e-304 < 2**-1000
            DiskGrid(32, 256, 1e-300)
        assert DiskGrid(32, 256, 1e-290).r_max == 1e-290

    def test_exact_r_max_is_stored_as_float(self):
        grid = DiskGrid(4, 16, Fraction(99, 100))
        assert type(grid.r_max) is float and grid.radii().dtype == np.float64
        assert verify_geometry(example_F1(), grid).to_kv() == verify_geometry(example_F1(), DiskGrid(4, 16, 0.99)).to_kv()
        with pytest.raises(ParamError, match=r"^r_max must lie in \(0,1\), got \[401 digits\]$"):
            DiskGrid(4, 16, 10**400)  # compared exactly, before converting
        with pytest.raises(ParamError, match=r"^r_max=\[30/31 digits\] rounds to 1.0 in float64$"):
            DiskGrid(4, 16, Fraction(10**30 - 1, 10**30))  # below 1, but not as a float

    def test_unknown_check_names_raise(self):
        with pytest.raises(ParamError, match="^unknown checks: 'convx'$"):
            verify_geometry(example_F1(), DiskGrid(4, 16, 0.99), ("starlike", "convx"))

    @pytest.mark.parametrize("field", ["rings", "rays"])
    def test_sizes_must_be_integers(self, field):
        # a 2.5-ring grid would put a ring at 1.08, outside the disk; 8.5 rays would not match the FFT
        sizes = {"rings": 4, "rays": 8}
        with pytest.raises(ParamError, match=f"^{field} must be an integer, got 2.5$"):
            DiskGrid(**{**sizes, field: 2.5}, r_max=0.9)
        grid = DiskGrid(**{**sizes, field: np.int64(5)}, r_max=0.9)
        assert getattr(grid, field) == 5 and type(getattr(grid, field)) is int

    def test_report_serialization(self):
        rep = verify_geometry(identity_map(), DiskGrid(4, 8, 0.9))
        kv = dict(line.split("=", 1) for line in rep.to_kv().splitlines())
        assert kv["passed"] == "true" and kv["injectivity_collisions"] == "0"

    def test_deterministic(self):
        rep1 = verify_geometry(example_F2(), DiskGrid(16, 128, 0.99))
        rep2 = verify_geometry(example_F2(), DiskGrid(16, 128, 0.99))
        assert rep1.to_kv() == rep2.to_kv()

    def test_minima_attained_at_recorded_points(self):
        grid = DiskGrid(16, 128, 0.99)
        rep = verify_geometry(example_F1(), grid)

        def where(ext):
            return grid.radii()[ext.ring], grid.angles()[ext.ray]

        ext = rep.min_arg_derivative
        assert theta_rate(example_F1(), *where(ext), 1) == pytest.approx(ext.value)
        ext = rep.min_convexity_indicator
        assert theta_rate(example_F1(), *where(ext), 2) == pytest.approx(ext.value)
        ext = rep.min_jacobian
        r, theta = where(ext)
        assert jacobian(example_F1(), r * np.exp(1j * theta)) == pytest.approx(ext.value)


OVERFLOW = make_map(1, a={(2, 1): 1e308, (3, 1): 1e308}, b={(2, 1): 1e308})  # coefficients overflow float64


@pytest.mark.parametrize("check,quantity", [("jacobian", "Jacobian"), ("starlike", "F"), ("convex", "F_theta"),
                                            ("injective", "F")])
def test_non_finite_grid_values_raise(check, quantity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(NonFiniteError, match=rf"^{quantity} is NaN or infinite at grid ring \d+, ray \d+$"):
            verify_geometry(OVERFLOW, DiskGrid(32, 256, 0.995), (check,))


def test_image_too_wide_for_float_distances_raises():
    # F is finite on the grid, but its extent (about 2e308) and distances overflow
    F = make_map(1, a={(2, 1): 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="too wide for float64"):
            verify_geometry(F, DiskGrid(32, 256, 0.995), ("injective",))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="too wide for float64"):
        _collision_count(np.array([[-1e308, 1e308, 0], [1j, 2j, 3j]]))  # finite, but 2e308 wide


def test_exact_coefficient_beyond_float_raises():
    F = make_map(1, a={(2, 1): 10**400})
    for compute in (lambda: evaluate(F, 0.5), lambda: theta_derivative(F, 0.5, 0.0),
                    lambda: verify_geometry(F, DiskGrid(4, 8, 0.9), ("starlike",))):
        with pytest.raises(NonFiniteError, match="overflows float64"):
            compute()


class TestDistortion:
    def test_identity_envelope_low_branch(self):
        env = distortion_envelope(identity_map(), 0)
        r = np.linspace(0, 1, 11)
        assert np.allclose(env.lower(r), r - r**2 / 2)
        assert np.allclose(env.upper(r), r + r**2 / 2)
        assert env.branch == "low"

    def test_example_upper_high_branch(self):
        env = distortion_envelope(example_F1(), Fraction(2, 3))
        assert env.branch == "high"
        assert env.upper(0.5) == pytest.approx(0.5 + 0.3 * 0.25)

    def test_envelope_nesting_and_origin(self, rng):
        for _ in range(20):
            lam = Fraction(rng.randint(0, 10), 10)
            F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5)
            env = distortion_envelope(F, lam)
            r = np.linspace(0, 1, 33)
            assert env.lower(0) == env.upper(0) == 0
            assert np.all(env.lower(r) <= env.upper(r) + 1e-15)

    def test_envelope_bounds_hold(self, rng):
        npr = np.random.default_rng(21)
        for lam in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            for _ in range(30):
                F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5)
                env = distortion_envelope(F, lam)
                r = npr.uniform(0, 0.999, 500)
                mags = np.abs(evaluate(F, r * np.exp(1j * npr.uniform(0, 2 * np.pi, 500))))
                assert np.all(mags >= env.lower(r) - 1e-12)
                assert np.all(mags <= env.upper(r) + 1e-12)

    def test_requires_membership(self):
        with pytest.raises(NotMemberError):
            distortion_envelope(make_map(1, a={(2, 1): 1}), Fraction(1, 2))

    def test_bounds_match_the_numpy_reference_bit_for_bit(self, rng):
        r = np.random.default_rng(8).uniform(0, 1, 257)
        for _ in range(20):
            lam = Fraction(rng.randint(0, 10), 10)
            env = distortion_envelope(random_member(rng, rng.randint(1, 3), lam), lam)
            for bound, coeffs in ((env.lower, env.lower_coeffs), (env.upper, env.upper_coeffs)):
                want = helpers.reference_cubic(coeffs, r).tolist()
                assert bound(r).tolist() == want == [bound(x) for x in r.tolist()]
                assert [bound(Fraction(x)) for x in r[:8].tolist()] == want[:8]


class TestDistortionCheck:
    def test_report_lines(self):
        rep = distortion_check(example_F1(), Fraction(2, 3))
        lines = rep.to_kv().splitlines()
        assert [line.split("=")[0] for line in lines] == [
            "distortion_branch", "distortion_lower_margin", "distortion_upper_margin", "distortion_ok"]
        assert lines[0] == "distortion_branch=high" and lines[3] == "distortion_ok=true"
        assert rep.passed() and rep.lower_margin >= -1e-12 and rep.upper_margin >= -1e-12

    def test_margins_are_sampled_envelope_gaps(self):
        F, lam = example_F2(), Fraction(1, 100)
        rep = distortion_check(F, lam, samples=300, seed=5)
        npr = np.random.default_rng(5)
        r = npr.uniform(0.0, 0.999, 300)
        mags = np.abs(evaluate(F, r * np.exp(1j * npr.uniform(0.0, 2.0 * np.pi, 300))))
        env = distortion_envelope(F, lam)
        assert rep.branch == "low"
        assert rep.lower_margin == float(np.min(mags - env.lower(r)))
        assert rep.upper_margin == float(np.min(env.upper(r) - mags))

    def test_pass_threshold(self):
        assert DistortionReport("low", -1e-12, 0.0).passed()
        for rep in (DistortionReport("low", -2e-12, 1.0), DistortionReport("high", 1.0, -2e-12)):
            assert not rep.passed() and rep.to_kv().endswith("distortion_ok=false")

    def test_requires_membership(self):
        with pytest.raises(NotMemberError):
            distortion_check(make_map(1, a={(2, 1): 1}), Fraction(1, 2))


@pytest.mark.parametrize("check", [distortion_check])
def test_sample_budget(check):
    # rejected before any sample is drawn, so the huge count allocates nothing
    with pytest.raises(GridTooLargeError, match=f"^{10**12} samples exceed {MAX_GRID_POINTS}$"):
        check(example_F1(), Fraction(2, 3), samples=10**12)
    with pytest.raises(GridTooLargeError):
        check(example_F1(), Fraction(2, 3), samples=MAX_GRID_POINTS + 1)
    check(example_F1(), Fraction(2, 3), samples=MAX_GRID_POINTS)
    for samples in (0, -5):
        with pytest.raises(ParamError, match="samples must be >= 1"):
            check(example_F1(), Fraction(2, 3), samples=samples)


class TestDistortionExtremal:
    def test_low_branch_forms(self):
        assert distortion_extremal(0, 0) == make_map(1, a={(2, 1): Fraction(1, 2)})
        assert distortion_extremal(1, 0, 0, 0) == make_map(1, a={(2, 1): Fraction(1, 4)})

    def test_high_branch_degenerate_quadratic(self):
        F = distortion_extremal(1, 0, Fraction(1, 3), 0)
        assert F == make_map(2, a={(1, 2): Fraction(1, 3)})

    def test_attains_upper_bound_on_positive_axis(self):
        for lam in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            E = distortion_extremal(lam, Fraction(1, 4))
            env = distortion_envelope(E, lam)
            for r in np.arange(0.1, 1.0, 0.1):
                assert abs(abs(evaluate(E, r)) - env.upper(r)) <= 1e-12
        for lam in (Fraction(3, 4), Fraction(1)):
            E = distortion_extremal(lam, Fraction(1, 8), Fraction(1, 10), Fraction(1, 10))
            env = distortion_envelope(E, lam)
            for r in np.arange(0.1, 1.0, 0.1):
                assert abs(abs(evaluate(E, r)) - env.upper(r)) <= 1e-12

    def test_phases_per_branch(self):
        # b11 takes -phases[0], z^2 phases[1] and the z|z|^2 slot phases[2]
        low = distortion_extremal(Fraction(1, 4), Fraction(1, 4), phases=(0.0, math.pi / 2))
        assert low == make_map(1, a={(2, 1): (0, Fraction(3, 10))}, b={(1, 1): Fraction(1, 4)})
        high = distortion_extremal(1, Fraction(1, 8), Fraction(1, 10), phases=(-math.pi / 2, 0.0, math.pi))
        assert high == make_map(2, a={(2, 1): Fraction(23, 160), (1, 2): Fraction(-1, 10)}, b={(1, 1): (0, Fraction(1, 8))})
        for lam, phases in ((Fraction(1, 4), (0.0, 0.0, 0.0)), (0, ()), (1, (0.0, 0.0))):
            with pytest.raises(ValueError, match="phases"):
                distortion_extremal(lam, 0, phases=phases)

    def test_branch_consistency_enforced(self):
        with pytest.raises(ParamError):
            distortion_extremal(Fraction(1, 4), 0, Fraction(1, 10), 0)
        with pytest.raises(ParamError):
            distortion_extremal(1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))
        with pytest.raises(ParamError):
            distortion_extremal(0, 1)


def layer_slack(F, lam):
    """c2 - max_k tail_k over the layers F has, in plain arithmetic on F's entries."""
    c2 = (1 - F.coeff_b(1, 1).magnitude()) / (2 * (1 + as_scalar(lam)))
    tails = {k: 0 for _, k in (*F.a, *F.b)}
    for n, k in F.a.keys() | F.b.keys():
        if n >= 2:
            tails[k] += F.coeff_a(n, k).magnitude() + F.coeff_b(n, k).magnitude()
    return c2 - max(tails.values())


@st.composite
def layer_cases(draw):
    """An exact member of hs-lambda (tight or not, normalized or not, p <= 3, lambda on a
    1/100 grid), possibly turned off-axis to irrational magnitudes, and a check lambda,
    mostly the member's own; a larger one can make it a non-member."""
    lam = Fraction(draw(st.integers(0, 100)), 100)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    F = random_member(rng, draw(st.integers(1, 3)), lam, normalized=draw(st.booleans()), tight=draw(st.booleans()))
    if draw(st.booleans()):
        F = helpers.off_axis(F, helpers.IRRATIONAL_TURN)
    if draw(st.integers(0, 4)) == 0:
        lam = Fraction(draw(st.integers(0, 100)), 100)
    return F, lam


class TestLayerBound:
    def test_identity(self):
        assert layer_bound_check(identity_map(), 0)

    def test_example(self):
        assert layer_bound_check(example_F1(), Fraction(2, 3))

    def test_random_members_low_lambda(self, rng):
        for _ in range(50):
            lam = Fraction(rng.randint(0, 10), 20)  # lambda <= 1/2
            F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5)
            assert layer_bound_check(F, lam, samples=200, seed=1)

    def test_high_lambda_runs_without_assertion(self, rng):
        # the coefficient proof covers lambda > 1/2 as well
        F = random_member(rng, 2, Fraction(9, 10), normalized=False)
        assert layer_bound_check(F, Fraction(9, 10), samples=100, seed=2)

    def test_requires_membership(self):
        with pytest.raises(NotMemberError):
            layer_bound_check(make_map(1, a={(2, 1): 1}), Fraction(1, 4))

    def test_absent_layers_cost_nothing(self):
        # a billion layers, of which only the first carries a coefficient
        start = time.perf_counter()
        assert layer_bound_check(make_map(10**9), Fraction(1, 2))
        assert time.perf_counter() - start < 1.0

    def test_verdict_flips_at_the_layer_excess(self, rng):
        # the verdict flips where tol crosses the coefficient slack c2 - max_k tail_k
        for _ in range(6):
            lam = Fraction(rng.randint(0, 10), 10)
            F = random_member(rng, rng.randint(2, 3), lam, tight=rng.random() < 0.5)
            slack = layer_slack(F, lam)
            assert layer_bound_check(F, lam, tol=-slack + 1e-9)
            assert not layer_bound_check(F, lam, tol=-slack - 1e-9)

    @given(layer_cases())
    def test_coefficients_decide_as_the_sampled_loop(self, case):
        F, lam = case
        if not membership(F, hs_lambda(lam)).member:
            for check in (layer_bound_check, helpers.reference_layer_bound_check):
                with pytest.raises(NotMemberError):
                    check(F, lam)
            return
        assert layer_slack(F, lam) >= 0
        assert layer_bound_check(F, lam)
        assert helpers.reference_layer_bound_check(F, lam, samples=1000)

    def test_exact_at_a_zero_slack(self):
        # z + z^2/4 at lambda = 1: tail = c2 = 1/4, decided without rounding
        F = extremal_point(ExtremalSpec(n=2, k=1, lam=1))
        assert layer_slack(F, 1) == 0
        assert layer_bound_check(F, Fraction(1), tol=0)
        assert not layer_bound_check(F, Fraction(1), tol=-1e-300)

    def test_float_maps_decide_as_the_sampled_loop(self):
        """Float coefficients (some perturbed in the last bits) and float lambda, fixed seeds."""
        rng = random.Random(20132)
        for _ in range(200):
            lam = Fraction(rng.randint(0, 100), 100)
            F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5, tight=rng.random() < 0.5)
            wobble = rng.choice((0.0, 1e-15))
            a = {key: (float(c.re) * (1 + rng.uniform(-wobble, wobble)), float(c.im)) for key, c in F.a.items()
                 if key != (1, 1)}
            F = make_map(F.p, a=a, b={key: (float(c.re), float(c.im)) for key, c in F.b.items()})
            for check_lam in (lam, float(lam)):
                outcomes = []
                for check in (layer_bound_check, helpers.reference_layer_bound_check):
                    try:
                        outcomes.append(check(F, check_lam))
                    except NotMemberError:
                        outcomes.append(NotMemberError)
                assert outcomes[0] == outcomes[1], (F, check_lam)


class TestConvexityRadius:
    def test_values(self):
        assert convexity_radius(Fraction(2, 3)) == Fraction(2, 3)
        assert convexity_radius(Fraction(1, 100)) == Fraction(1, 2)
        assert convexity_radius(Fraction(1, 2)) == Fraction(1, 2)

    def test_certificates(self):
        assert rescale_convexity_certificate(example_F1(), Fraction(2, 3), Fraction(2, 3))
        assert rescale_convexity_certificate(example_F2(), Fraction(1, 100), Fraction(1, 2))
        assert rescale_convexity_certificate(identity_map(), Fraction(1, 4), Fraction(1, 2))

    def test_certified_rescalings_are_convex(self, rng):
        circle = DiskGrid(1, 4096, 0.999)
        for _ in range(10):
            lam = Fraction(rng.randint(0, 12), 12)
            F = random_member(rng, rng.randint(1, 2), lam, normalized=True)
            r = convexity_radius(lam)
            if rescale_convexity_certificate(F, lam, r):
                rep = verify_geometry(rescale(F, r), circle, ("convex",))
                assert rep.min_convexity_indicator.value >= -1e-9

    def test_radius_domain(self):
        with pytest.raises(ParamError):
            rescale_convexity_certificate(example_F1(), Fraction(2, 3), Fraction(3, 4))
        with pytest.raises(NotMemberError):
            rescale_convexity_certificate(make_map(1, a={(2, 1): 1}), Fraction(1, 2), Fraction(1, 2))


# --- the grid kernel ----------------------------------------------------------


def kernel_grid(F, grid):
    """(F, F_theta, F_thetatheta, Jacobian) on the grid from the monomial table and per-ring FFTs."""
    table, radii, rays = _monomials(F), grid.radii(), grid.rays
    fz, fzb = (helpers.on_grid(t, radii, rays) for t in _d_wirtinger(table))
    return (helpers.on_grid(table, radii, rays), helpers.on_grid(_d_theta(table, 1), radii, rays),
            helpers.on_grid(_d_theta(table, 2), radii, rays), np.abs(fz) ** 2 - np.abs(fzb) ** 2)


def kernel_maps():
    rng = random.Random(0x6E1D)
    maps = [
        ("f1", example_F1()),
        ("f2", example_F2()),
        *[(f"identity-{p}", identity_map(p)) for p in (1, 2, 3)],
        ("extremal", extremal_point(ExtremalSpec(n=3, k=2, lam=Fraction(1, 2), phase=0.7))),
        ("distortion", distortion_extremal(Fraction(3, 4), Fraction(1, 5), Fraction(1, 10), Fraction(1, 20),
                                           phases=(0.3, 1.1, -2.0))),
        *[(f"half-plane-{n}", half_plane_map(n)) for n in range(2, 17)],
    ]
    for p in (1, 2, 3, 4):
        maps.append((f"member-p{p}", random_member(rng, p, Fraction(rng.randint(0, 100), 100))))
        maps.append((f"offaxis-p{p}", random_valid_map(rng, p=p, max_degree=6, allow_offaxis=True)))
    return maps


KERNEL_MAPS = kernel_maps()
KERNEL_GRIDS = [
    DiskGrid(32, 256, 0.995),
    DiskGrid(32, 1024, 0.995),
    DiskGrid(16, 256, 0.99),
    DiskGrid(6, 3, 0.9),
    DiskGrid(6, 7, 0.95),
    DiskGrid(10, 100, 0.99),
]
BLOCKED = DiskGrid(4096, 8, 0.99)  # more rings than one spectrum block holds for the wider supports


def checked_fields(grid, w, d1, d2, jac):
    """Jacobian, arg rate and convexity rate as verify_geometry minimises them (-inf where
    degenerate: |F| or |F_theta| at most EPS_ZERO times the ring radius)."""
    degenerate = EPS_ZERO * grid.radii()[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(np.abs(w) <= degenerate, -np.inf, np.imag(d1 / w))
        conv = np.where(np.abs(d1) <= degenerate, -np.inf, np.imag(d2 / d1))
    return jac, arg, conv


def close(values, ref, tol=1e-9):
    return np.max(np.abs(values - ref) / np.maximum(1.0, np.abs(ref))) <= tol


def grid_id(grid):
    return f"{grid.rings}x{grid.rays}"


class TestGridKernel:
    @pytest.mark.parametrize("grid", KERNEL_GRIDS + [BLOCKED], ids=grid_id)
    def test_matches_term_loops(self, grid):
        for name, F in KERNEL_MAPS:
            for got, ref in zip(kernel_grid(F, grid), helpers.term_loop_grid(F, grid)):
                assert close(got, ref), name

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=grid_id)
    def test_matches_finite_differences(self, grid):
        # the O(step^2) error of the difference quotients stays under 1e-9 only at low degree
        z, r, theta = grid.points(), grid.radii()[:, None], grid.angles()[None, :]
        for name, F in KERNEL_MAPS:
            if F.max_degree > 4:
                continue
            w, d1, d2, jac = kernel_grid(F, grid)
            fz, fzb = helpers.fd_wirtinger(F, z)
            assert close(d1, helpers.fd_theta_derivative(F, r, theta, 1)), name
            assert close(d2, helpers.fd_theta_derivative(F, r, theta, 2)), name
            assert close(jac, np.abs(fz) ** 2 - np.abs(fzb) ** 2), name

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=grid_id)
    def test_report_matches_term_loop_reference(self, grid):
        passes = (lambda m: m > 0, lambda m: m > 0, lambda m: m >= SIGN_TOL)
        for name, F in KERNEL_MAPS:
            rep = verify_geometry(F, grid)
            assert rep.injectivity_collisions == _collision_count(evaluate(F, grid.points())), name
            extrema = (rep.min_jacobian, rep.min_arg_derivative, rep.min_convexity_indicator)
            old = checked_fields(grid, *helpers.term_loop_grid(F, grid))
            new = checked_fields(grid, *kernel_grid(F, grid))
            for ext, ref, values, ok in zip(extrema, old, new, passes):
                assert ext.value == values.min() and ok(ext.value) == ok(ref.min()), name
                # an argmin may move between tied points, but the old one is as low to rounding
                at_old = values.flat[np.argmin(ref)]
                assert at_old == ext.value or at_old - ext.value <= 1e-9 * max(1.0, abs(ext.value)), name


# --- the pointwise kernel --------------------------------------------------------

signed_parts = st.floats(min_value=-1, max_value=1) | st.sampled_from((0.0, -0.0))


@st.composite
def signed_zero_maps(draw):
    """A map of up to three layers with float parts, +0.0 and -0.0 among them."""
    p = draw(st.integers(1, 3))
    keys = st.tuples(st.integers(1, 6), st.integers(1, p)).filter(lambda nk: nk != (1, 1))
    entry = st.builds(Coefficient, signed_parts, signed_parts)
    a = draw(st.dictionaries(keys, entry, max_size=8))
    b = draw(st.dictionaries(keys, entry, max_size=8))
    if draw(st.booleans()):
        b11 = draw(entry)
        b[(1, 1)] = Coefficient(b11.re / 2, b11.im / 2)  # |b11| <= 1/sqrt(2)
    return PolyharmonicMap(p, {(1, 1): Coefficient(1, 0), **a}, b)


def bits(values) -> np.ndarray:
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


@given(signed_zero_maps())
def test_evaluate_matches_the_reference_loop_bit_for_bit(F):
    z = DiskGrid(4, 16, 0.9).points()
    for points in (z, z[1], np.asarray(z[2, 5]), complex(z[3, 7]), 0j, complex(-0.0, -0.0), np.asarray(0j)):
        got, want = evaluate(F, points), helpers.reference_evaluate(F, points)
        assert type(got) is type(want)
        assert np.array_equal(bits(got), bits(want))


def term_scale(F, r, weight, drop=0):
    """The sum over the series' terms of (|a|+|b|) weight(n, k) r^(n+2(k-1)-drop):
    the size that a rounding error in a term-by-term sum is relative to."""
    return sum((abs(F.coeff_a(n, k).as_complex()) + abs(F.coeff_b(n, k).as_complex()))
               * weight(n, k) * r ** (n + 2 * (k - 1) - drop) for n, k in F.support())


def test_pointwise_derivatives_match_term_loops_off_the_grid():
    npr = np.random.default_rng(0x9017)
    r, theta = npr.uniform(0.0, 0.995, 257), npr.uniform(-np.pi, 3 * np.pi, 257)
    z = r * np.exp(1j * theta)
    for name, F in KERNEL_MAPS + [("half-plane-64", half_plane_map(64))]:
        for order in (1, 2):
            got = theta_derivative(F, r, theta, order)
            err = np.abs(got - helpers.term_loop_theta_derivative(F, r, theta, order))
            assert np.all(err <= 1e-12 * term_scale(F, r, lambda n, k: n ** order)), (name, order)
        err = np.abs(jacobian(F, z) - helpers.term_loop_jacobian(F, z))
        # F_z and F_zbar carry the terms' degrees n + 2(k-1) and one power of r less
        assert np.all(err <= 1e-12 * term_scale(F, r, lambda n, k: n + 2 * (k - 1), drop=1) ** 2), name


def serialiser_maps():
    rng = random.Random(0x5E7)
    return [example_F1(), example_F2(), identity_map(), identity_map(3),
            extremal_point(ExtremalSpec(n=3, k=2, lam=Fraction(1, 2), phase=0.7)),
            *[half_plane_map(n) for n in range(2, 6)],
            make_map(1, b={(1, 1): Fraction(999, 1000)}),  # z + 999/1000 conj z, which collides on the grid
            *[random_member(rng, p, Fraction(rng.randint(0, 100), 100)) for p in (1, 2, 3)]]


CHECK_SUBSETS = [c for n in range(1, 5) for c in itertools.combinations(("jacobian", "starlike", "convex", "injective"), n)]


@pytest.mark.parametrize("grid", [DiskGrid(8, 64), DiskGrid(32, 256), DiskGrid(3, 5)],
                         ids=grid_id)
def test_report_serialisers_match_the_line_by_line_reference(grid):
    for F in serialiser_maps():
        for checks in CHECK_SUBSETS:
            rep = verify_geometry(F, grid, checks)
            assert rep.to_kv() == helpers.reference_geometry_kv(rep), checks


def reference_maps():
    """(fixed maps, seeded members) for comparing verify_geometry with its reference. The fixed
    maps are the kernel maps, half-plane truncations, float coefficients and coefficients that
    overflow float64; the members are 200 exact random members of hs-lambda."""
    floats = [make_map(1, a={(2, 1): 0.1, (3, 1): (0.02, -0.05)}, b={(2, 1): (-0.03, 0.07)}),
              make_map(2, a={(1, 2): (0.11, 0.2), (4, 1): -0.01}, b={(1, 1): 0.3, (2, 2): (0.0, -0.04)}),
              # F and F_theta vanish at grid points (z = -r_max and -r_max/2 on a 0.995 grid), so -inf minima
              make_map(1, a={(2, 1): 1 / 0.995}),
              make_map(1, b={(1, 1): 0.999})]
    overflow = [make_map(1, a={(2, 1): 1e308}), make_map(1, b={(2, 1): 1e308}), make_map(1, a={(3, 1): 1e308}),
                OVERFLOW,
                # F too wide for distances and F_thetatheta infinite: the error order decides the message
                make_map(2, a={(1, 2): 1e308, (3, 1): 2e307})]
    fixed = [F for _, F in KERNEL_MAPS] + [half_plane_map(n) for n in (2, 3, 4, 5, 64)] + floats + overflow
    rng = random.Random(0x4EF)
    members = [random_member(rng, rng.randint(1, 3), Fraction(rng.randint(0, 100), 100), normalized=rng.random() < 0.5,
                             tight=rng.random() < 0.25) for _ in range(200)]
    return fixed, members


def outcome(verify, F, grid, checks):
    """A report's kv text and repr, or the class and message of the error it raised."""
    try:
        rep = verify(F, grid, checks)
    except Exception as e:
        return type(e), str(e)
    return rep.to_kv(), repr(rep)


FIXED_MAPS, MEMBERS = reference_maps()


# The members run on the benchmark's grid and the smallest one; the dense grids take
# the fixed maps only, which keeps the test's run time down.
@pytest.mark.parametrize("grid,maps", [(DiskGrid(32, 256, 0.995), FIXED_MAPS + MEMBERS),
                                       (DiskGrid(7, 13, 0.9), FIXED_MAPS + MEMBERS),
                                       (DiskGrid(32, 1024, 0.995), FIXED_MAPS),
                                       (DiskGrid(8, 4096, 0.995), FIXED_MAPS),
                                       (DiskGrid(16, 256, 0.995), FIXED_MAPS)],
                         ids=["32x256", "7x13", "32x1024", "8x4096", "16x256"])
def test_reports_and_errors_match_the_reference_verifier(grid, maps, monkeypatch):
    # against a reference run here, not a committed golden: FFT bits may differ between numpy builds
    counts = {}

    def collision_count(w):  # both verifiers run the same pass: search each distinct image once
        key = (w.shape, w.tobytes())
        if key not in counts:
            counts[key] = _collision_count(w)
        return counts[key]

    monkeypatch.setattr(geometry, "_collision_count", collision_count)
    monkeypatch.setattr(helpers, "_collision_count", collision_count)
    for F in maps:
        for checks in CHECK_SUBSETS:
            want = outcome(helpers.reference_verify_geometry, F, grid, checks)
            assert outcome(verify_geometry, F, grid, checks) == want, (F, checks)


# --- the per-thread workspace ---------------------------------------------------


@st.composite
def runs_on_one_shape(draw):
    """A grid shape and two to four (map, r_max, checks) calls on it: random maps, or maps
    whose grid values overflow, so that a failing call also leaves the workspace behind."""
    rings, rays = draw(st.integers(1, 8)), draw(st.integers(3, 64))
    overflowing = FIXED_MAPS[-5:]  # reference_maps lists the five overflow maps last
    call = st.tuples(st.one_of(helpers.maps(), st.sampled_from(overflowing)),
                     st.sampled_from((0.5, 0.9, 0.995)), st.sampled_from(CHECK_SUBSETS))
    return rings, rays, draw(st.lists(call, min_size=2, max_size=4))


@given(runs_on_one_shape())
def test_consecutive_calls_match_the_reference_verifier(run):
    # each call overwrites the buffers the one before it left, on the same grid shape
    rings, rays, calls = run
    for F, r_max, checks in calls:
        grid = DiskGrid(rings, rays, r_max)
        want = outcome(helpers.reference_verify_geometry, F, grid, checks)
        assert outcome(verify_geometry, F, grid, checks) == want, (F, r_max, checks)


def test_threads_get_the_reports_of_sequential_calls():
    # each thread has its own workspace, so concurrent calls on different grids do not mix;
    # more threads than cores and a short switch interval make them interleave
    jobs = [(half_plane_map(3), DiskGrid(32, 256, 0.995), geometry.ALL_CHECKS),
            (example_F1(), DiskGrid(32, 1024, 0.995), ("jacobian", "starlike", "convex")),
            (half_plane_map(2), DiskGrid(16, 512, 0.99), ("starlike", "injective"))]
    want = [verify_geometry(F, grid, checks).to_kv() for F, grid, checks in jobs]
    count = min((os.cpu_count() or 1) + 1, 16)
    barrier = threading.Barrier(count)
    got = [[] for _ in range(count)]

    def work(i):
        F, grid, checks = jobs[i % len(jobs)]
        barrier.wait()
        for _ in range(5):
            got[i].append(verify_geometry(F, grid, checks).to_kv())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[want[i % len(jobs)]] * 5 for i in range(count)]


def test_workspace_is_four_complex_grids_and_follows_the_grid_shape():
    for grid in (DiskGrid(32, 256, 0.995), DiskGrid(4, 8192, 0.995), DiskGrid(7, 13, 0.9)):
        verify_geometry(half_plane_map(2), grid)
        grids, moduli = geometry._local.workspace
        assert grids.shape[1:] == moduli.shape[1:] == (grid.rings, grid.rays)  # replaced, not kept
        assert grids.nbytes + moduli.nbytes == 64 * grid.rings * grid.rays <= 64 * MAX_GRID_POINTS


@pytest.mark.parametrize("name,F,checks,want", [
    ("f1", example_F1(), ("convex",), [("F_theta", "F_thetatheta")]),
    ("half-plane-2", half_plane_map(2), ("injective",), [("F",)]),
    ("f1", example_F1(), ("injective",), []),  # certified, so no search reads F
    ("half-plane-2", half_plane_map(2), ALL_CHECKS, [("F_z", "F_zbar"), ("F", "F_theta", "F_thetatheta")]),
    ("f1", example_F1(), ALL_CHECKS, [("F_z", "F_zbar"), ("F", "F_theta", "F_thetatheta")]),
    ("f1", example_F1(), ("starlike",), [("F", "F_theta")]),
    ("half-plane-2", half_plane_map(2), ("convex", "injective"), [("F", "F_theta", "F_thetatheta")]),
], ids=["f1-convex", "h2-injective", "f1-injective-certified", "h2-all", "f1-all", "f1-starlike",
        "h2-convex-injective"])
def test_grid_kernel_computes_only_what_the_checks_read(monkeypatch, name, F, checks, want):
    grid = DiskGrid(32, 256, 0.995)
    table = _monomials(F)
    assert _injectivity_certified(table, grid) is (name == "f1")
    quantities = {"F": table, "F_theta": _d_theta(table, 1), "F_thetatheta": _d_theta(table, 2),
                  **dict(zip(("F_z", "F_zbar"), _d_wirtinger(table)))}

    def named(tab):
        return next(q for q, ref in quantities.items() if all(map(np.array_equal, tab, ref)))

    calls, kernel = [], geometry._grids

    def recording_grids(tables, radii, out):
        calls.append(tuple(map(named, tables)))
        return kernel(tables, radii, out)

    monkeypatch.setattr(geometry, "_grids", recording_grids)
    rep = verify_geometry(F, grid, checks)
    assert calls == want
    assert repr(rep) == repr(helpers.reference_verify_geometry(F, grid, checks))


@pytest.mark.parametrize("between", [DiskGrid(16, 128, 0.995), DiskGrid(8, 96, 0.99)],
                         ids=["same-shape", "other-shape"])
def test_a_standalone_pass_between_calls_leaks_nothing(between):
    # the pass takes its scratch grids from this thread's workspace, on an array of its own too,
    # so it must leave neither the verify_geometry call after it nor its own input a stale value
    grid = DiskGrid(16, 128, 0.995)
    first, second = half_plane_map(3), make_map(1, b={(1, 1): Fraction(999, 1000)})
    w = helpers.on_grid(_monomials(half_plane_map(2)), between.radii(), between.rays)
    image = w.copy()
    reports = [verify_geometry(first, grid)]
    count = _collision_count(w)
    reports.append(verify_geometry(second, grid))
    assert np.array_equal(w, image)
    assert count == helpers.brute_force_collisions(w) == (23 if between == grid else 10)
    for F, rep in zip((first, second), reports):
        assert rep.injectivity_certified is False  # both calls ran the pass
        assert repr(rep) == repr(helpers.reference_verify_geometry(F, grid))
        assert rep.injectivity_collisions == helpers.brute_force_collisions(
            helpers.on_grid(_monomials(F), grid.radii(), grid.rays))


@pytest.mark.parametrize("grid", [DiskGrid(32, 256, 0.995), DiskGrid(32, 1024, 0.995)], ids=grid_id)
def test_a_warm_call_on_a_certified_member_allocates_under_one_grid(grid):
    F = random_member(random.Random(3), 2, Fraction(1, 2))
    assert _injectivity_certified(_monomials(F), grid)
    verify_geometry(F, grid)  # cold: builds this thread's workspace
    tracemalloc.start()
    try:
        verify_geometry(F, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid.rings * grid.rays * 16
