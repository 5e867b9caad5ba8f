"""Acceptance gate: one test per criterion, at the stated counts and tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import functools
import random
from fractions import Fraction

import numpy as np

import helpers
from phmaps import (
    DiskGrid,
    ch0_certificate,
    class_reduction_check,
    combine,
    convolve,
    delta_bound,
    distortion_envelope,
    distortion_extremal,
    evaluate,
    example_F1,
    example_F2,
    half_plane_map,
    hc,
    hs,
    hs_lambda,
    integral_convolve,
    membership,
    neighborhood_distance,
    rescale,
    rescale_convexity_certificate,
    theta_derivative,
    verify_geometry,
    wirtinger_derivatives,
)
from phmaps.render import RenderSpec, render_svg
from phmaps.sampling import (
    random_member,
    random_certified_map,
    random_perturbation,
    random_plan,
    random_simplex,
    random_valid_map,
)

GRID = DiskGrid(rings=32, rays=256, r_max=0.995)
LAMBDA_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title}")

        return run

    return wrap


@criterion(1, "boundary-tight memberships, exact zero margins")
def test_criterion_01_boundary_tight_membership():
    r1 = membership(example_F1(), hs_lambda(Fraction(2, 3)))
    assert r1.member and r1.exact and r1.row1_margin == 0
    r2 = membership(example_F2(), hs_lambda(Fraction(1, 100)))
    assert r2.member and r2.exact and r2.row1_margin == 0


@criterion(2, "class reduction at lambda=0 and lambda=1, 500 random maps")
def test_criterion_02_class_reduction():
    rng = random.Random(2)
    for _ in range(500):
        F = random_valid_map(rng, p=rng.randint(1, 4), max_degree=10)
        assert class_reduction_check(F)


@criterion(3, "convolution coefficients reproduced exactly")
def test_criterion_03_convolution_coefficients():
    H = half_plane_map(8)
    FH = convolve(example_F1(), H)
    assert FH.coeff_a(2, 1).re == Fraction(3, 20) and FH.coeff_a(2, 1).im == 0
    assert FH.coeff_b(2, 1).re == Fraction(-1, 10) and FH.coeff_b(2, 1).im == 0
    FiH = integral_convolve(example_F1(), H)
    assert FiH.coeff_a(2, 1).re == Fraction(3, 40) and FiH.coeff_a(2, 1).im == 0
    assert FiH.coeff_b(2, 1).re == Fraction(-1, 20) and FiH.coeff_b(2, 1).im == 0


@criterion(4, "starlike + sense-preserving + injective on 32x256 grid, 100 random members")
def test_criterion_04_starlike_geometry():
    rng = random.Random(4)
    maps = [example_F1(), example_F2()]
    for _ in range(100):
        p = rng.randint(1, 3)
        lam = Fraction(rng.randint(0, 100), 100)
        maps.append(random_member(rng, p, lam, normalized=True))
    for F in maps:
        rep = verify_geometry(F, GRID, ("jacobian", "starlike", "injective"))
        assert rep.min_arg_derivative.value > 0
        assert rep.min_jacobian.value > 0
        assert rep.injectivity_collisions == 0


@criterion(5, "convexity radius certificates and rescaled indicator >= -1e-9")
def test_criterion_05_convexity_radius():
    circle = DiskGrid(1, 4096, 0.999)  # 4096 equispaced angles on |z| = 0.999
    cases = [
        (example_F1(), Fraction(2, 3), Fraction(2, 3)),
        (example_F2(), Fraction(1, 100), Fraction(1, 2)),
    ]
    for F, lam, r in cases:
        assert rescale_convexity_certificate(F, lam, r)
        rep = verify_geometry(rescale(F, r), circle, ("convex",))
        assert rep.min_convexity_indicator.value >= -1e-9


@criterion(6, "distortion envelope, 200 members x 1000 points per lambda, extremal attainment")
def test_criterion_06_distortion():
    rng = random.Random(6)
    npr = np.random.default_rng(6)
    for lam in LAMBDA_GRID:
        for _ in range(200):
            F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5)
            env = distortion_envelope(F, lam)
            r = npr.uniform(0.0, 0.999, 1000)
            t = npr.uniform(0.0, 2 * np.pi, 1000)
            mags = np.abs(evaluate(F, r * np.exp(1j * t)))
            assert np.all(mags >= env.lower(r) - 1e-12)
            assert np.all(mags <= env.upper(r) + 1e-12)
    for lam in LAMBDA_GRID:
        if lam <= Fraction(1, 2):
            E = distortion_extremal(lam, Fraction(1, 4))
        else:
            E = distortion_extremal(lam, Fraction(1, 8), Fraction(1, 10), Fraction(1, 10))
        env = distortion_envelope(E, lam)
        for r in np.arange(0.1, 1.0, 0.1):
            assert abs(abs(evaluate(E, r)) - env.upper(r)) <= 1e-12


@criterion(7, "convolution closure, 200 members x 20 certified maps, exact")
def test_criterion_07_convolution_closure():
    rng = random.Random(7)
    hs_members = []
    for _ in range(200):
        lam = Fraction(1, 2) + Fraction(rng.randint(0, 64), 128)
        hs_members.append(random_member(rng, 1, lam, normalized=True))
    certified = [random_certified_map(rng) for _ in range(20)]
    assert all(ch0_certificate(H) for H in certified)
    for F in hs_members:
        for H in certified:
            r1 = membership(convolve(F, H), hs(normalized=True))
            assert r1.member and r1.exact
            r2 = membership(integral_convolve(F, H), hc(normalized=True))
            assert r2.member and r2.exact


@criterion(8, "neighborhood inclusion, 500 random perturbations, exact")
def test_criterion_08_neighborhood():
    assert delta_bound(example_F1(), Fraction(2, 3)) == Fraction(2, 5)
    rng = random.Random(8)
    for _ in range(500):
        p = rng.randint(1, 3)
        lam = Fraction(rng.randint(1, 100), 100)
        F = random_member(rng, p, lam, normalized=rng.random() < 0.5)
        bound = delta_bound(F, lam)
        G = random_perturbation(rng, F, bound)
        assert neighborhood_distance(F, G) <= bound
        rep = membership(G, hs())
        assert rep.member and rep.exact


@criterion(9, "convex-combination closure, 300 random combinations, exact margins")
def test_criterion_09_convex_combinations():
    rng = random.Random(9)
    for _ in range(300):
        p = rng.randint(1, 3)
        lam = Fraction(rng.randint(0, 100), 100)
        plan = random_plan(rng, p, normalized=False)
        count = rng.randint(2, 5)
        members = [random_member(rng, p, lam, normalized=False, plan=plan) for _ in range(count)]
        weights = random_simplex(rng, count)
        rep = membership(combine(list(zip(weights, members))), hs_lambda(lam))
        assert rep.member and rep.exact and rep.row1_margin >= 0


@criterion(10, "derivative oracles within 1e-7 relative, 50 maps x 100 points")
def test_criterion_10_derivative_oracles():
    rng = random.Random(10)
    npr = np.random.default_rng(10)
    for _ in range(50):
        F = random_valid_map(rng, p=rng.randint(1, 3), max_degree=8)
        r = npr.uniform(0.1, 0.9, 100)
        t = npr.uniform(0.0, 2 * np.pi, 100)
        z = r * np.exp(1j * t)
        for order in (1, 2):
            cf = theta_derivative(F, r, t, order)
            fd = helpers.fd_theta_derivative(F, r, t, order)
            assert np.max(np.abs(cf - fd) / np.maximum(1.0, np.abs(cf))) < 1e-7
        fz, fzb = wirtinger_derivatives(F, z)
        fz_fd, fzb_fd = helpers.fd_wirtinger(F, z)
        scale = np.maximum(1.0, np.abs(fz) + np.abs(fzb))
        assert np.max(np.abs(fz - fz_fd) / scale) < 1e-7
        assert np.max(np.abs(fzb - fzb_fd) / scale) < 1e-7


@criterion(11, "deterministic rendering, simple star-shaped boundaries")
def test_criterion_11_rendering():
    spec = RenderSpec()
    for F in (example_F1(), example_F2()):
        first = render_svg(F, spec)
        second = render_svg(F, spec)
        assert first == second
        theta = 2 * np.pi * np.arange(512) / 512
        boundary = evaluate(F, spec.grid.r_max * np.exp(1j * theta))
        assert helpers.polyline_self_intersections(boundary) == 0
        assert np.all(helpers.ray_crossing_counts(boundary, 4096) == 1)
