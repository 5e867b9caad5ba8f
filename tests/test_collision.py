"""The injectivity collision pass against oracles that use no spatial hashing.

``helpers.brute_force_collisions`` compares every pair of grid points; the
scipy cross-check finds candidate pairs with a k-d tree instead. Both apply
the pair rule documented on ``_collision_count``.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from phmaps import (
    DiskGrid,
    ExtremalSpec,
    distortion_extremal,
    evaluate,
    example_F1,
    example_F2,
    extremal_point,
    half_plane_map,
    identity_map,
    make_map,
)
from phmaps.geometry import _collision_count, verify_geometry
from phmaps.sampling import random_member

SMALL_GRIDS = [
    DiskGrid(8, 32, 0.99),
    DiskGrid(16, 64, 0.995),
    DiskGrid(6, 3, 0.9),
    DiskGrid(6, 4, 0.95),
    DiskGrid(6, 5, 0.995),
]
FOLD = make_map(1, a={(2, 1): Fraction(4, 5)}, b={(1, 1): Fraction(4, 5)})
NEAR_REFLECTION = make_map(1, b={(1, 1): Fraction(999, 1000)})  # z + (999/1000) conj z


def small_grid_maps():
    rng = random.Random(0xC011)
    maps = [
        ("f1", example_F1()),
        ("f2", example_F2()),
        ("identity", identity_map()),
        ("extremal", extremal_point(ExtremalSpec(n=3, k=1, lam=Fraction(1, 2)))),
        ("distortion", distortion_extremal(Fraction(3, 4), Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))),
        ("fold", FOLD),
        ("near-reflection", NEAR_REFLECTION),
    ]
    maps += [(f"half-plane-{n}", half_plane_map(n)) for n in range(2, 9)]
    maps += [(f"member-{t}", random_member(rng, rng.randint(1, 3), Fraction(rng.randint(0, 100), 100)))
             for t in range(4)]
    return maps


SMALL_MAPS = small_grid_maps()


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=lambda g: f"{g.rings}x{g.rays}")
@pytest.mark.parametrize("name,F", SMALL_MAPS, ids=[name for name, _ in SMALL_MAPS])
def test_matches_brute_force_on_small_grids(name, F, grid):
    w = evaluate(F, grid.points())
    assert _collision_count(w) == helpers.brute_force_collisions(w)


def test_oracle_sees_the_fold():
    # guards the oracle itself: a count of 0 everywhere would agree trivially
    w = evaluate(FOLD, DiskGrid(16, 64, 0.995).points())
    assert helpers.brute_force_collisions(w) > 0


@pytest.mark.parametrize("N,count", [(2, 61), (3, 47), (4, 95), (5, 74)])
def test_half_plane_counts_pinned(N, count):
    w = evaluate(half_plane_map(N), DiskGrid(32, 256, 0.995).points())
    assert _collision_count(w) == count


@pytest.mark.parametrize("N,count", [(2, 61), (3, 47), (4, 95), (5, 74)])
def test_half_plane_counts_pinned_through_verify_geometry(N, count):
    assert verify_geometry(half_plane_map(N), DiskGrid(32, 256, 0.995)).injectivity_collisions == count


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=lambda g: f"{g.rings}x{g.rays}")
def test_verify_geometry_counts_match_term_loop_images(grid):
    # verify_geometry's image comes from per-ring FFTs; the count must not see the difference
    for name, F in SMALL_MAPS:
        count = verify_geometry(F, grid, ("injective",)).injectivity_collisions
        assert count == _collision_count(evaluate(F, grid.points())), name


def test_pair_threshold_is_strict():
    # lattice image with spacing 10, so every tolerance is exactly 1.0
    w = 10.0 * np.arange(6)[:, None] + 10j * np.arange(8)[None, :]
    w[5, 4] = w[0, 0] + 1.0
    assert _collision_count(w) == helpers.brute_force_collisions(w) == 0
    w[5, 4] = w[0, 0] + np.nextafter(1.0, 0.0)
    assert _collision_count(w) == helpers.brute_force_collisions(w) == 1


def test_collapsed_image_counts_every_far_pair():
    # a million candidate pairs in one cell, examined over many blocks
    w = np.full((16, 64), 0.25 - 0.5j)
    assert _collision_count(w) == helpers.brute_force_collisions(w) == 512448


@st.composite
def image_grids(draw):
    """Small complex grids: free values, values from a pool of a few points
    (duplicates, so zero local spacing), or a constant plus tiny offsets (the
    absolute-floor path)."""
    rings = draw(st.integers(1, 6))
    rays = draw(st.integers(3, 12))
    n = rings * rays
    coord = st.floats(-4, 4, allow_nan=False)
    kind = draw(st.sampled_from(["free", "pool", "near-constant"]))
    if kind == "free":
        values = [complex(draw(coord), draw(coord)) for _ in range(n)]
    elif kind == "pool":
        pool = draw(st.lists(st.builds(complex, coord, coord), min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        base = complex(draw(coord), draw(coord))
        eps = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-6]))
        offsets = draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n))
        values = [base + eps * complex(offsets[2 * k], offsets[2 * k + 1]) for k in range(n)]
    return np.array(values, dtype=complex).reshape(rings, rays)


@settings(max_examples=300, deadline=None)
@given(image_grids())
def test_matches_brute_force_on_random_images(w):
    assert _collision_count(w) == helpers.brute_force_collisions(w)


def kdtree_collisions(w: np.ndarray) -> int:
    """Collision count from k-d tree ball queries, each of radius at least the
    point's pair threshold, so every colliding pair is found from the endpoint
    with the smaller threshold."""
    from scipy.spatial import cKDTree

    tol, floor = helpers.collision_rule(w)
    wf = w.ravel()
    pts = np.column_stack([wf.real, wf.imag])
    balls = cKDTree(pts).query_ball_point(pts, r=np.maximum(tol, floor) * (1 + 1e-9))
    i = np.repeat(np.arange(wf.size), [len(b) for b in balls])
    j = np.concatenate([np.asarray(b, dtype=np.intp) for b in balls])
    pairs = np.unique(np.column_stack([np.minimum(i, j), np.maximum(i, j)]), axis=0)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    return int(np.count_nonzero(helpers.colliding(w, tol, floor, pairs[:, 0], pairs[:, 1])))


FULL_SIZE = [
    ("f1", example_F1(), DiskGrid(32, 256, 0.995)),
    ("f2", example_F2(), DiskGrid(32, 256, 0.995)),
    ("fold", FOLD, DiskGrid(32, 256, 0.995)),
    ("near-reflection", NEAR_REFLECTION, DiskGrid(32, 256, 0.995)),
    *[(f"half-plane-{n}", half_plane_map(n), DiskGrid(32, 256, 0.995)) for n in (2, 3, 4, 5, 8)],
    ("half-plane-16", half_plane_map(16), DiskGrid(32, 1024, 0.995)),
]


@pytest.mark.parametrize("name,F,grid", FULL_SIZE, ids=[c[0] for c in FULL_SIZE])
def test_verify_geometry_counts_match_term_loop_images_at_full_size(name, F, grid):
    count = verify_geometry(F, grid, ("injective",)).injectivity_collisions
    assert count == _collision_count(evaluate(F, grid.points()))


@pytest.mark.parametrize("name,F,grid", FULL_SIZE, ids=[c[0] for c in FULL_SIZE])
def test_matches_kdtree_at_full_size(name, F, grid):
    pytest.importorskip("scipy")
    w = evaluate(F, grid.points())
    assert _collision_count(w) == kdtree_collisions(w)
