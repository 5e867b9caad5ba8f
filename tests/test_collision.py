"""The injectivity collision pass against oracles that use no spatial hashing.

``helpers.brute_force_collisions`` compares every pair of grid points; the
scipy cross-check finds candidate pairs with a k-d tree instead. Both apply
the pair rule documented on ``_collision_count``. At full size the pass is
also compared with ``helpers.reference_collision_count``, its search one
threshold octave at a time. The coefficient certificate
that lets ``verify_geometry`` skip the pass is checked against the same pass
and oracle: whenever it holds, they find no collision.
"""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from phmaps import (
    Coefficient,
    DiskGrid,
    ExtremalSpec,
    NonFiniteError,
    convolve,
    distortion_extremal,
    evaluate,
    example_F1,
    example_F2,
    extremal_point,
    half_plane_map,
    hs,
    identity_map,
    make_map,
    membership,
    save_map,
)
from phmaps import geometry
from phmaps.cli import main
from phmaps.geometry import _collision_count, _injectivity_certified, _lipschitz_bounds, _monomials, verify_geometry
from phmaps.sampling import random_certified_map, random_member

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


# at least 300 examples; the `deep` profile raises both properties to its 2000
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(image_grids())
def test_matches_brute_force_on_random_images(w):
    assert _collision_count(w) == helpers.brute_force_collisions(w)


@st.composite
def clustered_images(draw):
    """Small lattice images (spacing 1, threshold octave -3) with a few tight
    clusters: runs of consecutive grid points mapped within eps of a centre, so
    their thresholds fall in sparse low octaves that one band merges. Some rings
    may lie on a far sheet, which also raises the floor. A centre is a fresh
    point or sits within a few eps of another point's image, on either sheet, so
    pairs join points of different bands."""
    rings, rays = draw(st.integers(2, 8)), draw(st.integers(3, 16))
    w = np.add.outer(np.arange(rings), 1j * np.arange(rays)).astype(complex)
    w[draw(st.integers(1, rings)):] += draw(st.sampled_from([0.0, 1e3, 1e6])) * (1 + 1j)
    small = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    for _ in range(draw(st.integers(1, 4))):
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2]))
        if draw(st.booleans()):
            centre = w[draw(st.integers(0, rings - 1)), draw(st.integers(0, rays - 1))] + eps * draw(small)
        else:
            centre = complex(draw(st.floats(-2, 10)), draw(st.floats(-2, 20)))
        ring, ray = draw(st.integers(0, rings - 1)), draw(st.integers(0, rays - 1))
        for k in range(draw(st.integers(1, 4))):
            w[ring, (ray + k) % rays] = centre + eps * draw(small)
    return w


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(clustered_images())
def test_matches_brute_force_on_clustered_images(w):
    assert _collision_count(w) == helpers.brute_force_collisions(w)


def test_merged_band_finds_partners_in_higher_octaves():
    # Ring i is a column of rays 4**i apart, so its thresholds sit in an octave
    # of their own. (0, 2) lies 1e-3 from (6, 10), alone in octave -6, which a
    # band merges with ring 0's octave; (1, 7) lies 1e-2 from (4, 3). Both
    # partners are found in the table of a band below their own.
    w = 1e4 * np.arange(8)[:, None] + 1j * 4.0 ** np.arange(8)[:, None] * np.arange(16)
    w[0, 2:4] = w[6, 10] + np.array([1e-3, 1e-1])
    w[1, 7:9] = w[4, 3] + np.array([1e-2j, 1j])
    octave = np.frexp(np.maximum(*helpers.collision_rule(w)))[1].reshape(w.shape)
    assert np.count_nonzero(octave == -6) == 1 and octave[0, 2] == -6
    assert octave[1, 7] < octave[4, 3] < octave[6, 10]
    assert _collision_count(w) == helpers.brute_force_collisions(w) == helpers.reference_collision_count(w) == 4


def test_band_table_reaches_one_cell_beyond_its_queries(monkeypatch):
    # Rings 1-7 are a lattice of spacing 10 (t = 1, octave 1) whose corner
    # (-5, -90) starts the cell count. Ring 0 is a row of rays h apart in the
    # image's bottom-left corner: rays 0-30 have t = h/10 = 0.75 * 2**-4, so
    # they alone fill octave -4 and make a band with cells of 1/8; ray 31, 14h
    # from ray 0 across the wrap, is not among them. Its queries lie in x cells
    # 40-152 and y cell 720. (7, 8) lies 0.9 t left of ray 0, in x cell 39: in
    # the one-cell margin, so found and counted. (7, 24) lies just over one cell
    # below the row, in y cell 718: beyond the margin, so left out of the table.
    rings, rays, h = 8, 32, 0.46875
    w = (-5.0 + 10 * np.arange(rays))[None, :] + 1j * (10.0 * np.arange(rings) - 100)[:, None]
    w[0] = 0.001 + h * np.arange(rays) + 0.001j
    inside, beyond = (7, 8), (7, 24)
    w[inside] = w[0, 0] - 0.9 * h / 10
    w[beyond] = 12 + (0.001 - 1.024 / 8) * 1j
    octave = np.frexp(np.maximum(*helpers.collision_rule(w)))[1].reshape(w.shape)
    assert np.all(octave[0, :31] == -4) and np.count_nonzero(octave <= -4) == 31
    assert octave[inside] > 1 and octave[beyond] > 1

    tables = []

    def spy(wf, t, rays, queries, partners, lo, hi):
        tables.append((set(queries.tolist()), set(partners.tolist())))
        return close_pairs(wf, t, rays, queries, partners, lo, hi)

    close_pairs = geometry._close_pairs
    monkeypatch.setattr(geometry, "_close_pairs", spy)
    assert _collision_count(w) == helpers.brute_force_collisions(w) == helpers.reference_collision_count(w) == 1
    band = [partners for queries, partners in tables if queries <= set(range(31))]
    assert band and all(inside[0] * rays + inside[1] in partners for partners in band)
    assert not any(beyond[0] * rays + beyond[1] in partners for partners in band)


def verify_halfplane_r_max(stratum):
    """The seven r_max values verify-halfplane draws from its stratum-th slice of [0.95, 0.992)."""
    return [0.95 + (7 * stratum + k) / 1000 for k in range(7)]


def grid_image(F, grid):
    """The image verify_geometry hands to the pass."""
    return helpers.on_grid(_monomials(F), grid.radii(), grid.rays)


@pytest.mark.parametrize("stratum", range(6))
def test_matches_reference_on_half_plane_r_max_slices(stratum):
    for r_max in verify_halfplane_r_max(stratum):
        w = grid_image(half_plane_map(2), DiskGrid(32, 256, r_max))
        assert _collision_count(w) == helpers.reference_collision_count(w), r_max


@pytest.mark.parametrize("seed", range(4))
def test_matches_reference_on_half_plane_convolutions(seed):
    F = convolve(half_plane_map(2), random_certified_map(random.Random(seed), 4))
    w = grid_image(F, DiskGrid(32, 256, 0.995))
    assert _collision_count(w) == helpers.reference_collision_count(w)


REFERENCE_FULL_SIZE = [
    ("half-plane-64", half_plane_map(64), DiskGrid(32, 256, 0.995)),
    ("half-plane-64-dense", half_plane_map(64), DiskGrid(32, 1024, 0.995)),
    ("near-reflection", NEAR_REFLECTION, DiskGrid(32, 256, 0.995)),
]


@pytest.mark.parametrize("name,F,grid", REFERENCE_FULL_SIZE, ids=[c[0] for c in REFERENCE_FULL_SIZE])
def test_matches_reference_at_full_size(name, F, grid):
    w = grid_image(F, grid)
    assert _collision_count(w) == helpers.reference_collision_count(w)


def test_too_wide_image_raises_like_the_reference():
    w = grid_image(make_map(1, a={(2, 1): 1e308}), DiskGrid(32, 256, 0.995))
    with np.errstate(all="ignore"):
        for count in (_collision_count, helpers.reference_collision_count):
            with pytest.raises(NonFiniteError, match="too wide for float64"):
                count(w)


@pytest.mark.parametrize("name,F", [("half-plane-2", half_plane_map(2)), ("half-plane-64", half_plane_map(64)),
                                    ("f2", example_F2())])
def test_pass_working_memory_stays_under_seven_grids(name, F):
    # numpy reports its buffers to tracemalloc; the one-octave search with
    # np.roll copies peaked at 6.3-6.7 grids
    w = grid_image(F, DiskGrid(32, 256, 0.995))
    _collision_count(w)  # warm: one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        _collision_count(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * w.size * 16


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


# --- the coefficient certificate ---------------------------------------------


@pytest.mark.parametrize("name,F", SMALL_MAPS, ids=[name for name, _ in SMALL_MAPS])
def test_lower_lipschitz_bound_at_one_is_the_hs_row1_margin(name, F):
    m, M = _lipschitz_bounds(_monomials(F), 1.0)
    margin = membership(F, hs()).row1_margin
    assert F.is_exact and m == pytest.approx(float(margin), abs=1e-12) and M == pytest.approx(2 - float(margin))


@pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(93, 100),
                               Fraction(9354, 10000)])
def test_affine_maps_certify_up_to_the_32x256_bound(b):
    # z + b conj(z) has L = b; on 32x256 the certificate holds for L < 0.9354...
    F, grid = make_map(1, b={(1, 1): b}), DiskGrid(32, 256, 0.995)
    rep = verify_geometry(F, grid, ("injective",))
    assert (rep.injectivity_collisions, rep.injectivity_certified) == (0, True)
    assert _collision_count(evaluate(F, grid.points())) == 0


@pytest.mark.parametrize("b,count", [(Fraction(9355, 10000), 0), (Fraction(39, 40), 4), (Fraction(49, 50), 64)])
def test_affine_maps_past_the_bound_are_searched(b, count):
    rep = verify_geometry(make_map(1, b={(1, 1): b}), DiskGrid(32, 256, 0.995), ("injective",))
    assert (rep.injectivity_collisions, rep.injectivity_certified) == (count, False)


@pytest.mark.parametrize("name,F,count", [*[(f"half-plane-{n}", half_plane_map(n), c)
                                            for n, c in ((2, 61), (3, 47), (4, 95), (5, 74))],
                                          ("fold", FOLD, 30), ("near-reflection", NEAR_REFLECTION, 4742)])
def test_pinned_counts_are_searched_not_certified(name, F, count):
    rep = verify_geometry(F, DiskGrid(32, 256, 0.995))
    assert (rep.injectivity_collisions, rep.injectivity_certified) == (count, False)
    assert "injectivity_collisions=%d\ninjectivity_certified=false\n" % count in rep.to_kv()


@pytest.mark.parametrize("name,F,searched", [("f1", example_F1(), False), ("half-plane-2", half_plane_map(2), True)])
def test_certified_maps_skip_the_pass(monkeypatch, name, F, searched):
    calls = []

    def spy(w, *args):
        calls.append(w.shape)
        return _collision_count(w, *args)

    monkeypatch.setattr(geometry, "_collision_count", spy)
    rep = verify_geometry(F, DiskGrid(32, 256, 0.995))
    assert calls == ([(32, 256)] if searched else [])
    assert rep.injectivity_certified is not searched


def test_checks_without_injective_report_no_certificate():
    rep = verify_geometry(example_F1(), DiskGrid(8, 32, 0.9), ("jacobian", "starlike"))
    assert rep.injectivity_certified is None and "injectivity_certified" not in rep.to_kv()


def smallest_r_max(rings, rays):
    """Just above the least r_max DiskGrid accepts: innermost ray spacing 2**-1000."""
    return 2.0 ** -1000 * rings / (2 * np.sin(np.pi / rays)) * (1 + 1e-12)


FOLD_BASES = [FOLD, NEAR_REFLECTION, *(half_plane_map(n) for n in range(2, 6))]


@st.composite
def certificate_cases(draw):
    """(F, grid): exact class members; maps with exact off-axis (complex) or float
    coefficients whose Lipschitz sum L straddles the certificate's bound; and maps
    z + s (G - z) for s in [1/2, 1] and G a fold, near-reflection or half-plane map,
    which collide on about two in five of their grids. Grids run from 1xN and Nx3
    up to 32x64, with r_max in [0.3, 0.999] or near its least value."""
    kind = draw(st.sampled_from(["member", "complex", "float", "fold"]))
    if kind == "fold":
        rings, rays = draw(st.integers(8, 32)), draw(st.integers(16, 64))
        grid = DiskGrid(rings, rays, draw(st.floats(0.9, 0.999)))
        G, s = draw(st.sampled_from(FOLD_BASES)), Fraction(draw(st.integers(50, 100)), 100)
        a = {key: c if key == (1, 1) else c.scale(s) for key, c in G.a.items()}
        return make_map(G.p, a=a, b={key: c.scale(s) for key, c in G.b.items()}), grid
    rings = draw(st.sampled_from([1, 2, 3, 6, draw(st.integers(1, 32))]))
    rays = draw(st.sampled_from([3, 4, 5, draw(st.integers(3, 64))]))
    if draw(st.integers(0, 4)) == 0:
        r_max = smallest_r_max(rings, rays) * draw(st.sampled_from([1.0, 2.0, 1e10, 1e100]))
    else:
        r_max = draw(st.floats(0.3, 0.999))
    grid = DiskGrid(rings, rays, r_max)
    p = draw(st.integers(1, 3))
    if kind == "member":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        lam = Fraction(draw(st.integers(0, 100)), 100)
        return random_member(rng, p, lam, normalized=draw(st.booleans()), tight=draw(st.booleans())), grid
    keys = draw(st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 6), st.integers(1, p)),
                         min_size=1, max_size=6, unique=True))
    shares = [draw(st.integers(1, 8)) for _ in keys]
    budget = Fraction(draw(st.integers(0, 150)), 100)  # L at r = 1
    a, b = {}, {}
    for (letter, n, k), share in zip(keys, shares):
        if (letter, n, k) == ("a", 1, 1):
            continue
        mag = min(budget * share / sum(shares) / (n + 2 * k - 2), Fraction(99, 100))
        turn = Fraction(draw(st.integers(0, 12)), 13)
        re, im = mag * (1 - turn * turn) / (1 + turn * turn), mag * 2 * turn / (1 + turn * turn)
        value = Coefficient(re, im) if kind == "complex" else Coefficient(float(re), float(im))
        (a if letter == "a" else b)[(n, k)] = value
    return make_map(p, a=a, b=b), grid


@settings(deadline=None)
@given(certificate_cases())
def test_certificate_soundness(case):
    F, grid = case
    table = _monomials(F)
    if not _injectivity_certified(table, grid):
        return
    assert _collision_count(helpers.on_grid(table, grid.radii(), grid.rays)) == 0  # verify_geometry's image
    w = evaluate(F, grid.points())
    assert _collision_count(w) == 0
    if w.size <= 256:
        assert helpers.brute_force_collisions(w) == 0
    rep = verify_geometry(F, grid, ("injective",))
    assert (rep.injectivity_collisions, rep.injectivity_certified) == (0, True)


# --- radii at the edge of float64 ----------------------------------------------


def test_cli_rejects_a_radius_too_small_for_float64(tmp_path, capsys):
    # Once counted 521600 and 33455872 collisions on the univalent f1.
    path = tmp_path / "f1.phm"
    save_map(example_F1(), path)
    for r in ("1e-308", "1e-320"):
        assert main(["verify", str(path), "--r", r, "--suite", "injective"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: r_max=") and err.count("\n") == 1
    assert main(["verify", str(path), "--r", "1e-290", "--suite", "injective"]) == 0
    assert "injectivity_collisions=0\ninjectivity_certified=true\n" in capsys.readouterr().out


def test_cli_passes_the_identity_on_a_tiny_disk(tmp_path, capsys):
    # An absolute degeneracy test once failed every point of rings below 1e-12.
    path = tmp_path / "id.phm"
    save_map(identity_map(), path)
    for suite in ("starlike", "convex"):
        assert main(["verify", str(path), "--r", "1e-11", "--suite", suite, "--grid", "32x256"]) == 0
        assert "passed=true\n" in capsys.readouterr().out
