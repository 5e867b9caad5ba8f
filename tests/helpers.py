"""Independent oracles for the test suite.

These deliberately avoid the closed-form code paths they check: derivatives
come from central finite differences on plain evaluation, or from per-term
closed forms that do not use the library's monomial table, and evaluation
itself from the loop over the support that fixes its bits; the polyline
properties come from brute-force segment / ray-crossing geometry, and the
injectivity collision count comes from comparing every pair of grid points.
The exact core's magnitudes, square root, sums and products are checked against
the plain Fraction rule and loops they replaced, which define the results bit for bit,
and the batched renderer against the per-curve evaluation and per-vertex
formatting it replaced, which define the SVG and CSV bytes. The grid
report's hand-rolled serialiser and the numpy envelope cubic define the
`verify` report bytes the same way, and the sampled per-layer loop is the
witness for the coefficient form of the per-layer bound. The collision pass
is checked against its one-octave-at-a-time search, which hashes every
octave of the pair threshold in its own cells.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from phmaps import evaluate, theta_derivative
from phmaps.classes import Family, MembershipReport, hc, membership, weight
from phmaps.errors import MAX_GRID_POINTS, GridTooLargeError, NonFiniteError, ParamError
from phmaps.exact import EPS_STRICT, as_scalar, is_exact
from phmaps.operators import _hs_lambda_member, convexity_radius, rescale
from phmaps.render import MARGIN, STROKE_WIDTH
from phmaps.series import Coefficient, PolyharmonicMap
from phmaps.geometry import (
    ALL_CHECKS,
    COLLISION_FACTOR,
    EPS_ZERO,
    GeometryReport,
    _COLLISION_FLOOR,
    _NEIGHBOR_REACH,
    _close_pairs,
    _collision_count,
    _d_theta,
    _d_wirtinger,
    _finite,
    _grids,
    _injectivity_certified,
    _minimum,
    _monomials,
    _pointwise,
)


def fd_theta_derivative(F, r, theta, order, step=1e-5):
    """Central finite differences in theta on top of plain evaluation."""
    if order == 1:
        zp = r * np.exp(1j * (theta + step))
        zm = r * np.exp(1j * (theta - step))
        return (evaluate(F, zp) - evaluate(F, zm)) / (2 * step)
    # second derivative: difference the first-order closed form, which the
    # order-1 agreement test has already tied to plain evaluation
    return (theta_derivative(F, r, theta + step, 1) - theta_derivative(F, r, theta - step, 1)) / (2 * step)


def fd_wirtinger(F, z, step=1e-5):
    """(F_z, F_zbar) via 2D central differences: F_z=(F_x - i F_y)/2, F_zbar=(F_x + i F_y)/2."""
    fx = (evaluate(F, z + step) - evaluate(F, z - step)) / (2 * step)
    fy = (evaluate(F, z + 1j * step) - evaluate(F, z - 1j * step)) / (2 * step)
    return (fx - 1j * fy) / 2, (fx + 1j * fy) / 2


def reference_evaluate(F, z):
    """F(z) as a loop over the support, layer-major: the arithmetic that defines evaluate's bits."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    r2 = z.real * z.real + z.imag * z.imag
    out = np.zeros(np.broadcast(z, r2).shape, dtype=complex)
    for n, k in F.support():
        ca, cb = F.coeff_a(n, k).as_complex(), F.coeff_b(n, k).as_complex()
        zn = z ** n
        layer = r2 ** (k - 1) if k > 1 else 1.0
        out = out + layer * (ca * zn + np.conj(cb * zn))
    return complex(out[()]) if scalar else out


def _terms(F):
    return [(n, k, F.coeff_a(n, k).as_complex(), F.coeff_b(n, k).as_complex()) for n, k in F.support()]


def term_loop_theta_derivative(F, r, theta, order):
    """d^order/dtheta^order of F(r e^{i theta}) term by term: a[n,k] contributes
    r^(2(k-1)+n) (in)^order a e^{in theta}, b[n,k] r^(2(k-1)+n) (-in)^order conj(b) e^{-in theta}."""
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
    for n, k, ca, cb in _terms(F):
        e = np.exp(1j * n * theta)
        phases = (1j * n) ** order * ca * e + (-1j * n) ** order * np.conj(cb) * np.conj(e)
        out = out + r ** (2 * (k - 1) + n) * phases
    return out


def term_loop_jacobian(F, z):
    """|F_z|^2 - |F_zbar|^2 with (F_z, F_zbar) differentiated term by term."""
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    r2 = (z * zc).real
    fz = np.zeros(z.shape, dtype=complex)
    fzb = np.zeros(z.shape, dtype=complex)
    for n, k, ca, cb in _terms(F):
        cbc = np.conj(cb)
        inner = r2 ** (k - 2) if k > 1 else 0.0
        outer = r2 ** (k - 1)
        fz = fz + ca * ((k - 1) * inner * zc * z ** n + n * outer * z ** (n - 1))
        fz = fz + cbc * (k - 1) * inner * zc ** (n + 1)
        fzb = fzb + ca * (k - 1) * inner * z ** (n + 1)
        fzb = fzb + cbc * ((k - 1) * inner * z * zc ** n + n * outer * zc ** (n - 1))
    return np.abs(fz) ** 2 - np.abs(fzb) ** 2


def term_loop_grid(F, grid):
    """(F, F_theta, F_thetatheta, Jacobian) on the grid's points, each term by term."""
    z, r, theta = grid.points(), grid.radii()[:, None], grid.angles()[None, :]
    return (evaluate(F, z), term_loop_theta_derivative(F, r, theta, 1),
            term_loop_theta_derivative(F, r, theta, 2), term_loop_jacobian(F, z))


def polyline_self_intersections(pts: np.ndarray) -> int:
    """Count proper crossings between non-adjacent segments of a closed polyline."""
    pts = np.asarray(pts, dtype=complex)
    n = len(pts)
    p = pts
    q = np.roll(pts, -1)

    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    count = 0
    for i in range(n):
        # vectorize the partner loop
        j = np.arange(i + 2, n if i > 0 else n - 1)
        if len(j) == 0:
            continue
        p1, q1 = p[i], q[i]
        p2, q2 = p[j], q[j]
        d1 = cross(p1, q1, p2)
        d2 = cross(p1, q1, q2)
        d3 = cross(p2, q2, np.full(len(j), p1))
        d4 = cross(p2, q2, np.full(len(j), q1))
        proper = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
        count += int(np.count_nonzero(proper))
    return count


def ray_crossing_counts(pts: np.ndarray, directions: int = 4096) -> np.ndarray:
    """For each direction (offset half a step to dodge vertex alignment), the
    number of polygon edges crossed by the ray from the origin."""
    pts = np.asarray(pts, dtype=complex)
    u = pts
    v = np.roll(pts, -1)
    phis = 2.0 * np.pi * (np.arange(directions) + 0.5) / directions
    counts = np.zeros(directions, dtype=int)
    for i, phi in enumerate(phis):
        rot = np.exp(-1j * phi)
        a = u * rot
        b = v * rot
        straddle = (a.imag > 0) != (b.imag > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = (b.imag * a.real - a.imag * b.real) / (b.imag - a.imag)
        counts[i] = int(np.count_nonzero(straddle & (x_cross > 0)))
    return counts


def polyline_is_convex(pts: np.ndarray, tol: float = -1e-9) -> bool:
    """All consecutive-edge cross products share one sign within tol."""
    pts = np.asarray(pts, dtype=complex)
    e = np.roll(pts, -1) - pts
    e2 = np.roll(e, -1)
    cr = e.real * e2.imag - e.imag * e2.real
    orientation = 1.0 if float(np.sum(cr)) >= 0 else -1.0
    return bool(np.min(orientation * cr) >= tol)


def collision_spacing(w: np.ndarray) -> np.ndarray:
    """Local image spacing of each grid point, as the collision pass defines it.

    Point (i, j) takes the least of: its distances to (i, j+1) and (i, j+2);
    for dr in 1..2 and ds in -2..2, its distance to (i-dr, j+ds) and the
    distance between (i+dr, j) and (i, j+ds). Ray indices wrap; ring indices
    stop at the grid edge.
    """
    R, S = w.shape
    ring, ray = np.indices((R, S))
    best = np.full((R, S), np.inf)
    for ds in (1, 2):
        best = np.minimum(best, np.abs(w - w[ring, (ray + ds) % S]))
    for dr in (1, 2):
        for ds in range(-2, 3):
            inner = ring >= dr
            i, j = ring[inner], ray[inner]
            best[inner] = np.minimum(best[inner], np.abs(w[i, j] - w[i - dr, (j + ds) % S]))
            outer = ring + dr < R
            i, j = ring[outer], ray[outer]
            best[outer] = np.minimum(best[outer], np.abs(w[i + dr, j] - w[i, (j + ds) % S]))
    return best


def collision_rule(w: np.ndarray):
    """(tolerance per point, absolute floor) of the collision pair rule."""
    wf = w.ravel()
    floor = 1e-9 * max(np.ptp(wf.real), np.ptp(wf.imag), 1e-300)
    return COLLISION_FACTOR * collision_spacing(w).ravel(), floor


def colliding(w: np.ndarray, tol: np.ndarray, floor: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Mask of the flat index pairs (i, j) that count as collisions: not within
    Chebyshev distance 2 on the (ring, wrapping ray) grid, and with images
    closer than max(min(tol_i, tol_j), floor)."""
    rays = w.shape[1]
    wf = w.ravel()
    ring_i, ray_i = np.divmod(i, rays)
    ring_j, ray_j = np.divmod(j, rays)
    dray = np.abs(ray_i - ray_j)
    far = (np.abs(ring_i - ring_j) > 2) | (np.minimum(dray, rays - dray) > 2)
    return far & (np.abs(wf[i] - wf[j]) < np.maximum(np.minimum(tol[i], tol[j]), floor))


def brute_force_collisions(w: np.ndarray) -> int:
    """Collision count over all pairs i < j of grid points, with no spatial index."""
    tol, floor = collision_rule(w)
    n = w.size
    return sum(
        int(np.count_nonzero(colliding(w, tol, floor, np.full(n - a - 1, a), np.arange(a + 1, n))))
        for a in range(n - 1)
    )


def reference_collision_count(w: np.ndarray, factor: float = COLLISION_FACTOR) -> int:
    """_collision_count as it hashed one threshold octave at a time, from twelve
    np.roll copies of the image."""
    R, S = w.shape
    wf = w.ravel()
    extent = np.ptp(wf.real), np.ptp(wf.imag)
    if not np.isfinite(np.hypot(*extent)):  # then every distance below is finite
        raise NonFiniteError("F's image is too wide for float64: distances between grid points overflow")
    reach = _NEIGHBOR_REACH
    spacing = np.full((R, S), np.inf)
    for dr in range(0, reach + 1):
        for ds in range(-reach, reach + 1):
            if dr == 0 and ds <= 0:
                continue  # (0,0) and mirrored ray offsets
            shifted = np.roll(w, -ds, axis=1)
            if dr == 0:
                d = np.abs(w - shifted)
                spacing = np.minimum(spacing, d)
            elif dr < R:
                d = np.abs(w[dr:] - shifted[:-dr])
                spacing[dr:] = np.minimum(spacing[dr:], d)
                spacing[:-dr] = np.minimum(spacing[:-dr], d)

    diam = max(*extent, 1e-300)
    t = np.maximum(factor * spacing.ravel(), _COLLISION_FLOOR * diam)
    octave = np.frexp(t)[1]  # t < 2**octave
    x0, y0 = wf.real.min(), wf.imag.min()

    collisions = 0
    lowest = int(octave.min())
    # bincount, not np.unique: numpy 2.4's hash-based unique keeps about 1 MB
    # allocated for the life of the process, which shows in peak RSS.
    for level in lowest + np.flatnonzero(np.bincount(octave - lowest)):
        cands = np.flatnonzero(octave >= level)
        # Cells of at least twice the octave's top threshold: partners within
        # t lie in the 3x3 neighbour cells even after rounding. Cell indices
        # count from the bounding-box corner and stay below diam / floor = 1e9,
        # so the combined key fits int64.
        cell = np.ldexp(1.0, int(level) + 1)
        kx = np.floor((wf.real[cands] - x0) / cell).astype(np.int64)
        ky = np.floor((wf.imag[cands] - y0) / cell).astype(np.int64) + 1
        stride = int(ky.max()) + 2
        keys = kx * stride + ky
        order = np.argsort(keys)
        keys, cands = keys[order], cands[order]
        mine = octave[cands] == level
        queries, query_keys = cands[mine], keys[mine]
        # One key range per neighbour column covers its dy = -1..1 cells;
        # queries in key order keep the searchsorted needles sorted.
        for column in (-stride, 0, stride):
            lo = np.searchsorted(keys, query_keys + (column - 1), side="left")
            hi = np.searchsorted(keys, query_keys + (column + 1), side="right")
            collisions += _close_pairs(wf, t, S, queries, cands, lo, hi)
    return collisions


# --- Fraction-loop references for the exact core -------------------------------


def exact_sqrt(q: Fraction):
    """Square root of a nonnegative rational, or None if it is irrational."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_scalar(q):
    """The root that ``exact.root_term`` must give, from the reduced Fraction q: exact when q is a
    rational square, else the float root of float(q), or past float64 within an ulp from a 64-bit
    isqrt, scaled; NonFiniteError when that root is too large too."""
    if is_exact(q):
        root = exact_sqrt(Fraction(q))
        if root is not None:
            return root
    try:
        return math.sqrt(float(q))
    except OverflowError:  # q is exact: sqrt(q) = isqrt(q / 4**s) 2**s, to 64 bits
        s = (q.numerator.bit_length() - q.denominator.bit_length()) // 2 - 64
    try:
        return math.ldexp(float(math.isqrt(q.numerator // (q.denominator << 2 * s))), s)
    except OverflowError:
        raise NonFiniteError(f"the square root of an exact value near 2**{2 * s + 128} overflows float64") from None


def reference_magnitude(c: Coefficient):
    """|c| as a Fraction when exact and rational, else a float: the float of the complex value, the
    absolute value of a part on an axis, or the root of the Fraction |c|^2 by sqrt_scalar."""
    if not c.exact:
        return abs(c.as_complex())
    if c.im == 0:
        return abs(c.re)
    if c.re == 0:
        return abs(c.im)
    return sqrt_scalar(c.re * c.re + c.im * c.im)


def reference_product(x: Coefficient, y: Coefficient) -> Coefficient:
    """Coefficient product with all four part products and both sums."""
    return Coefficient(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def reference_convolve(F, G) -> PolyharmonicMap:
    """Entrywise four-product form; the result has the larger depth."""
    p = max(F.p, G.p)
    a = {key: reference_product(F.a[key], G.a[key]) for key in F.a.keys() & G.a.keys()}
    b = {key: reference_product(F.b[key], G.b[key]) for key in F.b.keys() & G.b.keys()}
    return PolyharmonicMap(p, a, b)


def reference_integral_convolve(F, G) -> PolyharmonicMap:
    """Entrywise four-product form, each part multiplied by a newly built Fraction(1, n)."""
    p = max(F.p, G.p)

    def entry(x, y, n):
        c = reference_product(x, y)
        return Coefficient(c.re * Fraction(1, n), c.im * Fraction(1, n))

    a = {(n, k): entry(F.a[(n, k)], G.a[(n, k)], n) for n, k in F.a.keys() & G.a.keys()}
    b = {(n, k): entry(F.b[(n, k)], G.b[(n, k)], n) for n, k in F.b.keys() & G.b.keys()}
    return PolyharmonicMap(p, a, b)


def reference_rescale_convexity_certificate(F, lam, r) -> bool:
    """The certificate as three checks over the support: the per-term inequality
    (2(k-1)+n^2) r^(2k+n-3) <= weight(n,k,lambda), the summed form <= 1, and the
    hc row-1 margin of rescale(F, r)."""
    lam, r = as_scalar(lam), as_scalar(r)
    _hs_lambda_member(F, lam)
    if not 0 < r <= convexity_radius(lam):
        raise ParamError(f"radius {r} outside (0, {convexity_radius(lam)}]")
    total = Fraction(0)
    for n, k in F.support():
        if n < 2:
            continue
        hc_weight = 2 * (k - 1) + n * n
        scale = r ** (2 * k + n - 3)
        if not hc_weight * scale <= weight(n, k, lam):
            return False
        pair = reference_magnitude(F.coeff_a(n, k)) + reference_magnitude(F.coeff_b(n, k))
        total = total + hc_weight * pair * scale
    if not total <= 1:
        return False
    return bool(membership(rescale(F, r), hc()).row1_margin >= 0)


def off_axis(F: PolyharmonicMap, turn: Coefficient) -> PolyharmonicMap:
    """F with every coefficient but a[1,1] multiplied by ``turn``."""
    a = {key: c if key == (1, 1) else c * turn for key, c in F.a.items()}
    return PolyharmonicMap(F.p, a, {key: c * turn for key, c in F.b.items()})


# (2 + i)/3 turns an axis coefficient off the axes, with the irrational magnitude sqrt(5)/3.
IRRATIONAL_TURN = Coefficient(Fraction(2, 3), Fraction(1, 3))


def reference_membership(F, params) -> MembershipReport:
    """Both inequality rows as left folds of Fraction/float terms, one weight() per term."""
    lam = {Family.HS_LAMBDA: params.lam, Family.HS: Fraction(0), Family.HC: Fraction(1)}[params.family]
    exact = is_exact(lam)
    row1_lhs = first_weighted = first_plain = Fraction(0)
    b11_mag = reference_magnitude(F.coeff_b(1, 1))
    exact &= is_exact(b11_mag)
    for n, k in F.support():
        ma, mb = reference_magnitude(F.coeff_a(n, k)), reference_magnitude(F.coeff_b(n, k))
        pair = ma + mb
        exact &= is_exact(ma) and is_exact(mb)
        if n >= 2:
            row1_lhs = row1_lhs + weight(n, k, lam) * pair
        elif k >= 2:
            first_weighted = first_weighted + (2 * k - 1) * pair
            first_plain = first_plain + pair
    first_weighted = first_weighted + 1 + b11_mag
    row1_rhs = 2 - first_weighted
    if params.family is Family.HS_LAMBDA:
        row2_condition, row2_lo, row2_hi = first_weighted, Fraction(1), Fraction(2)
    else:
        row2_condition, row2_lo, row2_hi = b11_mag + first_plain, Fraction(0), Fraction(1)
    used_epsilon = not is_exact(row2_condition)  # a float must clear the strict bound by EPS_STRICT
    upper_ok = row2_condition < (float(row2_hi) - EPS_STRICT if used_epsilon else row2_hi)
    row2_ok = bool(row2_condition >= row2_lo) and upper_ok
    member = bool(row1_rhs - row1_lhs >= 0) and row2_ok and (F.is_normalized or not params.normalized)
    return MembershipReport(params, row1_lhs, row1_rhs, first_weighted, row2_condition, row2_lo, row2_hi,
                            row2_ok, F.is_normalized, member, exact, used_epsilon and not exact)


def reference_neighborhood_distance(F, G):
    """Weighted l1 distance as a left fold of Fraction/float terms."""
    total = Fraction(0)
    keys = (F.a.keys() | G.a.keys() | F.b.keys() | G.b.keys()) - {(1, 1)}
    for n, k in sorted(keys, key=lambda nk: (nk[1], nk[0])):
        da = reference_magnitude(F.coeff_a(n, k) - G.coeff_a(n, k))
        db = reference_magnitude(F.coeff_b(n, k) - G.coeff_b(n, k))
        total = total + ((2 * (k - 1) + n) if n >= 2 else (2 * k - 1)) * (da + db)
    return total + reference_magnitude(F.coeff_b(1, 1) - G.coeff_b(1, 1))


def same(x, y) -> bool:
    """Equal and of one type; floats compare by repr, so every bit counts."""
    return type(x) is type(y) and (repr(x) == repr(y) if isinstance(x, float) else x == y)


def assert_same_report(got, want) -> None:
    for name in type(want).__slots__:
        assert same(getattr(got, name), getattr(want, name)), name
    assert got.to_kv() == want.to_kv()


def on_grid(table, radii, rays):
    """The table's sum at radii[j] e^{2 pi i s / rays}, by geometry's grid kernel, in an array of its own."""
    return _grids((table,), radii, np.empty((1, radii.size, rays), dtype=complex))[0]


def grid_wirtinger(F, grid):
    """(F_z, F_zbar) at grid.points(), by geometry's grid kernel on the Wirtinger tables."""
    return tuple(on_grid(table, grid.radii(), grid.rays) for table in _d_wirtinger(_monomials(F)))


def reference_verify_geometry(F, grid, checks=ALL_CHECKS) -> GeometryReport:
    """verify_geometry with F, F_theta, F_thetatheta, F_z and F_zbar all held until it returns."""
    checks = tuple(c for c in ALL_CHECKS if c in set(checks))
    if not checks:
        raise ParamError("no recognized checks requested")
    if grid.rings * grid.rays > MAX_GRID_POINTS:  # counted before any array is built
        raise GridTooLargeError(f"{grid.rings}x{grid.rays} grid exceeds {MAX_GRID_POINTS} points")
    radii = grid.radii()
    angles = grid.angles()
    table = _monomials(F)

    def values(name, tab):
        return _finite((name,), on_grid(tab, radii, angles.size)[None])[0]

    min_jac = min_arg = min_conv = None
    collisions = certified = None
    degenerate = EPS_ZERO * radii[:, None]
    with np.errstate(all="ignore"):  # overflow shows as NonFiniteError, not as a warning
        if "jacobian" in checks:
            fz, fzb = (on_grid(tab, radii, angles.size) for tab in _d_wirtinger(table))
            jac = _finite(("Jacobian",), (np.abs(fz) ** 2 - np.abs(fzb) ** 2)[None])[0]
            min_jac = _minimum(jac)
        if "injective" in checks:
            certified = _injectivity_certified(table, grid)
        w = d1 = None  # F and F_theta, each computed once for the checks sharing it
        if "starlike" in checks or certified is False:
            w = values("F", table)
        if "starlike" in checks or "convex" in checks:
            d1 = values("F_theta", _d_theta(table, 1))
        if "starlike" in checks:
            bad = np.abs(w) <= degenerate
            min_arg = _minimum(np.where(bad, -np.inf, np.imag(d1 / np.where(bad, 1.0, w))))
        if "convex" in checks:
            d2 = values("F_thetatheta", _d_theta(table, 2))
            bad = np.abs(d1) <= degenerate
            min_conv = _minimum(np.where(bad, -np.inf, np.imag(d2 / np.where(bad, 1.0, d1))))
        if "injective" in checks:
            collisions = 0 if certified else _collision_count(w)

    return GeometryReport(
        grid=grid,
        checks=checks,
        min_jacobian=min_jac,
        min_arg_derivative=min_arg,
        min_convexity_indicator=min_conv,
        injectivity_collisions=collisions,
        injectivity_certified=certified,
    )


# --- Per-curve render reference ------------------------------------------------


def _reference_extrema(rep):
    return [("jacobian", rep.min_jacobian), ("arg_derivative", rep.min_arg_derivative),
            ("convexity_indicator", rep.min_convexity_indicator)]


def reference_geometry_kv(rep) -> str:
    """GeometryReport.to_kv as it was written out line by line."""
    lines = [f"rings={rep.grid.rings}", f"rays={rep.grid.rays}", f"r_max={rep.grid.r_max!r}",
             f"checks={','.join(rep.checks)}"]
    for name, ext in _reference_extrema(rep):
        if ext is None:
            continue
        lines.append(f"min_{name}={ext.value!r}")
        lines.append(f"argmin_{name}_ring={ext.ring}")
        lines.append(f"argmin_{name}_ray={ext.ray}")
    if rep.injectivity_collisions is not None:
        lines.append(f"injectivity_collisions={rep.injectivity_collisions}")
    if rep.injectivity_certified is not None:
        lines.append(f"injectivity_certified={'true' if rep.injectivity_certified else 'false'}")
    lines.append(f"passed={'true' if rep.passed() else 'false'}")
    return "\n".join(lines)


def reference_cubic(coeffs, r):
    """DistortionEnvelope.lower/upper as they were written with numpy; the distortion margins carry its bits."""
    c1, c2, c3 = coeffs
    r = np.asarray(r, dtype=float)
    val = r * (c1 + r * (c2 + r * c3))
    return float(val[()]) if val.ndim == 0 else val


def reference_layer_bound_check(F, lam, samples=500, seed=0, tol=1e-12) -> bool:
    """The per-layer bound |G_k(z)| <= (|a[1,k]|+|b[1,k]|)|z| + (1-|b11|)/(2(1+lambda))|z|^2
    at ``samples`` seeded points z = r e^{i theta}, r in [0, 0.999), for each layer that
    carries a coefficient: the sampled check the coefficient test replaced."""
    if samples > MAX_GRID_POINTS:
        raise GridTooLargeError(f"{samples} samples exceed {MAX_GRID_POINTS}")
    if samples < 1:
        raise ParamError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 0.999, samples)
    z = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, samples))
    lam = float(_hs_lambda_member(F, lam).params.lam)
    c2 = (1.0 - float(reference_magnitude(F.coeff_b(1, 1)))) / (2.0 * (1.0 + lam))
    alpha, beta, c = _monomials(F)
    low = np.minimum(alpha, beta)
    for m in sorted(set(low.tolist())):  # G_k: the rows with min(alpha, beta) = m = k-1, without |z|^(2m)
        row = low == m
        g = np.abs(_pointwise((alpha[row] - m, beta[row] - m, c[row]), z))
        lead = float(reference_magnitude(F.coeff_a(1, m + 1)) + reference_magnitude(F.coeff_b(1, m + 1)))
        if not np.all(g <= lead * r + c2 * r * r + tol):
            return False
    return True


def reference_curves(F, spec) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(curve_id, parameter values, image vertices) for every ring and ray, one evaluate call per curve."""
    m = spec.samples_per_curve
    out = []
    theta = 2.0 * np.pi * np.arange(m) / m
    for idx, r in enumerate(spec.grid.radii(), start=1):
        out.append((f"ring_{idx}", theta, evaluate(F, r * np.exp(1j * theta))))
    radial = spec.grid.r_max * np.arange(m + 1) / m
    for ray, ang in enumerate(spec.grid.angles()):
        out.append((f"ray_{ray}", radial, evaluate(F, radial * np.exp(1j * ang))))
    return out


def reference_render_csv(F, spec) -> bytes:
    """CSV rows formatted one numpy scalar at a time."""
    lines = ["curve_id,theta_or_r,re,im"]
    for curve_id, params, w in reference_curves(F, spec):
        for t, v in zip(params, w):
            lines.append(f"{curve_id},{t:.17g},{v.real:.17g},{v.imag:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_render_svg(F, spec) -> bytes:
    """SVG with the canvas transform and formatting applied one vertex at a time."""
    curves = reference_curves(F, spec)
    all_pts = np.concatenate([w for _, _, w in curves])
    x_min, x_max = float(np.min(all_pts.real)), float(np.max(all_pts.real))
    y_min, y_max = float(np.min(all_pts.imag)), float(np.max(all_pts.imag))
    usable_w = spec.width * (1.0 - 2.0 * MARGIN)
    usable_h = spec.height * (1.0 - 2.0 * MARGIN)
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
        sw = STROKE_WIDTH
        if i == n_rings - 1:
            sw = 2.0 * STROKE_WIDTH
        pts = " ".join(
            f"{off_x + scale * v.real:.6f},{off_y - scale * v.imag:.6f}" for v in verts
        )
        lines.append(f'<polyline fill="none" stroke="black" stroke-width="{sw:.6f}" points="{pts}"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- Hypothesis strategies ------------------------------------------------------

exact_parts = st.fractions(min_value=-1, max_value=1, max_denominator=60)
float_parts = st.floats(min_value=-1, max_value=1)
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
KINDS = ("axis", "pythagorean", "irrational", "decimal", "mixed")


@st.composite
def coefficients(draw, kind=None):
    """A coefficient of one kind: an exact one on an axis, with a Pythagorean or an
    irrational magnitude, one with decimal (float) parts, or one part of each."""
    kind = kind or draw(st.sampled_from(KINDS))
    q = draw(exact_parts)
    if kind == "axis":
        return draw(st.sampled_from((Coefficient(q, 0), Coefficient(0, q))))
    if kind == "pythagorean":
        x, y, h = draw(st.sampled_from(PYTHAGOREAN))
        return Coefficient(q * x / h, -q * y / h)
    if kind == "irrational":
        return Coefficient(q, q / 2)
    if kind == "decimal":
        return Coefficient(draw(float_parts), draw(float_parts))
    x = draw(float_parts)
    return draw(st.sampled_from((Coefficient(q, x), Coefficient(x, q))))


@st.composite
def maps(draw):
    """A valid map of up to three layers whose coefficients are all of one kind,
    or, for the kind "mixed", each of any kind."""
    kind = draw(st.sampled_from(KINDS))
    entry = coefficients(None if kind == "mixed" else kind)
    p = draw(st.integers(1, 3))
    keys = st.tuples(st.integers(1, 6), st.integers(1, p)).filter(lambda nk: nk != (1, 1))
    a = draw(st.dictionaries(keys, entry, max_size=8))
    b = draw(st.dictionaries(keys, entry, max_size=8))
    if draw(st.booleans()):
        b11 = draw(entry)
        b[(1, 1)] = Coefficient(b11.re / 2, b11.im / 2)  # |b11| <= 1/sqrt(2)
    return PolyharmonicMap(p, {(1, 1): Coefficient(1, 0), **a}, b)
