"""Pointwise evaluation, derivatives, and grid-based geometric verification.

The angular-derivative quantities drive the geometric checks:

    arg rate        Im(F_theta / F)            > 0 on circles  -> starlike
    convexity rate  Im(F_thetatheta / F_theta) > 0 on circles  -> convex
    Jacobian        |F_z|^2 - |F_zbar|^2       > 0             -> sense-preserving

Working with Im(F_theta/F) instead of differentiating arg avoids branch
unwrapping entirely. The two rates exist only as `verify_geometry` minima
(DiskGrid(1, N, r) samples one circle), -inf at degenerate points. All grid
reductions are deterministic: minima are taken in ring-major order, so argmin
ties break to the lowest ring, then lowest ray.
A passing grid report is sampled evidence, not a proof, with one exception:
a certified zero collision count (``injectivity_certified``). The certificate
is the two-sided Lipschitz bound m |z1 - z2| <= |F(z1) - F(z2)| from the
coefficients (`_lipschitz_bounds`), and m > 0 proves F injective on the whole
closed disk |z| <= r_max, not only on the grid.

Every value comes from one monomial table per map, F(z) = sum c z^alpha
conj(z)^beta, which d/dtheta, d/dz and d/dzbar reweight, and two kernels read
it. `_pointwise` sums it term by term at any points; its order fixes the bits
of `evaluate`, which the render goldens pin. `_grids` serves DiskGrid
points, where a monomial is r^(alpha+beta) e^{2 pi i (alpha-beta) s / rays}:
each ring is one inverse FFT of a spectrum holding c r^(alpha+beta) at
frequency (alpha-beta) mod rays, exactly, as s is an integer. Its sums run in
another order, so grid minima can differ from pointwise values in the last
digits and an argmin can move between tied points.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from .errors import (
    MAX_GRID_POINTS,
    GridTooLargeError,
    NonFiniteError,
    ParamError,
    as_integers,
)
from .exact import Record, brief_scalar, kv_lines, set_field
from .operators import distortion_envelope
from .series import PolyharmonicMap

EPS_ZERO = 1e-12          # nondegeneracy threshold for the rates' denominators, relative to the ring radius
SIGN_TOL = -1e-9          # sign checks pass above this (boundary-tight examples)

# Fraction of the local image spacing below which two non-adjacent grid images
# count as a collision. Boundary-tight maps develop near-cusps whose straddling
# chords shrink like (1 - r_max) * ray spacing, so the factor must stay well
# under rays * (1 - r_max) / (2*pi); 0.1 holds a >2x margin at the documented
# grids (rays >= 128, r_max <= 0.995) while genuine folds collide at ratios
# orders of magnitude smaller.
COLLISION_FACTOR = 0.1


def _monomials(F: PolyharmonicMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support as a monomial table (alpha, beta, c), F(z) = sum c z^alpha conj(z)^beta:
    a[n,k] |z|^(2(k-1)) z^n is (n+k-1, k-1, a), |z|^(2(k-1)) conj(b[n,k] z^n) is (k-1, n+k-1, conj b).
    A total degree alpha + beta = n + 2k - 2 of 2**63 or more raises NonFiniteError."""
    if max(n + 2 * k for n, k in (*F.a, *F.b)) - 2 >= 2 ** 63:
        raise NonFiniteError("a monomial degree n + 2k - 2 reaches 2**63 and does not fit int64")
    rows = [(n + k - 1, k - 1, c.as_complex("a", (n, k))) for (n, k), c in F.a.items()]
    rows += [(k - 1, n + k - 1, c.as_complex("b", (n, k)).conjugate()) for (n, k), c in F.b.items()]
    return tuple(np.array(col) for col in zip(*rows))  # never empty: a[1,1] = 1


def _d_theta(table, order: int):
    """z^alpha conj(z)^beta = r^(alpha+beta) e^{i(alpha-beta)theta}: c gains (i(alpha-beta))^order."""
    alpha, beta, c = table
    return alpha, beta, (1j * (alpha - beta)) ** order * c


def _d_wirtinger(table):
    """(F_z, F_zbar): c gains alpha (beta), which drops by one; monomials free of it vanish."""
    alpha, beta, c = table
    dz, dzb = alpha > 0, beta > 0
    return (alpha[dz] - 1, beta[dz], (alpha * c)[dz]), (alpha[dzb], beta[dzb] - 1, (beta * c)[dzb])


def _pointwise(table, z) -> np.ndarray:
    """The table's sum at the points z. With m = min(alpha, beta) and d = |alpha - beta|,
    c z^alpha conj(z)^beta is |z|^(2m) c z^d, or |z|^(2m) conj(c' z^d) with c' = conj c for
    alpha < beta. Each (m, d) in increasing order adds |z|^(2m) (c z^d + conj(c' z^d)),
    a missing side as 0. A map's own (m, d) is (k-1, n), so this is the series' term loop."""
    z = np.asarray(z, dtype=complex)
    r2 = z.real * z.real + z.imag * z.imag
    sides = {}
    for a, b, c in zip(*(col.tolist() for col in table)):
        key = (min(a, b), abs(a - b), a < b)
        c = c.conjugate() if a < b else c
        sides[key] = sides[key] + c if key in sides else c
    out = np.zeros(z.shape, dtype=complex)
    for m, d in sorted({key[:2] for key in sides}):
        zd = z ** d
        layer = r2 ** m if m else 1.0
        out = out + layer * (sides.get((m, d, False), 0j) * zd + np.conj(sides.get((m, d, True), 0j) * zd))
    return out


def _unwrap(values):
    """A 0-d result as a Python complex or float; an array as it is."""
    return values.item() if np.ndim(values) == 0 else values


def evaluate(F: PolyharmonicMap, z):
    """F(z) for complex scalars or arrays (finite sum over the support, term by term)."""
    return _unwrap(_pointwise(_monomials(F), z))


def theta_derivative(F: PolyharmonicMap, r, theta, order: int = 1):
    """Closed-form d^order/dtheta^order of F(r e^{i theta}), from the monomial table."""
    if order not in (1, 2):
        raise ParamError(f"derivative order must be 1 or 2, got {order}")
    z = np.asarray(r, dtype=float) * np.exp(1j * np.asarray(theta, dtype=float))
    return _unwrap(_pointwise(_d_theta(_monomials(F), order), z))


def jacobian(F: PolyharmonicMap, z):
    """|F_z|^2 - |F_zbar|^2; positive where F is sense-preserving. 0^0 = 1 keeps it finite at 0."""
    fz, fzb = (_pointwise(table, z) for table in _d_wirtinger(_monomials(F)))
    return _unwrap(np.abs(fz) ** 2 - np.abs(fzb) ** 2)


# --- grids and reports -------------------------------------------------------


class DiskGrid(Record):
    """Polar sampling grid: ``rings`` circles up to r_max, ``rays`` angles.

    Ring j = 1..rings sits at r_max * j / rings; rings and rays are integers.
    Neighbouring points of the innermost ring must lie at least 2**-1000 apart,
    so that distances between grid points and their images stay normal float64
    numbers: a smaller r_max raises ParamError.
    """

    __slots__ = ("rings", "rays", "r_max")
    _defaults = {"rings": 32, "rays": 256, "r_max": 0.995}

    def _check(self):
        as_integers(self, "rings", "rays")
        if self.rings < 1:
            raise ParamError(f"rings must be >= 1, got {self.rings}")
        if self.rays < 3:
            raise ParamError(f"rays must be >= 3, got {self.rays}")
        if not 0 < self.r_max < 1:  # compared exactly, before it converts
            raise ParamError(f"r_max must lie in (0,1), got {brief_scalar(self.r_max)}")
        r_max = float(self.r_max)
        if r_max in (0, 1):
            raise ParamError(f"r_max={brief_scalar(self.r_max)} rounds to {r_max} in float64")
        set_field(self, "r_max", r_max)
        try:
            gap = self.r_max / self.rings * 2 * np.sin(np.pi / self.rays)
        except OverflowError:
            raise ParamError("rings and rays must convert to float64") from None
        if gap < 2.0 ** -1000:
            raise ParamError(f"r_max={self.r_max!r} is too small for float64: neighbouring points of the "
                             f"innermost ring lie {gap:.3g} apart, below 2**-1000")

    def radii(self) -> np.ndarray:
        return self.r_max * np.arange(1, self.rings + 1) / self.rings

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.rays) / self.rays

    def points(self) -> np.ndarray:
        """Complex sample points, shape (len(radii), rays), ring-major."""
        return self.radii()[:, None] * np.exp(1j * self.angles())[None, :]


class Extremum(Record):
    """A grid minimum and where it lies: 0-based indices into the report grid's radii() and angles()."""

    __slots__ = ("value", "ring", "ray")


class GeometryReport(Record):
    """Grid minima (with argmin locations) and the injectivity collision count.

    ``injectivity_certified`` is True when the coefficient certificate proved
    the count zero without searching, False when the count was searched, and
    None when the injective check did not run.
    """

    __slots__ = ("grid", "checks", "min_jacobian", "min_arg_derivative", "min_convexity_indicator",
                 "injectivity_collisions", "injectivity_certified")
    _defaults = dict.fromkeys(__slots__[2:])  # the minima and the collision count default to None

    def passed(self) -> bool:
        """Thresholds: jacobian > 0, starlike > 0, convex >= SIGN_TOL, zero collisions."""
        ok = True
        if self.min_jacobian is not None:
            ok &= self.min_jacobian.value > 0
        if self.min_arg_derivative is not None:
            ok &= self.min_arg_derivative.value > 0
        if self.min_convexity_indicator is not None:
            ok &= self.min_convexity_indicator.value >= SIGN_TOL
        if self.injectivity_collisions is not None:
            ok &= self.injectivity_collisions == 0
        return bool(ok)

    def _extrema(self) -> list[tuple[str, Extremum]]:
        """(quantity, minimum) for each grid minimum that was computed, in report order."""
        named = [("jacobian", self.min_jacobian), ("arg_derivative", self.min_arg_derivative),
                 ("convexity_indicator", self.min_convexity_indicator)]
        return [(name, ext) for name, ext in named if ext is not None]

    def to_kv(self) -> str:
        fields = [("rings", self.grid.rings), ("rays", self.grid.rays), ("r_max", self.grid.r_max),
                  ("checks", ",".join(self.checks))]
        for name, ext in self._extrema():
            fields += [(f"min_{name}", ext.value), (f"argmin_{name}_ring", ext.ring), (f"argmin_{name}_ray", ext.ray)]
        injectivity = [("injectivity_collisions", self.injectivity_collisions),
                       ("injectivity_certified", self.injectivity_certified)]
        fields += [(name, value) for name, value in injectivity if value is not None]
        return kv_lines(fields + [("passed", self.passed())])


def _minimum(values: np.ndarray) -> Extremum:
    ring, ray = divmod(int(np.argmin(values)), values.shape[1])  # C order: ties break to lowest ring, then ray
    return Extremum(float(values[ring, ray]), ring, ray)


_NEIGHBOR_REACH = 2  # Chebyshev radius that counts as grid-adjacent
_COLLISION_FLOOR = 1e-9  # least pair threshold, as a share of the image diameter
_PAIR_BLOCK = 1 << 15  # candidate pairs examined per vectorised block
_TERM_BLOCK = 1 << 15  # ring-by-monomial spectrum values scattered per block


def _collision_count(w: np.ndarray) -> int:
    """Count non-adjacent grid pairs whose images nearly coincide.

    Pair (i, j) collides when |w_i - w_j| < max(min(tol_i, tol_j), floor), where
    tol is COLLISION_FACTOR times a point's local image spacing and the floor,
    1e-9 of the image diameter, keeps exact overlaps countable where the local
    spacing degenerates. Pairs within Chebyshev index distance 2 (rays wrap)
    are adjacent and never collide.

    The local spacing of point (i, j) is the least of these distances (ray
    offsets wrap, ring offsets stop at the grid edge):

    - along its ring, to the +1 and +2 ray neighbours (i, j+1), (i, j+2);
    - for dr in 1..2, ds in -2..2, to the inner-ring point (i-dr, j+ds);
    - for dr in 1..2, ds in -2..2, between (i+dr, j) and (i, j+ds), which is
      not a distance from (i, j) itself unless ds = 0.

    The inner-ring terms catch a sheared image grid whose shortest local
    lattice vector is a (1, 2) "knight's move" rather than an axis step.

    The search is multilevel spatial hashing (Teschner et al., VMV 2003) keyed
    by each point's own threshold t = max(tol, floor): since the pair rule's
    threshold is min(t_i, t_j), each pair is looked up once, from the endpoint
    with the smaller (t, index). The octaves of t are walked upward in bands: a
    band takes in the next octave while it holds at most sqrt(n) points, n the
    grid points. Band [lo, hi] hashes its own points, and the points of higher
    octave within one cell of their bounding box, into cells of 2**(hi+1) and
    looks up its own points, which finds a superset of their pairs: each has
    t < 2**hi, half a cell, so its partners lie in the 3x3 neighbour cells and
    within half a cell of the box, and each partner with larger t has octave
    >= lo, so it is in the table. Sparse octaves thus share one sort and add at
    most sqrt(n) queries to their band, each looking in nine of its cells. The
    cost does not depend on how much the image spacing varies over the grid.
    Each point is sorted as a query once, and again only by the bands whose
    queries lie around it: on half_plane_map(2) at 32x256 the bands sort 12624
    cell keys for 8192 queries, under a third of the 41371 that keying every
    point of higher octave would sort. One sort of the grid by octave precedes them.

    The spacing, distance and difference grids, and then the cell coordinates,
    are this thread's workspace (`_workspace`): moduli[0], moduli[1] and
    complex[1], so w must not be one of them; verify_geometry passes complex[0].

    An image whose bounding-box diagonal overflows float64 raises NonFiniteError:
    its distances, and with them the floor, would be infinite.
    """
    R, S = w.shape
    wf = w.ravel()
    extent = np.ptp(wf.real), np.ptp(wf.imag)
    if not np.isfinite(np.hypot(*extent)):  # then every distance below is finite
        raise NonFiniteError("F's image is too wide for float64: distances between grid points overflow")
    reach = _NEIGHBOR_REACH
    grids, (spacing, d) = _workspace(w.shape)
    diff = grids[1]  # d and diff are reused for every offset
    spacing.fill(np.inf)
    for dr in range(0, min(reach, R - 1) + 1):
        for ds in range(-reach, reach + 1):
            if dr == 0 and ds <= 0:
                continue  # (0,0) and mirrored ray offsets
            # (i+dr, j) against (i, j+ds) for rings i < k, in two slices as rays wrap
            k, s = R - dr, ds % S
            np.subtract(w[dr:, :S - s], w[:k, s:], out=diff[:k, :S - s])
            np.subtract(w[dr:, S - s:], w[:k, :s], out=diff[:k, S - s:])
            np.minimum(spacing[dr:], np.abs(diff[:k], out=d[:k]), out=spacing[dr:])
            if dr:
                np.minimum(spacing[:k], d[:k], out=spacing[:k])

    diam = max(*extent, 1e-300)
    t = spacing.ravel()  # becomes the thresholds in place
    t *= COLLISION_FACTOR
    np.maximum(t, _COLLISION_FLOOR * diam, out=t)
    octave = np.frexp(t)[1]  # t < 2**octave
    lowest = int(octave.min())
    # bincount, not np.unique: numpy 2.4's hash-based unique keeps about 1 MB
    # allocated for the life of the process, which shows in peak RSS.
    sizes = np.bincount(octave - lowest)
    levels = lowest + np.flatnonzero(sizes)
    # Points by decreasing octave, so the points of octave >= lo are a prefix in
    # this rank order and a band's queries that prefix's tail; above[k] points
    # have octave >= lowest + k.
    rank = np.argsort(levels[-1] - octave)
    above = np.append(np.cumsum(sizes[::-1])[::-1], 0)
    del octave
    # Cell coordinates in the finest cells, 2**(lowest+1), from the bounding-box
    # corner; shifting right by hi - lowest gives those in cells of 2**(hi+1).
    # They stay below diam / (2 floor) = 5e8, so a band's keys fit int64.
    # diff's memory holds them, computed in d: floor((part[rank] - part.min()) / finest).
    finest = np.ldexp(1.0, lowest + 1)
    cx, cy = diff.view(np.int64).reshape(2, -1)
    for cells, part in ((cx, wf.real), (cy, wf.imag)):
        x = np.take(part, rank, out=d.reshape(-1))
        x -= part.min()
        x /= finest
        cells[...] = np.floor(x, out=x)
    chunk = max(wf.size // 8, 1)  # queries per lookup, three needles each, to bound its memory

    collisions = held = 0
    for hi in levels:
        lo = hi if held == 0 else lo
        held += sizes[hi - lowest]
        if held <= np.sqrt(wf.size) and hi != levels[-1]:
            continue  # the band [lo, hi] takes in the next octave
        held = 0
        shift = int(hi - lowest)
        start, stop = above[hi - lowest + 1], above[lo - lowest]  # the band's queries in rank order
        x0, y0 = (int(cx[start:stop].min()) >> shift) - 1, (int(cy[start:stop].min()) >> shift) - 1
        x1, y1 = (int(cx[start:stop].max()) >> shift) + 2, (int(cy[start:stop].max()) >> shift) + 2
        # The table: the queries, and the upper-octave points in the cells of
        # their box widened by one cell; no other point lies within 2**hi of a query.
        ux, uy = cx[:start], cy[:start]
        near = (ux >= x0 << shift) & (ux < x1 << shift) & (uy >= y0 << shift) & (uy < y1 << shift)
        table = np.concatenate([np.flatnonzero(near), np.arange(start, stop)])
        stride = y1 - y0
        keys = ((cx[table] >> shift) - x0) * stride + ((cy[table] >> shift) - y0)
        order = np.argsort(keys)
        keys, table = keys[order], table[order]
        mine = np.flatnonzero(table >= start)
        cands = rank[table]
        del near, table, order  # out of the lookup's peak
        # One key range per neighbour column covers its dy = -1..1 cells; no
        # range runs into the next column, as the queries' cells lie inside the box.
        columns = np.array([-stride, 0, stride])[:, None]
        for first in range(0, mine.size, chunk):
            at = mine[first:first + chunk]
            needles = (keys[at] + columns).ravel()
            collisions += _close_pairs(wf, t, S, np.tile(cands[at], 3), cands,
                                       np.searchsorted(keys, needles - 1, side="left"),
                                       np.searchsorted(keys, needles + 1, side="right"))
    return collisions


def _close_pairs(wf, t, rays, queries, partners, lo, hi) -> int:
    """Collisions of each queries[q] with partners[lo[q]:hi[q]].

    A pair counts only from its endpoint that is lower in (t, index) order,
    whose t is then the pair's threshold max(min(tol_i, tol_j), floor).
    Candidate pairs are expanded _PAIR_BLOCK at a time (more only when a single
    query's range is longer), so memory stays bounded however the image folds.
    """
    reach = _NEIGHBOR_REACH
    sizes = hi - lo
    ends = np.cumsum(sizes)
    count = 0
    start = 0
    while start < sizes.size:
        base = ends[start] - sizes[start]
        stop = max(int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right")), start + 1)
        n = sizes[start:stop]
        j = np.repeat(lo[start:stop] - (np.cumsum(n) - n), n)
        j += np.arange(j.size)  # partner positions, built in place
        j = partners[j]
        i = np.repeat(queries[start:stop], n)
        later = (t[j] > t[i]) | ((t[j] == t[i]) & (j > i))
        i, j = i[later], j[later]
        ring_i, ray_i = np.divmod(i, rays)
        ring_j, ray_j = np.divmod(j, rays)
        dray = np.abs(ray_i - ray_j)
        far = (np.abs(ring_i - ring_j) > reach) | (np.minimum(dray, rays - dray) > reach)
        i, j = i[far], j[far]
        del ring_i, ray_i, ring_j, ray_j, dray  # out of the distance test's peak
        gap = wf[i]
        gap -= wf[j]  # in place: one complex temporary per pair, not two
        count += int(np.count_nonzero(np.abs(gap) < t[i]))
        start = stop
    return count


def _lipschitz_bounds(table, r: float) -> tuple[float, float]:
    """(m, M) = (1 - L, 1 + L), so that m |z1 - z2| <= |F(z1) - F(z2)| <= M |z1 - z2| on |z| <= r.

    F is z plus monomials c z^alpha conj(z)^beta, each with |d/dz| + |d/dzbar| =
    (alpha+beta) |c| |z|^(alpha+beta-1) <= (alpha+beta) |c| r^(alpha+beta-1) on the
    disk, which is convex; L sums these over every monomial except z. This is the
    coefficient argument behind the paper's univalence theorem: at r = 1, m is
    the hs row-1 margin, which is nonnegative for every member of hs-lambda.
    """
    alpha, beta, c = table
    e = alpha + beta
    rest = (alpha != 1) | (beta != 0)
    lip = float(np.sum(e[rest] * float(r) ** (e[rest] - 1) * np.abs(c[rest])))
    return 1.0 - lip, 1.0 + lip


def _injectivity_certified(table, grid: DiskGrid) -> bool:
    """True when the coefficients prove that `_collision_count` finds no collision on the grid.

    Write R, S for the grid's rings and rays, s = sin(pi/S), q = _NEIGHBOR_REACH + 1,
    f = COLLISION_FACTOR, and take (m, M) from `_lipschitz_bounds` at r_max. Let
    (i, j) be a non-adjacent grid pair, i the endpoint at the larger radius r_i.

    - Distance. If their rays are q or more apart (wrapping round), the angle
      between them lies in [2 pi q/S, pi], so |z_i - z_j| >= r_i A with
      A = sin(min(2 pi q/S, pi/2)). Otherwise their rings are q or more apart and
      |z_i - z_j| >= r_max B with B = q/R. Either way |z_i - z_j| >= r_max D with
      D = A/R: r_i is at least the innermost radius r_max/R, and A <= 1 < q.
    - Threshold. The pair's is at most t_i = max(f spacing_i, floor). The local
      spacing includes the +1 ray neighbour, 2 r_i s away, so f spacing_i <=
      2 f M r_i s; the image is at most 2 M r_max wide, so floor <=
      2 _COLLISION_FLOOR M r_max.
    - So |F(z_i) - F(z_j)| >= m |z_i - z_j| reaches the threshold whenever
      m > c M with c = max(2 f s/A, 2 f s/B, 2 _COLLISION_FLOOR/D). For 32x256,
      c ~ 0.0334: z plus monomials with L < 0.9354 certifies.

    The pass counts on the computed image, not on F, so the test is
    m > c M (1 + slack). Each computed grid value lies within rho r_i M of F,
    rho = u (terms + 3 + 8 log2(S) sqrt(S)) for the unit roundoff u: the spectrum
    sums, then the inverse FFT, whose error measured about u times the spectrum's
    l1 norm (<= r_i M), far inside this allowance. That moves each distance and
    spacing by at most 2 rho r_i M; slack = 32 rho/s + 2 u R + 8 u covers it and
    the rounding of m, M, the radii and the thresholds. DiskGrid keeps the
    innermost spacing above 2**-1000, so all of this stays in float64's normal
    range, and m r_max D > 1e-309 then also beats the 1e-300 diameter floor.
    """
    m, M = _lipschitz_bounds(table, grid.r_max)
    R, S, q = grid.rings, grid.rays, _NEIGHBOR_REACH + 1
    s = np.sin(np.pi / S)
    A, B = np.sin(min(2 * np.pi * q / S, np.pi / 2)), q / R
    D = A / R
    c = max(2 * COLLISION_FACTOR * s / A, 2 * COLLISION_FACTOR * s / B, 2 * _COLLISION_FLOOR / D)
    u = np.finfo(float).eps / 2
    rho = u * (table[2].size + 3 + 8 * np.log2(S) * np.sqrt(S))
    return bool(m > c * M * (1 + 32 * rho / s + 2 * u * R + 8 * u))


_local = threading.local()  # .workspace: this thread's (complex, moduli) grids


def _workspace(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """This thread's grid buffers for grids of ``shape`` (R, S): ``complex`` (3, R, S) and
    ``moduli`` (2, R, S) float, 64 bytes a point, 2 MiB at MAX_GRID_POINTS. Kept between calls
    with that shape, replaced (the old pair released first) when the shape changes."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws[0].shape[1:] != shape:
        _local.workspace = None
        ws = _local.workspace = (np.empty((3, *shape), dtype=complex), np.empty((2, *shape)))
    return ws


def _grids(tables, radii: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each table's sum at radii[j] e^{2 pi i s / rays}, written into out[q], shape (rings, rays),
    and all of them inverted by one in-place inverse FFT call (``out=``, numpy >= 2.0). Returns out.

    There a monomial is r^(alpha+beta) e^{2 pi i (alpha-beta) s / rays}, so ring j
    is the unscaled inverse DFT of a spectrum holding c r_j^(alpha+beta) at
    frequency (alpha-beta) mod rays. The wrap is exact, not aliasing, because s
    is an integer. Each spectrum is filled _TERM_BLOCK ring-monomial values at a
    time, so memory stays bounded however large the support.
    """
    rays = out.shape[-1]
    ring = np.arange(radii.size)[:, None]
    step = max(1, _TERM_BLOCK // radii.size)
    for spectrum, (alpha, beta, c) in zip(out, tables):
        spectrum.fill(0)
        for lo in range(0, c.size, step):
            a, b = alpha[lo:lo + step], beta[lo:lo + step]
            np.add.at(spectrum, (ring, (a - b) % rays), c[lo:lo + step] * radii[:, None] ** (a + b))
    return np.fft.ifft(out, axis=-1, norm="forward", out=out)


def _finite(names: tuple[str, ...], stack: np.ndarray) -> np.ndarray:
    """stack, unless a value is NaN or infinite: then NonFiniteError at the first, in ``names``
    order of the quantities and ring-major order of each one's points."""
    finite = np.isfinite(stack)
    if not finite.all():
        which, ring, ray = np.unravel_index(int(np.argmin(finite)), finite.shape)
        raise NonFiniteError(f"{names[which]} is NaN or infinite at grid ring {ring}, ray {ray}")
    return stack


def _angular_rate(num: np.ndarray, den: np.ndarray, degenerate: np.ndarray, out: np.ndarray,
                  rate: np.ndarray) -> np.ndarray:
    """Im(num / den), -inf where |den| <= degenerate, written into the real grid ``rate`` (which
    holds |den| first) and returned. The quotient is taken only at the other points, into ``out`` (which
    may be num). den is finite, so |den| is never NaN and those points are where |den| > degenerate."""
    good = np.abs(den, out=rate) > degenerate
    rate[...] = np.divide(num, den, out=out, where=good).imag  # contiguous, so argmin copies nothing
    if not good.all():
        rate[~good] = -np.inf
    return rate


ALL_CHECKS = ("jacobian", "starlike", "convex", "injective")


def verify_geometry(F: PolyharmonicMap, grid: DiskGrid, checks: Iterable[str] = ALL_CHECKS) -> GeometryReport:
    """Fill a GeometryReport with grid minima for the requested checks.

    F, F_theta, F_thetatheta and the Jacobian come from the map's monomial table
    by one inverse FFT per ring (_grids), each computed once if a check reads it.
    Degenerate sample points (|F| <= EPS_ZERO r for the starlike check, |F_theta| <=
    EPS_ZERO r for the convex check, r the ring radius) record a -inf minimum
    instead of raising, so such a map still gets a report, which fails its
    thresholds. A NaN or infinite grid value, or an image too wide for float64
    distances (coefficients that overflow it), raises NonFiniteError instead.

    Every grid quantity is written into this thread's workspace (`_workspace`):
    three complex and two real grids, 64 bytes a point, 2 MiB at
    MAX_GRID_POINTS. It is kept between calls on grids of one shape and replaced
    when the shape changes; each thread has its own, as numpy releases the GIL.
    Quantities alive together share one inverse FFT call: F_z and F_zbar in
    complex slots 0 and 1, their moduli in the real slots; then the slots of F,
    F_theta and F_thetatheta (0, 1, 2) that the checks read, always one range:
    starlike reads F and F_theta, convex F_theta and F_thetatheta, a searched
    injective check F. Only that range is computed and checked for finiteness.
    The convex quotient replaces F_thetatheta, then the starlike quotient takes
    slot 2, each with |den| in a real slot. So a call allocates no grid of its
    own, only boolean masks and the finiteness scan (one byte a point each),
    numpy's iteration buffers and the spectrum's ring-by-monomial terms: under
    one complex grid on a certified member (0.6 traced at 32x256). The
    collision pass, when it searches, is handed F in slot 0 and takes its
    spacing, distance and difference grids and its cell coordinates from the
    other slots, which the checks are done with; it allocates its sort and
    hash tables itself.

    The injective check first tries the coefficient certificate
    (`_injectivity_certified`); when it holds, the count is 0 without a search.
    """
    requested = set(checks)
    unknown = requested.difference(ALL_CHECKS)
    if unknown:
        raise ParamError(f"unknown checks: {', '.join(sorted(map(repr, unknown)))}")
    checks = tuple(c for c in ALL_CHECKS if c in requested)
    if not checks:
        raise ParamError("no recognized checks requested")
    if grid.rings * grid.rays > MAX_GRID_POINTS:  # counted before any array is built
        raise GridTooLargeError(f"{grid.rings}x{grid.rays} grid exceeds {MAX_GRID_POINTS} points")
    radii = grid.radii()
    table = _monomials(F)
    grids, moduli = _workspace((grid.rings, grid.rays))
    w, d1, d2 = grids
    rate = moduli[0]

    min_jac = min_arg = min_conv = None
    collisions = certified = None
    degenerate = EPS_ZERO * radii[:, None]
    with np.errstate(all="ignore"):  # overflow shows as NonFiniteError, not as a warning
        if "jacobian" in checks:
            fz, fzb = _grids(_d_wirtinger(table), radii, grids[:2])
            jac, fzb_modulus = moduli
            np.square(np.abs(fz, out=jac), out=jac)
            jac -= np.square(np.abs(fzb, out=fzb_modulus), out=fzb_modulus)
            min_jac = _minimum(_finite(("Jacobian",), moduli[:1])[0])
        if "injective" in checks:
            certified = _injectivity_certified(table, grid)
        starlike, convex = "starlike" in checks, "convex" in checks
        read = [q for q, used in enumerate((starlike or certified is False, starlike or convex, convex)) if used]
        if read:  # the slots from F to F_thetatheta that a check reads, by one FFT call
            lo, hi = read[0], read[-1] + 1
            tables = (table, _d_theta(table, 1), _d_theta(table, 2))[lo:hi]
            _finite(("F", "F_theta", "F_thetatheta")[lo:hi], _grids(tables, radii, grids[lo:hi]))
        if convex:
            min_conv = _minimum(_angular_rate(d2, d1, degenerate, d2, rate))
        if starlike:
            min_arg = _minimum(_angular_rate(d1, w, degenerate, d2, rate))
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


# --- distortion --------------------------------------------------------------


class DistortionReport(Record):
    """Least margins of sampled |F| inside its distortion envelope (negative: outside):
    ``lower_margin`` is the min of |F(z)| - lower(|z|), ``upper_margin`` of upper(|z|) - |F(z)|."""

    __slots__ = ("branch", "lower_margin", "upper_margin")

    def passed(self) -> bool:
        """Both margins at least -1e-12 (boundary-tight maps touch the envelope)."""
        return self.lower_margin >= -1e-12 and self.upper_margin >= -1e-12

    def to_kv(self) -> str:
        return kv_lines([("distortion_branch", self.branch), ("distortion_lower_margin", self.lower_margin),
                         ("distortion_upper_margin", self.upper_margin), ("distortion_ok", self.passed())])


def distortion_check(F: PolyharmonicMap, lam, samples: int = 1000, seed: int = 0) -> DistortionReport:
    """|F| against distortion_envelope(F, lam) at ``samples`` seeded points with |z| < 0.999;
    GridTooLargeError above MAX_GRID_POINTS before any is drawn, ParamError below 1."""
    if samples > MAX_GRID_POINTS:
        raise GridTooLargeError(f"{samples} samples exceed {MAX_GRID_POINTS}")
    if samples < 1:
        raise ParamError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 0.999, samples)
    z = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, samples))
    env = distortion_envelope(F, lam)
    mags = np.abs(evaluate(F, z))
    return DistortionReport(env.branch, float(np.min(mags - env.lower(r))), float(np.min(env.upper(r) - mags)))
