"""Independent oracles for the test suite.

These deliberately avoid the closed-form code paths they check: derivatives
come from central finite differences on plain evaluation, or from per-term
closed forms that do not use the library's monomial table; the polyline
properties come from brute-force segment / ray-crossing geometry, and the
injectivity collision count comes from comparing every pair of grid points.
"""

from __future__ import annotations

import numpy as np

from phmaps import evaluate, theta_derivative
from phmaps.geometry import COLLISION_FACTOR


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
