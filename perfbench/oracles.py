"""Reference computations the benchmark checks the library against.

They run outside the timed region (in the set-up child, see probe.py) and do
not call the code paths they check: the collision count is an O(N^2)
brute force over all grid pairs of the documented pair rule, and the
reference evaluation sums the series term by term on its own.
"""

from __future__ import annotations

import numpy as np

COLLISION_FACTOR = 0.1   # documented fraction of the local image spacing
NEIGHBOR_REACH = 2       # Chebyshev radius (ring, cyclic ray) that counts as adjacent
FLOOR_SHARE = 1e-9       # absolute tolerance floor, as a share of the image diameter


def image_spacing(w: np.ndarray) -> np.ndarray:
    """Per-point minimum distance to its Chebyshev-2 grid neighbours (rays wrap),
    as the collision docstring in phmaps.geometry describes it."""
    rings = w.shape[0]
    best = np.full(w.shape, np.inf)
    for dr in range(-NEIGHBOR_REACH, NEIGHBOR_REACH + 1):
        for ds in range(-NEIGHBOR_REACH, NEIGHBOR_REACH + 1):
            if dr == 0 and ds == 0:
                continue
            d = np.abs(w - np.roll(w, (-dr, -ds), axis=(0, 1)))
            if dr > 0:
                d[rings - dr:] = np.inf   # ring i+dr does not exist
            elif dr < 0:
                d[:-dr] = np.inf
            best = np.minimum(best, d)
    return best


def library_spacing(w: np.ndarray) -> np.ndarray:
    """Local spacing as phmaps.geometry computes it, which differs from the
    docstring: along a ring a point sees only its +1 and +2 ray neighbours, and
    the distance between (i+dr, j) and (i, j+ds) is also credited to (i, j).
    The pinned collision counts come from this definition."""
    rings = w.shape[0]
    best = np.full(w.shape, np.inf)
    for dr in range(0, NEIGHBOR_REACH + 1):
        for ds in range(-NEIGHBOR_REACH, NEIGHBOR_REACH + 1):
            if dr == 0 and ds <= 0:
                continue
            shifted = np.roll(w, -ds, axis=1)
            if dr == 0:
                best = np.minimum(best, np.abs(w - shifted))
            elif dr < rings:
                d = np.abs(w[dr:] - shifted[:-dr])
                best[dr:] = np.minimum(best[dr:], d)
                best[:-dr] = np.minimum(best[:-dr], d)
    return best


def spacing_ratio(w: np.ndarray) -> float:
    """Largest over smallest local image spacing on the grid."""
    s = image_spacing(w)
    return float(np.max(s) / np.min(s))


def brute_force_collisions(w: np.ndarray, chunk: int = 64) -> tuple[int, int]:
    """Count pairs i < j that are not grid-adjacent and whose images lie closer
    than max(COLLISION_FACTOR * min(spacing_i, spacing_j), FLOOR_SHARE * diameter).

    Returns the count with the library's spacing and with the documented one.
    Every pair is compared; a squared-distance test against a bound no pair
    tolerance of row i exceeds selects the few pairs whose exact distance is
    then compared as the library compares it.
    """
    rays = w.shape[1]
    wf = w.ravel()
    re, im = wf.real, wf.imag
    tols = [COLLISION_FACTOR * library_spacing(w).ravel(), COLLISION_FACTOR * image_spacing(w).ravel()]
    floor = FLOOR_SHARE * max(np.ptp(re), np.ptp(im), 1e-300)
    bound = np.maximum(np.maximum(tols[0], tols[1]), floor) * (1 + 1e-9)
    n = wf.size
    pairs_i, pairs_j = [], []
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        dre = re[s:e, None] - re[None, s:]
        dim = im[s:e, None] - im[None, s:]
        dre *= dre
        dim *= dim
        dre += dim
        ii, jj = np.nonzero(dre < bound[s:e, None] ** 2)
        keep = jj > ii
        pairs_i.append(ii[keep] + s)
        pairs_j.append(jj[keep] + s)
    i, j = np.concatenate(pairs_i), np.concatenate(pairs_j)
    ring_i, ray_i = np.divmod(i, rays)
    ring_j, ray_j = np.divmod(j, rays)
    dray = np.abs(ray_i - ray_j)
    far = (np.abs(ring_i - ring_j) > NEIGHBOR_REACH) | (np.minimum(dray, rays - dray) > NEIGHBOR_REACH)
    d = np.abs(wf[i] - wf[j])
    counts = [int(np.count_nonzero(far & (d < np.maximum(np.minimum(t[i], t[j]), floor)))) for t in tols]
    return counts[0], counts[1]


def reference_evaluate(F, z: np.ndarray) -> np.ndarray:
    """F(z) summed term by term from the coefficient tables."""
    r2 = np.abs(z) ** 2
    out = np.zeros(z.shape, dtype=complex)
    for (n, k), c in F.a.items():
        out += r2 ** (k - 1) * complex(float(c.re), float(c.im)) * z ** n
    for (n, k), c in F.b.items():
        out += r2 ** (k - 1) * np.conj(complex(float(c.re), float(c.im)) * z ** n)
    return out


def evaluation_agrees(F, z: np.ndarray, w: np.ndarray, rtol: float = 1e-9) -> bool:
    ref = reference_evaluate(F, z)
    return bool(np.all(np.abs(w - ref) <= rtol * np.maximum(1.0, np.abs(ref))))
