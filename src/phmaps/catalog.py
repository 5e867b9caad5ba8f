"""Built-in constructors for the named mappings used throughout the test deck.

Everything here is exact-rational, so the boundary-tight membership margins
come out as exact zeros.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .classes import hs_lambda, weight
from .errors import MAX_GRID_POINTS, GridTooLargeError, ParamError, as_integers
from .exact import Record, Scalar, as_scalar, set_field
from .series import Coefficient, PolyharmonicMap, make_map


def identity_map(p: int = 1) -> PolyharmonicMap:
    """F(z) = z."""
    return make_map(p)


def example_F1() -> PolyharmonicMap:
    """z + (1/10) z^2 + (1/5) conj(z^2): starlike, convex on radii <= 2/3."""
    return make_map(1, a={(2, 1): Fraction(1, 10)}, b={(2, 1): Fraction(1, 5)})


def example_F2() -> PolyharmonicMap:
    """z + (1/101) z^2 + (49/101) conj(z^2): starlike, convex on radii <= 1/2."""
    return make_map(1, a={(2, 1): Fraction(1, 101)}, b={(2, 1): Fraction(49, 101)})


def phase_coefficient(magnitude: Scalar, phase: float) -> Coefficient:
    """magnitude * e^{i*phase}, kept exact for quarter turns: phases that divide by pi/2 to an
    integer and whose e^{i*phase} lies within 1e-12 of an axis. The second test matters from
    |phase/(pi/2)| = 2**52 on, where every float divides to an integer.

    A NaN or infinite phase raises ParamError.
    """
    if not math.isfinite(phase):
        raise ParamError(f"phase must be finite, got {phase!r}")
    magnitude = as_scalar(magnitude)
    cos, sin = math.cos(phase), math.sin(phase)
    quarter = phase / (math.pi / 2)
    if quarter == round(quarter) and min(abs(cos), abs(sin)) < 1e-12:
        if abs(sin) < abs(cos):
            return Coefficient(magnitude if cos > 0 else -magnitude, 0)
        return Coefficient(0, magnitude if sin > 0 else -magnitude)
    return Coefficient(float(magnitude) * cos, float(magnitude) * sin)


class ExtremalSpec(Record):
    """One boundary-tight single-slot map: z + |z|^(2(k-1)) * c * z^n (or conjugate kind).

    The slot magnitude is pinned to 1/weight(n, k, lambda), which is what makes
    the map an extremal point of the normalized class. ``kind`` is "analytic"
    (z^n) or "antianalytic" (conj(z^n)).
    """

    __slots__ = ("n", "k", "lam", "kind", "phase")
    _defaults = {"kind": "analytic", "phase": 0.0}

    def _check(self):
        as_integers(self, "n", "k")
        if self.n < 2:
            raise ParamError(f"extremal slot needs n >= 2, got n={self.n}")
        if self.k < 1:
            raise ParamError(f"layer must be >= 1, got k={self.k}")
        if self.kind not in ("analytic", "antianalytic"):
            raise ParamError(f"kind must be analytic|antianalytic, got {self.kind!r}")
        set_field(self, "lam", hs_lambda(self.lam).lam)


def extremal_point(spec: ExtremalSpec, p: int | None = None) -> PolyharmonicMap:
    """Construct the extremal map for the spec; membership margin is exactly 0."""
    p = spec.k if p is None else p
    if p < spec.k:
        raise ParamError(f"p={p} cannot hold layer k={spec.k}")
    magnitude = 1 / weight(spec.n, spec.k, spec.lam)
    c = phase_coefficient(magnitude, spec.phase)
    if spec.kind == "analytic":
        return make_map(p, a={(spec.n, spec.k): c})
    # Series stores b[n,k]; the displayed factor on conj(z^n) is conj(b[n,k]).
    return make_map(p, b={(spec.n, spec.k): c.conjugate()})


def half_plane_map(N: int = 64) -> PolyharmonicMap:
    """Truncation of the convex half-plane map Re(z/(1-z)) + i Im(z/(1-z)^2).

    Coefficients A_n = (n+1)/2 and B_n = -(n-1)/2 meet the certificate bounds
    2|A_n| <= n+1, 2|B_n| <= n-1 with equality. The full map is an infinite
    series; any convolution against a finitely supported map only sees the
    finitely many matching entries, so the truncation is exact there. The
    (n+1)/2 growth makes rendering meaningful only strictly inside the disk.
    N above MAX_GRID_POINTS raises GridTooLargeError before anything is built.
    """
    if N < 1:
        raise ParamError(f"truncation degree must be >= 1, got {N}")
    if N > MAX_GRID_POINTS:
        raise GridTooLargeError(f"truncation degree {N} exceeds {MAX_GRID_POINTS}")
    a = {(n, 1): Fraction(n + 1, 2) for n in range(2, N + 1)}
    b = {(n, 1): Fraction(-(n - 1), 2) for n in range(2, N + 1)}
    return make_map(1, a=a, b=b)


def distortion_extremal(lam, b11, a12=0, b12=0, phases: Sequence[float] | None = None) -> PolyharmonicMap:
    """Equality-attaining map for the distortion envelope.

    Low branch (lambda <= 1/2), phases (mu, nu):
        z + b11 e^{i mu} conj(z) + (1-b11)/(2(1+lambda)) e^{i nu} z^2.
    High branch, phases (eta, phi, psi): adds the z|z|^2 slot carrying
    a12+b12 and reduces the z^2 numerator by 3(a12+b12).

    With zero phases and z = r on the positive real axis all terms align, so
    |F(r)| equals the upper envelope exactly.
    """
    b11 = as_scalar(b11)
    a12 = as_scalar(a12)
    b12 = as_scalar(b12)
    lam = hs_lambda(lam).lam
    if not 0 <= b11 < 1:
        raise ParamError("need 0 <= b11 < 1")
    if a12 < 0 or b12 < 0:
        raise ParamError("slot budgets must be nonnegative")
    high = lam > Fraction(1, 2)
    if not high and (a12 != 0 or b12 != 0):
        raise ParamError("a12/b12 budgets apply only to the high branch (lambda > 1/2)")
    count = 3 if high else 2
    phases = (0.0,) * count if phases is None else tuple(phases)
    if len(phases) != count:
        raise ValueError(f"the {'high' if high else 'low'} branch takes {count} phases, got {len(phases)}")
    d = a12 + b12
    numerator = 1 - b11 - 3 * d
    if numerator < 0:
        raise ParamError("need b11 + 3(a12+b12) <= 1 on the high branch")
    a = {(2, 1): phase_coefficient(numerator / (2 * (1 + lam)), phases[1])}
    if d > 0:  # the z|z|^2 slot needs a second layer
        a[(1, 2)] = phase_coefficient(d, phases[2])
    return make_map(2 if d > 0 else 1, a=a, b={(1, 1): phase_coefficient(b11, -phases[0])})
