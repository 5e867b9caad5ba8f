"""Coefficientwise operators on maps.

Convolution and integral convolution multiply coefficient tables entrywise
(the latter dividing degree-n terms by n), convex combinations average them,
and rescaling r^{-1} F(r z) multiplies entry (n, k) by r^(2k+n-3). The
neighborhood distance is the weighted l1 metric used by the inclusion bound
``delta_bound``: ``series.weighted_sum`` over the entrywise differences with
the hs (lambda = 0) row-1 weights. Absent entries are zero, matching the
series semantics, so maps of different depth need no padding. Everything here
is pure and exactness-preserving.

The paper's coefficient results for members of hs-lambda live here too: the
convexity radius with its exact rescaling certificate, the per-layer bound
(each layer's tail a ``weighted_sum`` over the map's magnitude table), and
the distortion envelope, whose float coefficients `geometry.distortion_check`
samples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Sequence

from .classes import MembershipReport, hc, hs, hs_lambda, membership, row1_weight
from .errors import NotMemberError, ParamError, WeightError
from .exact import (EPS_STRICT, Record, Scalar, as_scalar, brief_scalar, fold_sum, is_exact, kv_lines,
                    term_scalar)
from .series import (Coefficient, Key, PolyharmonicMap, ZERO, _entry_error, difference_term, layer_major,
                     product_over, weighted_sum)


def convolve(F: PolyharmonicMap, G: PolyharmonicMap) -> PolyharmonicMap:
    """Entrywise product of coefficient tables; support is the intersection."""
    a = {key: F.a[key] * G.a[key] for key in F.a.keys() & G.a.keys()}
    b = {key: F.b[key] * G.b[key] for key in F.b.keys() & G.b.keys()}
    return PolyharmonicMap(max(F.p, G.p), a, b)


def integral_convolve(F: PolyharmonicMap, G: PolyharmonicMap) -> PolyharmonicMap:
    """Entrywise product with each degree-n term divided by n."""
    a = {(n, k): product_over(F.a[(n, k)], G.a[(n, k)], n) for n, k in F.a.keys() & G.a.keys()}
    b = {(n, k): product_over(F.b[(n, k)], G.b[(n, k)], n) for n, k in F.b.keys() & G.b.keys()}
    return PolyharmonicMap(max(F.p, G.p), a, b)


def combine(terms: Sequence[tuple[Scalar, PolyharmonicMap]]) -> PolyharmonicMap:
    """Convex combination sum t_i F_i, coefficientwise; the leading coefficient stays exactly 1.

    WeightError unless there are terms, with nonnegative weights summing to 1
    (exactly for exact weights, within EPS_STRICT for floats).
    """
    terms = [(as_scalar(t), F) for t, F in terms]
    if not terms:
        raise WeightError("empty combination")
    for t, _ in terms:
        if not t >= 0:  # negative, or NaN
            raise WeightError(f"negative weight {brief_scalar(t)}" if t < 0 else "weight nan is not a number")
    total = fold_sum(t for t, _ in terms)
    if (total != 1) if is_exact(total) else abs(float(total) - 1.0) > EPS_STRICT:
        raise WeightError(f"weights sum to {brief_scalar(total)}, expected 1")
    a: dict[Key, Coefficient] = {}
    b: dict[Key, Coefficient] = {}
    for t, F in terms:
        for key, c in F.a.items():
            a[key] = a.get(key, ZERO) + c.scale(t)
        for key, c in F.b.items():
            b[key] = b.get(key, ZERO) + c.scale(t)
    a[(1, 1)] = Coefficient(1, 0)  # exact by sum(t_i) = 1; normalize float residue
    return PolyharmonicMap(max(F.p for _, F in terms), a, b)


def rescale(F: PolyharmonicMap, r) -> PolyharmonicMap:
    """r^{-1} F(r z): entry (n, k) is multiplied by r^(2k+n-3). Exact for rational r."""
    r = as_scalar(r)
    if not 0 < r <= 1:
        raise ParamError(f"rescale radius must lie in (0,1], got {brief_scalar(r)}")
    a = {(n, k): c.scale(r ** (2 * k + n - 3)) for (n, k), c in F.a.items()}
    b = {(n, k): c.scale(r ** (2 * k + n - 3)) for (n, k), c in F.b.items()}
    return PolyharmonicMap(F.p, a, b)


def neighborhood_distance(F: PolyharmonicMap, G: PolyharmonicMap) -> Scalar:
    """Weighted l1 distance between coefficient tables.

    Weights: the lambda = 0 row-1 weight 2(k-1)+n, which is 2k-1 for the
    first-degree coefficients of layers k >= 2 and 1 for the k=1 antianalytic
    leader, whose plain |b11 - B11| is added last.
    """
    keys = (F.a.keys() | G.a.keys() | F.b.keys() | G.b.keys()) - {(1, 1)}
    rows = [(*key, difference_term(F.coeff_a(*key), G.coeff_a(*key), "a", key),
             difference_term(F.coeff_b(*key), G.coeff_b(*key), "b", key))
            for key in layer_major(keys)]
    return term_scalar(weighted_sum(rows, row1_weight(hs().lam),
                                    difference_term(F.coeff_b(1, 1), G.coeff_b(1, 1), "b", (1, 1))))


def _hs_lambda_member(F: PolyharmonicMap, lam) -> MembershipReport:
    """F's hs-lambda(lam) membership report; NotMemberError when F is not a member."""
    report = membership(F, hs_lambda(lam))
    if not report.member:
        raise NotMemberError(f"map is not in hs-lambda({brief_scalar(report.params.lam)})")
    return report


def delta_bound(F: PolyharmonicMap, lam) -> Scalar:
    """Neighborhood radius lambda/(p+lambda) * (2 - sum_k (2k-1)(|a[1,k]|+|b[1,k]|)).

    The bound only applies to maps in the hs-lambda class, so non-members raise.
    """
    lam = as_scalar(lam)
    if not 0 < lam <= 1:
        raise ParamError(f"lambda must lie in (0,1], got {brief_scalar(lam)}")
    try:
        ratio = lam / (F.p + lam)
    except OverflowError:  # a float lambda and a p beyond float64: divide exactly, round once
        ratio = float(Fraction(lam) / (F.p + Fraction(lam)))
    return ratio * _hs_lambda_member(F, lam).row1_rhs


class NeighborhoodReport(Record):
    __slots__ = ("distance", "delta_bound", "inside")

    @property
    def exact(self) -> bool:
        return is_exact(self.distance) and is_exact(self.delta_bound)

    def to_kv(self) -> str:
        return kv_lines((name, getattr(self, name)) for name in ("distance", "delta_bound", "inside", "exact"))


def neighborhood_report(F: PolyharmonicMap, G: PolyharmonicMap, lam) -> NeighborhoodReport:
    d = neighborhood_distance(F, G)
    bound = delta_bound(F, lam)
    return NeighborhoodReport(distance=d, delta_bound=bound, inside=bool(d <= bound))


def ch0_certificate(H: PolyharmonicMap) -> bool:
    """Necessary coefficient bounds for normalized convex harmonic maps.

    True iff H is effectively single-layer with b11 = 0 and every coefficient
    satisfies 2|A_n| <= n+1 and 2|B_n| <= n-1 (checked via squares, exactly for
    exact coefficients; NonFiniteError names an entry whose square overflows
    float64). This certifies the coefficient hypothesis the
    convolution-closure properties need; it is not a convexity proof.
    """
    if any(k >= 2 for _, k in list(H.a) + list(H.b)):
        return False
    if not H.coeff_b(1, 1).is_zero:
        return False
    for name, table, excess in (("a", H.a, 1), ("b", H.b, -1)):
        for (n, k), c in table.items():
            try:
                if n >= 2 and not 4 * c.magnitude_squared() <= (n + excess) ** 2:
                    return False
            except OverflowError:  # an exact part beyond float64 meets a float part
                raise _entry_error(name, (n, k), f"coefficient {c.brief()} overflows float64") from None
    return True


def convexity_radius(lam) -> Scalar:
    """max(1/2, lambda): members rescaled to this radius map onto convex domains."""
    return max(Fraction(1, 2), hs_lambda(lam).lam)


def rescale_convexity_certificate(F: PolyharmonicMap, lam, r) -> bool:
    """Exact certificate that rescale(F, r) satisfies the hc row-1 condition.

    F must lie in hs-lambda (NotMemberError) and r in (0, convexity_radius(lam)]
    (ParamError). The certificate is then the hc row-1 margin of rescale(F, r),
    exact for rational inputs. The paper's two further conditions follow from it:
    the per-term bound (2(k-1)+n^2) r^(2k+n-3) <= weight(n, k, lambda) holds for
    every n >= 2, k >= 1 and such r, and the summed form
    sum (2(k-1)+n^2) r^(2k+n-3) (|a|+|b|) <= 1 is the rescaled map's hc row-1
    left side, which a nonnegative margin bounds by a right side of at most 1.
    """
    lam, r = as_scalar(lam), as_scalar(r)
    _hs_lambda_member(F, lam)
    radius = convexity_radius(lam)
    if not 0 < r <= radius:
        raise ParamError(f"radius {brief_scalar(r)} outside (0, {brief_scalar(radius)}]")
    return bool(membership(rescale(F, r), hc()).row1_margin >= 0)


def layer_bound_check(F: PolyharmonicMap, lam, samples: int = 500, seed: int = 0, tol: float = 1e-12) -> bool:
    """Per-layer bound |G_k(z)| <= (|a[1,k]|+|b[1,k]|)|z| + c2 |z|^2 on |z| <= 1, from the coefficients.

    F must lie in hs-lambda (NotMemberError). Then each layer F has must keep
    tail_k = sum_{n>=2} (|a[n,k]|+|b[n,k]|) <= c2 + tol, c2 = (1-|b11|)/(2(1+lambda)).
    Members pass at tol = 0 for every lambda in [0, 1]: each n >= 2 entry has row-1
    weight 2(k-1) + n(lambda n + 1 - lambda) >= 2(1+lambda), and row 1 bounds the
    weighted sum by 2 - sum_k (2k-1)(|a[1,k]|+|b[1,k]|) <= 1 - |b11|, so
    sum_k tail_k <= c2 and |G_k(z)| <= lead_k |z| + tail_k |z|^2. So an exact
    membership report with tol >= 0 decides; otherwise each tail is compared.

    ``samples`` and ``seed`` are unused, kept for callers of the sampled check this replaced.
    """
    report = _hs_lambda_member(F, lam)
    if report.exact and tol >= 0:
        return True
    rows = F.magnitudes()  # layer-major, so the first row is (1, 1, |a11|, |b11|)
    c2 = (1 - term_scalar(rows[0][3])) / (2 * (1 + report.params.lam))
    tails = (term_scalar(weighted_sum((row for row in layer if row[0] >= 2), lambda n, k: (1, 1)))
             for _, layer in groupby(rows, key=lambda row: row[1]))
    return all(tail - c2 <= tol for tail in tails)


def _cubic(coeffs: tuple[float, float, float], r):
    """c1 r + c2 r^2 + c3 r^3 in Horner form, for a float r or a numpy array of them."""
    c1, c2, c3 = coeffs
    return r * (c1 + r * (c2 + r * c3))


class DistortionEnvelope(Record):
    """Radius-dependent |F| bounds: lower(r) <= |F(z)| <= upper(r) at |z| = r.

    Coefficient tuples are (c1, c2, c3) for c1*r + c2*r^2 + c3*r^3. The cubic
    terms are nonzero only on the high branch (lambda > 1/2).
    """

    __slots__ = ("branch", "lower_coeffs", "upper_coeffs")

    def lower(self, r):
        return _cubic(self.lower_coeffs, r)

    def upper(self, r):
        return _cubic(self.upper_coeffs, r)


def distortion_envelope(F: PolyharmonicMap, lam) -> DistortionEnvelope:
    """Two-sided |F| envelope for a class member, by branch of lambda.

    With d = |a[1,2]| + |b[1,2]| on the high branch and d = 0 on the low one,
    c2 = (1 - |b11| - 3d) / (2(1+lambda)) and the bounds are
    (1 -+ |b11|) r -+ c2 r^2 -+ d r^3.
    """
    lam = _hs_lambda_member(F, lam).params.lam
    b11 = float(F.coeff_b(1, 1).magnitude())
    high = lam > Fraction(1, 2)
    d = float(F.coeff_a(1, 2).magnitude()) + float(F.coeff_b(1, 2).magnitude()) if high else 0.0
    c2 = (1.0 - b11 - 3.0 * d) / (2.0 * (1.0 + float(lam)))
    return DistortionEnvelope("high" if high else "low", (1.0 - b11, -c2, -d), (1.0 + b11, c2, d))
