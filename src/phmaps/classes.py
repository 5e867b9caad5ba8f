"""Coefficient-class membership.

One family of weighted l1 conditions on the coefficient table, HS_p(L) with L in [0,1]:

  row 1:  sum_{k, n>=2} (2(k-1) + n(L*n + 1 - L)) (|a|+|b|)
              <= 2 - sum_k (2k-1)(|a[1,k]|+|b[1,k]|);
  row 2:  1 <= sum_k (2k-1)(|a[1,k]|+|b[1,k]|) < 2.

hs-lambda is HS_p(L). hs and hc are its cases L = 0 and L = 1 (row-1 weights
2(k-1)+n and 2(k-1)+n^2, Avci and Zlotkiewicz at p = 1), so every family is
decided by the same two rows, and row 2 does not depend on L.

A report records both rows with signed margins, plus exactness and whether a
strict comparison consulted the epsilon guard (never for all-exact input).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable

from .errors import ParamError
from .exact import (Record, Scalar, Term, as_scalar, brief_scalar, is_exact, kv_lines, set_field,
                    strict_less, term_difference, term_scalar)
from .series import PolyharmonicMap, weighted_sum


class Family(Enum):
    HS_LAMBDA = "hs-lambda"
    HS = "hs"
    HC = "hc"


# hs and hc are the hs-lambda conditions at these lambdas (Avci and Zlotkiewicz)
FIXED_LAMBDA = {Family.HS: Fraction(0), Family.HC: Fraction(1)}


class ClassParams(Record):
    """Class selector: family, lambda (fixed for hs and hc by FIXED_LAMBDA), and the superscript-0 flag."""

    __slots__ = ("family", "lam", "normalized")
    _defaults = {"lam": Fraction(0), "normalized": False}

    def _check(self):
        lam = as_scalar(self.lam)
        if not 0 <= lam <= 1:
            raise ParamError(f"lambda must lie in [0,1], got {brief_scalar(lam)}")
        fixed = FIXED_LAMBDA.get(self.family)
        if fixed is not None and lam != fixed:
            raise ParamError(f"class {self.family.value} fixes lambda = {fixed}, got {brief_scalar(lam)}")
        set_field(self, "lam", lam)


# the immutable hs and hc selectors, built once and indexed by bool(normalized)
_FIXED = {family: (ClassParams(family, lam), ClassParams(family, lam, True)) for family, lam in FIXED_LAMBDA.items()}


def hs_lambda(lam, normalized: bool = False) -> ClassParams:
    return ClassParams(Family.HS_LAMBDA, lam, normalized)


def hs(normalized: bool = False) -> ClassParams:
    return _FIXED[Family.HS][bool(normalized)]


def hc(normalized: bool = False) -> ClassParams:
    return _FIXED[Family.HC][bool(normalized)]


def row1_weight(lam: Scalar) -> Callable[[int, int], Term]:
    """The row-1 weight (n, k) -> 2(k-1) + n(lam*n + 1 - lam) of a validated lam: for lam = P/Q
    the integer 2(k-1)Q + n(Pn + Q - P) over Q as a pair, for a float lam the float expression."""
    if lam.__class__ is Fraction:
        P, Q = lam.numerator, lam.denominator
        return lambda n, k: (2 * (k - 1) * Q + n * (P * n + Q - P), Q)
    return lambda n, k: 2 * (k - 1) + n * (lam * n + 1 - lam)


def weight(n: int, k: int, lam) -> Scalar:
    """Row-1 weight 2(k-1) + n(lam*n + 1 - lam). Exact for rational lam."""
    if n < 1 or k < 1:
        raise ParamError(f"weight indices must be >= 1, got ({n}, {k})")
    return term_scalar(row1_weight(hs_lambda(lam).lam)(n, k))


class MembershipReport(Record):
    """Exact left/right sides and signed margins of the two inequality rows.

    ``row2_value`` is the weighted first-coefficient sum sum_k (2k-1)(|a[1,k]|+|b[1,k]|),
    and ``row1_rhs`` is 2 - ``row2_value``. Row 2 tests that same sum, so for every family
    ``row2_condition`` equals ``row2_value`` and [row2_lo, row2_hi) is [1, 2). ``row2_ok``
    tests only the strict upper bound: a11 = 1 and magnitudes >= 0 make the lower one hold.
    """

    __slots__ = ("params", "row1_lhs", "row1_rhs", "row2_value", "row2_condition", "row2_lo", "row2_hi",
                 "row2_ok", "normalized_ok", "member", "exact", "used_epsilon")

    @property
    def row1_margin(self) -> Scalar:
        return self.row1_rhs - self.row1_lhs

    def to_kv(self) -> str:
        p = self.params
        names = ("row1_lhs", "row1_rhs", "row1_margin", "row2_value", "row2_condition", "row2_lo", "row2_hi",
                 "row2_ok", "normalized_ok", "member", "exact", "used_epsilon")
        return kv_lines([("family", p.family.value), ("lambda", p.lam), ("normalized_required", p.normalized),
                         *((name, getattr(self, name)) for name in names)])


def membership(F: PolyharmonicMap, params: ClassParams) -> MembershipReport:
    """Evaluate both inequality rows at params.lam over the support; the family only names the class.
    Sums, sides and margins stay Terms through every comparison, and float input takes the Fraction
    expressions' float steps bit for bit."""
    rows = F.magnitudes()
    b11 = rows[0][3]  # rows are layer-major, so the first is (1, 1, |a11|, |b11|)
    first = [row for row in rows if row[0] == 1 < row[1]]  # a[1,k] and b[1,k] for k >= 2
    row1_lhs = weighted_sum([row for row in rows if row[0] >= 2], row1_weight(params.lam))
    # sum_k (2k-1)(|a[1,k]|+|b[1,k]|): the k >= 2 rows, then the k = 1 term |a[1,1]| + |b[1,1]| = 1 + |b11|
    first_weighted = weighted_sum(first, lambda n, k: (2 * k - 1, 1), (1, 1), b11)
    exact = row1_lhs.__class__ is first_weighted.__class__ is tuple and is_exact(params.lam)

    row1_rhs = term_difference((2, 1), first_weighted)
    row2_ok, used_epsilon = strict_less(first_weighted, 2)
    margin = term_difference(row1_rhs, row1_lhs)

    normalized_ok = F.is_normalized
    member = (margin[0] if margin.__class__ is tuple else margin) >= 0 and row2_ok and (
        normalized_ok or not params.normalized)
    row2_value = term_scalar(first_weighted)
    return MembershipReport(params, term_scalar(row1_lhs), term_scalar(row1_rhs), row2_value, row2_value,
                            Fraction(1), Fraction(2), row2_ok, normalized_ok, member, exact,
                            used_epsilon and not exact)


def class_reduction_check(F: PolyharmonicMap) -> bool:
    """Do the hs and hc families agree on F with hs-lambda at the lambda each fixes? They share both rows,
    so this holds for every valid map; a family-specific rule would break it."""
    return all(membership(F, hs_lambda(params.lam)).member == membership(F, params).member for params in (hs(), hc()))
