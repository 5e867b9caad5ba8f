"""Scalar arithmetic with explicit exactness.

A scalar is either a ``Fraction`` (exact) or a ``float`` (approximate).
Mixing the two in ordinary arithmetic degrades to ``float``, which is exactly
the propagation rule we want: a sum is exact iff every term was exact.

Strict inequalities against class bounds are the one place approximation is
dangerous, so ``strict_less`` fails closed: an approximate value passes a
strict bound only if it clears the bound by ``EPS_STRICT``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[Fraction, float]

# Margin for strict "<" comparisons once any input is approximate.
EPS_STRICT = 1e-12


def is_exact(x) -> bool:
    """True for int/Fraction values, False for floats (bool is not a scalar)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_scalar(x) -> Scalar:
    """Coerce to Fraction (ints, Fractions) or float; strings go through parse_scalar."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def parse_scalar(text: str) -> Scalar:
    """Parse "num/den" and integer literals exactly; decimal literals as floats.

    Raises ValueError on anything else.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty numeric literal")
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    try:
        return Fraction(int(s))
    except ValueError:
        pass
    value = float(s)  # raises ValueError on garbage
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite literal {text!r}")
    return value


def format_scalar(x: Scalar) -> str:
    """Inverse of parse_scalar: exact values as num/den (or int), floats via repr."""
    if is_exact(x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def exact_sqrt(q: Fraction) -> Optional[Fraction]:
    """Square root of a nonnegative rational, or None if it is irrational."""
    if q < 0:
        raise ValueError("square root of a negative rational")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_scalar(q: Scalar) -> Scalar:
    """Exact square root when the argument is a rational perfect square, else float."""
    if is_exact(q):
        root = exact_sqrt(Fraction(q))
        if root is not None:
            return root
    return math.sqrt(float(q))


def strict_less(value: Scalar, bound: Scalar) -> tuple[bool, bool]:
    """Evaluate value < bound, failing closed for approximate inputs.

    Returns (ok, used_epsilon). Exact inputs compare exactly and never touch
    EPS_STRICT.
    """
    if is_exact(value) and is_exact(bound):
        return value < bound, False
    return float(value) < float(bound) - EPS_STRICT, True
