"""Finitely supported polyharmonic coefficient series.

A map is stored as two sparse tables indexed by (n, k):

    F(z) = sum_{k=1..p} |z|^(2(k-1)) * sum_n ( a[n,k] z^n + conj(b[n,k] z^n) )

with the normalization a[1,1] = 1 and |b[1,1]| < 1. Unlisted entries are zero.
All values are immutable after construction and every operation here is pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Tuple

from .errors import InvalidMapError, NonFiniteError
from .exact import Record, Scalar, as_scalar, brief_scalar, format_scalar, is_exact, set_field, sqrt_scalar

Key = Tuple[int, int]  # (n, k): power n >= 1, layer k >= 1
_ZERO_PART = Fraction(0)


class Coefficient(Record):
    """One complex coefficient, exact (Fraction parts) or approximate (float parts)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Scalar = _ZERO_PART, im: Scalar = _ZERO_PART):
        if not (re.__class__ is im.__class__ is Fraction):
            re, im = as_scalar(re), as_scalar(im)
        set_field(self, "re", re)
        set_field(self, "im", im)

    @property
    def exact(self) -> bool:
        return is_exact(self.re) and is_exact(self.im)

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def as_complex(self) -> complex:
        """The value as a float complex; NonFiniteError if an exact part overflows float64."""
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise NonFiniteError(f"coefficient {self.brief()} overflows float64") from None

    def conjugate(self) -> "Coefficient":
        return Coefficient(self.re, -self.im)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Coefficient":
        return Coefficient(-self.re, -self.im)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        a, b, c, d = self.re, self.im, other.re, other.im
        if a.__class__ is b.__class__ is c.__class__ is d.__class__ is Fraction:
            # Skip the products with a zero factor: a factor on an axis has one.
            re = a * c if a and c else _ZERO_PART
            im = a * d if a and d else _ZERO_PART
            if b and d:
                re = re - b * d
            if b and c:
                im = im + b * c
            return Coefficient(re, im)
        try:
            return Coefficient(a * c - b * d, a * d + b * c)
        except OverflowError:  # an exact part beyond float64 meets a float part
            raise NonFiniteError(f"product of coefficients {self.brief()} and {other.brief()} "
                                 "overflows float64") from None

    def scale(self, s: Scalar) -> "Coefficient":
        re, im = self.re, self.im
        if s.__class__ is re.__class__ is im.__class__ is Fraction:
            return Coefficient(re * s if re else re, im * s if im else im)
        return Coefficient(re * s, im * s)

    def magnitude_squared(self) -> Scalar:
        return self.re * self.re + self.im * self.im

    def magnitude(self) -> Scalar:
        """|value|. A Fraction result is exact; a float result is approximate.

        Exact coefficients on an axis have exact magnitudes; off-axis exact
        coefficients stay exact only when |value|^2 is a rational square
        (e.g. 3+4i), otherwise the magnitude honestly degrades to float.
        """
        if not self.exact:
            return abs(self.as_complex())
        if self.im == 0:
            return abs(self.re)
        if self.re == 0:
            return abs(self.im)
        return sqrt_scalar(self.magnitude_squared())

    def __str__(self) -> str:
        return f"{format_scalar(self.re)}{'+' if self.im >= 0 else '-'}{format_scalar(abs(self.im))}i"

    def brief(self) -> str:
        """str(self) with each part written by brief_scalar: short at any size, for messages."""
        return f"{brief_scalar(self.re)}{'+' if self.im >= 0 else '-'}{brief_scalar(abs(self.im))}i"


ZERO = Coefficient(0, 0)
ONE = Coefficient(1, 0)


def coeff(value) -> Coefficient:
    """Coerce int/Fraction/float/complex/(re, im) pairs to a Coefficient."""
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, complex):
        return Coefficient(value.real, value.imag)
    if isinstance(value, tuple) and len(value) == 2:
        return Coefficient(value[0], value[1])
    return Coefficient(as_scalar(value), Fraction(0))


def _clean_table(name: str, table: Mapping[Key, object], p: int) -> dict[Key, Coefficient]:
    out: dict[Key, Coefficient] = {}
    for key, raw in table.items():
        n, k = key
        if n < 1 or k < 1:
            raise InvalidMapError(f"{name}[{n},{k}]: indices must be >= 1")
        if k > p:
            raise InvalidMapError(f"{name}[{n},{k}]: layer exceeds p={p}")
        c = coeff(raw)
        if not c.is_zero:
            out[(n, k)] = c
    return out


class PolyharmonicMap(Record):
    """Immutable finitely supported map of the unit disk.

    ``a`` and ``b`` hold only nonzero entries (plus the mandatory a[1,1]=1).
    Equal maps have equal tables; a map is not hashable.
    """

    __slots__ = ("p", "a", "b")
    __hash__ = None

    def __init__(self, p: int, a: Mapping[Key, object] | None = None, b: Mapping[Key, object] | None = None):
        if p < 1:
            raise InvalidMapError(f"p must be >= 1, got {p}")
        a = _clean_table("a", a or {}, p)
        b = _clean_table("b", b or {}, p)
        lead = a.get((1, 1), ZERO)
        if not (lead.re == 1 and lead.im == 0):
            raise InvalidMapError(f"a[1,1] must equal 1, got {lead.brief()}")
        a[(1, 1)] = ONE
        b11 = b.get((1, 1))
        if b11 is not None and not b11.magnitude_squared() < 1:
            raise InvalidMapError(f"|b[1,1]| must be < 1, got {b11.brief()}")
        set_field(self, "p", p)
        set_field(self, "a", a)
        set_field(self, "b", b)

    # --- shape -------------------------------------------------------------

    @property
    def max_degree(self) -> int:
        return max(n for n, _ in list(self.a) + list(self.b))

    @property
    def effective_p(self) -> int:
        """Highest layer that actually carries a nonzero coefficient."""
        return max(k for _, k in list(self.a) + list(self.b))

    @property
    def is_exact(self) -> bool:
        return all(c.exact for c in self.a.values()) and all(c.exact for c in self.b.values())

    @property
    def is_normalized(self) -> bool:
        """b[1,1] = 0 and a[1,k] = b[1,k] = 0 for k >= 2 (the superscript-0 subclass)."""
        if (1, 1) in self.b:
            return False
        return not any(n == 1 and k >= 2 for n, k in list(self.a) + list(self.b))

    def coeff_a(self, n: int, k: int) -> Coefficient:
        return self.a.get((n, k), ZERO)

    def coeff_b(self, n: int, k: int) -> Coefficient:
        return self.b.get((n, k), ZERO)

    def support(self) -> Iterator[Key]:
        """All (n, k) with a nonzero a or b entry, sorted layer-major."""
        keys = set(self.a) | set(self.b)
        return iter(sorted(keys, key=lambda nk: (nk[1], nk[0])))

    def __repr__(self) -> str:
        terms = [f"a[{n},{k}]={self.a[(n, k)]}" for n, k in sorted(self.a, key=lambda t: (t[1], t[0]))]
        terms += [f"b[{n},{k}]={self.b[(n, k)]}" for n, k in sorted(self.b, key=lambda t: (t[1], t[0]))]
        return f"PolyharmonicMap(p={self.p}, {', '.join(terms)})"


def make_map(p: int, a: Mapping[Key, object] | None = None, b: Mapping[Key, object] | None = None) -> PolyharmonicMap:
    """Build a validated map from raw coefficient tables.

    Ergonomic constructor: values may be ints, Fractions, floats, complex, or
    (re, im) pairs. a[1,1] defaults to 1 when missing.
    """
    a = dict(a or {})
    a.setdefault((1, 1), ONE)
    return PolyharmonicMap(p, a, dict(b or {}))
