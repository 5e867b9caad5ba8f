"""Finitely supported polyharmonic coefficient series.

A map is stored as two sparse tables indexed by (n, k):

    F(z) = sum_{k=1..p} |z|^(2(k-1)) * sum_n ( a[n,k] z^n + conj(b[n,k] z^n) )

with the normalization a[1,1] = 1 and |b[1,1]| < 1. Unlisted entries are zero.
All values are immutable after construction and every operation here is pure.

An exact ``Coefficient`` is stored as one reduced integer triple (x, y, d), the
value (x + yi)/d, which products, sums, magnitudes and the .phm text read; its
``re`` and ``im`` are read-only Fractions built on each read.

Every weighted coefficient sum of the exact core (the membership rows, the
neighborhood distance, the per-layer tails) is ``weighted_sum`` over rows
(n, k, |a|, |b|), as ``PolyharmonicMap.magnitudes`` builds them once per call:
each magnitude is a ``magnitude_term``, an exact pair where |c| is rational,
and the sum a pair too when every term is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Complex, Integral, Real
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Tuple

from .errors import InvalidMapError, NonFiniteError
from .exact import (Record, Scalar, Term, as_scalar, brief_scalar, fold_terms, format_ratio, format_scalar,
                    root_term, set_field, term_scalar, weighted_pair)

Key = Tuple[int, int]  # (n, k): power n >= 1, layer k >= 1
Row = Tuple[int, int, Term, Term]  # (n, k, |a[n,k]|, |b[n,k]|)
_ZERO_TERM = (0, 1)  # magnitude_term(ZERO)
_new = object.__new__


class Coefficient(Record):
    """One complex coefficient re + im i. An exact one stores the triple (x, y, d), the value (x + yi)/d
    with d >= 1 and gcd(x, y, d) = 1; one with a float part stores (re, im, 0). Equality and hash go
    by (re, im), a Fraction for an exact part and else the float."""

    __slots__ = ("_triple",)
    _fields = ("re", "im")

    def __init__(self, re: Scalar = 0, im: Scalar = 0):
        if not (re.__class__ in (int, Fraction) and im.__class__ in (int, Fraction)):
            re, im = as_scalar(re), as_scalar(im)
        if re.__class__ is float or im.__class__ is float:
            set_field(self, "_triple", (re, im, 0))
        else:  # parts in lowest terms, so the triple over the lcm of their denominators is reduced too
            (x, dx), (y, dy) = re.as_integer_ratio(), im.as_integer_ratio()
            d = math.lcm(dx, dy)
            set_field(self, "_triple", (x * (d // dx), y * (d // dy), d))

    re = property(lambda self: Fraction(self._triple[0], self._triple[2]) if self._triple[2] else self._triple[0])
    im = property(lambda self: Fraction(self._triple[1], self._triple[2]) if self._triple[2] else self._triple[1])
    exact = property(lambda self: self._triple[2] > 0)
    is_zero = property(lambda self: not (self._triple[0] or self._triple[1]))

    def as_complex(self, table: str = "", key: Key | None = None) -> complex:
        """The value as a float complex, x/d rounded as float(Fraction) rounds it; NonFiniteError if an
        exact part overflows float64, naming the entry ``table[n,k]`` when given its key."""
        x, y, d = self._triple
        try:
            return complex(x / d, y / d) if d else complex(float(x), float(y))
        except OverflowError:
            raise _entry_error(table, key, f"coefficient {self.brief()} overflows float64") from None

    def conjugate(self) -> "Coefficient":
        x, y, d = self._triple
        return _reduced(x, -y, d) if d else Coefficient(x, -y)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        return self._plus(other, 1, "sum")

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self._plus(other, -1, "difference")

    def _plus(self, other: "Coefficient", sign: int, name: str) -> "Coefficient":
        (x, y, d), (u, v, e) = self._triple, other._triple
        if d and e:
            return _reduced(x * e + sign * u * d, y * e + sign * v * d, d * e)
        try:  # float a + (-b) is a - b, bit for bit
            return Coefficient(self.re + sign * other.re, self.im + sign * other.im)
        except OverflowError:  # an exact part beyond float64 meets a float part
            raise NonFiniteError(
                f"{name} of coefficients {self.brief()} and {other.brief()} overflows float64") from None

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        return product_over(self, other)

    def scale(self, s: Scalar) -> "Coefficient":
        x, y, d = self._triple
        if d and s.__class__ is Fraction:
            return _reduced(x * s.numerator, y * s.numerator, d * s.denominator)
        try:
            return Coefficient(self.re * s, self.im * s)
        except OverflowError:
            raise NonFiniteError(f"coefficient {self.brief()} times {brief_scalar(s)} overflows float64") from None

    def magnitude_squared(self) -> Scalar:
        x, y, d = self._triple
        return Fraction(x * x + y * y, d * d) if d else x * x + y * y

    def magnitude(self) -> Scalar:
        """|value|, by magnitude_term: a Fraction result is exact, a float result approximate."""
        return term_scalar(magnitude_term(self))

    def texts(self) -> tuple[str, str]:
        """(format_scalar(re), format_scalar(im)), an exact part written from the triple."""
        x, y, d = self._triple
        if not d:
            return format_scalar(x), format_scalar(y)
        gx, gy = math.gcd(x, d), math.gcd(y, d)
        return format_ratio(x // gx, d // gx), format_ratio(y // gy, d // gy)

    def __str__(self) -> str:
        return f"{format_scalar(self.re)}{'+' if self.im >= 0 else '-'}{format_scalar(abs(self.im))}i"

    def brief(self) -> str:
        """str(self) with each part written by brief_scalar: short at any size, for messages."""
        return f"{brief_scalar(self.re)}{'+' if self.im >= 0 else '-'}{brief_scalar(abs(self.im))}i"


def _reduced(x: int, y: int, d: int) -> Coefficient:
    """The exact coefficient (x + yi)/d of ints with d >= 1, its triple divided by their one gcd."""
    g = math.gcd(x, y, d)
    c = _new(Coefficient)
    set_field(c, "_triple", (x // g, y // g, d // g))
    return c


def term_coefficient(re: Term, im: Term) -> Coefficient:
    """The coefficient re + im i of two Terms as parse_term gives them, two exact pairs as one triple."""
    if re.__class__ is im.__class__ is tuple:
        return _reduced(re[0] * im[1], im[0] * re[1], re[1] * im[1])
    return Coefficient(term_scalar(re), term_scalar(im))


ZERO = Coefficient(0, 0)
ONE = Coefficient(1, 0)


def layer_major(keys: Iterable[Key]) -> list[Key]:
    """The keys (n, k) sorted layer-major: by k, then by n."""
    return sorted(sorted(keys), key=itemgetter(1))  # by n, then stably by k


def _entry_error(table: str, key: Key | None, message: str) -> NonFiniteError:
    return NonFiniteError(message if key is None else f"{table}[{key[0]},{key[1]}]: {message}")


def magnitude_term(c: Coefficient, table: str = "", key: Key | None = None) -> Term:
    """|c| as fold_terms takes it: an exact (numerator, denominator) pair when the magnitude is rational,
    else a float. NonFiniteError, naming the entry ``table[n,k]`` when given its key, on overflow.

    An exact (x + yi)/d on an axis has the pair (|x|, d) or (|y|, d). Off the axes
    |c| = sqrt(x^2 + y^2)/d is ``root_term(x^2 + y^2, d)``: rational exactly when
    x^2 + y^2 is a square (e.g. 3+4i), otherwise a float, as for a float or mixed coefficient.
    """
    x, y, d = c._triple
    if not d:
        return abs(c.as_complex(table, key))
    if not y:
        return abs(x), d
    if not x:
        return abs(y), d
    try:
        return root_term(x * x + y * y, d)
    except NonFiniteError as e:
        raise _entry_error(table, key, str(e)) from None


def difference_term(x: Coefficient, y: Coefficient, table: str, key: Key) -> Term:
    """magnitude_term(x - y), whose NonFiniteError also names the entry ``table[n,k]``
    when the difference itself leaves float64."""
    try:
        d = x - y
    except NonFiniteError as e:
        raise _entry_error(table, key, str(e)) from None
    return magnitude_term(d, table, key)


def weighted_sum(rows: Iterable[Row], weight: Callable[[int, int], Term], *last: Term) -> Term:
    """The weighted l1 sum of the exact core: fold_terms of weighted_pair(weight(n, k), |a|, |b|) over the
    rows, in order, and then of the terms ``last``. NonFiniteError when a float sum overflows float64."""
    total = fold_terms([weighted_pair(weight(n, k), ma, mb) for n, k, ma, mb in rows] + list(last))
    if total.__class__ is float and not math.isfinite(total):
        raise NonFiniteError("a weighted coefficient sum overflows float64")
    return total


def product_over(x: Coefficient, y: Coefficient, n: int = 1) -> Coefficient:
    """x y / n for an integer n >= 1. Exact x = (a + bi)/d and y = (c + ei)/f give the
    triple (ac - be, ae + bc, d f n), reduced once. Otherwise the parts are floats, and for
    n > 1 each is multiplied by Fraction(1, n)."""
    (a, b, d), (c, e, f) = x._triple, y._triple
    if d and f:
        return _reduced(a * c - b * e, a * e + b * c, d * f * n)
    a, b, c, e = x.re, x.im, y.re, y.im
    try:
        re, im = a * c - b * e, a * e + b * c
    except OverflowError:  # an exact part beyond float64 meets a float part
        raise NonFiniteError(f"product of coefficients {x.brief()} and {y.brief()} overflows float64") from None
    return Coefficient(re, im) if n == 1 else Coefficient(re * Fraction(1, n), im * Fraction(1, n))


def coeff(value) -> Coefficient:
    """Coerce a real scalar (see as_scalar), a non-real Complex such as numpy.complex64 or an (re, im) pair."""
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, Complex) and not isinstance(value, Real):
        return Coefficient(value.real, value.imag)
    if isinstance(value, tuple) and len(value) == 2:
        return Coefficient(value[0], value[1])
    return Coefficient(as_scalar(value), Fraction(0))


def _clean_table(name: str, table: Mapping[Key, object], p: int) -> dict[Key, Coefficient]:
    """The nonzero entries of ``table`` under int keys. InvalidMapError for the first bad index in the
    table's own order; then NonFiniteError for the layer-major first entry with a NaN or infinite
    part, so that the entry it names does not depend on how the table was built."""
    out: dict[Key, Coefficient] = {}
    bad: dict[Key, Coefficient] = {}
    for key, c in table.items():
        n, k = key
        if not (key.__class__ is tuple and n.__class__ is k.__class__ is int and 1 <= n and 1 <= k <= p):
            if not (n.__class__ is k.__class__ is int or isinstance(n, Integral) and isinstance(k, Integral)):
                raise InvalidMapError(f"{name}[{n},{k}]: indices must be integers")
            if n < 1 or k < 1:
                raise InvalidMapError(f"{name}[{n},{k}]: indices must be >= 1")
            if k > p:
                raise InvalidMapError(f"{name}[{n},{k}]: layer exceeds p={p}")
            key = int(n), int(k)  # any Integral index is stored as int, as DiskGrid stores its sizes
        if c.__class__ is not Coefficient:
            c = coeff(c)
        x, y, d = c._triple
        if not d and (x.__class__ is float and not math.isfinite(x) or y.__class__ is float and not math.isfinite(y)):
            bad[key] = c
        elif x or y:
            out[key] = c
    if bad:  # sorted only on this error path
        key = layer_major(bad)[0]
        raise _entry_error(name, key, f"coefficient {bad[key].brief()} is not finite")
    return out


class PolyharmonicMap(Record):
    """Immutable finitely supported map of the unit disk.

    ``a`` and ``b`` hold only nonzero entries (plus the mandatory a[1,1]=1).
    Equal maps have equal tables; a map is not hashable.
    """

    __slots__ = ("p", "a", "b")
    __hash__ = None
    _defaults = {"a": None, "b": None}

    def _check(self):
        if not (self.p.__class__ is int or isinstance(self.p, Integral)):
            raise InvalidMapError(f"p must be an integer, got {self.p!r}")
        p = int(self.p)
        if p < 1:
            raise InvalidMapError(f"p must be >= 1, got {p}")
        a = _clean_table("a", self.a or {}, p)
        b = _clean_table("b", self.b or {}, p)
        lead = a.get((1, 1), ZERO)
        if lead._triple not in ((1, 0, 1), (1, 0, 0)):  # exactly 1, or 1 with a float part
            raise InvalidMapError(f"a[1,1] must equal 1, got {lead.brief()}")
        a[(1, 1)] = ONE
        b11 = b.get((1, 1))
        if b11 is not None:
            x, y, d = b11._triple  # |b11|^2 < 1: x^2 + y^2 < d^2 for an exact b11
            try:
                inside = x * x + y * y < (d * d or 1)
            except OverflowError:  # an exact part beyond float64 meets a float part, so |b11| > 1
                inside = False
            if not inside:
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
        return iter(layer_major(self.a.keys() | self.b.keys()))

    def magnitudes(self) -> list[Row]:
        """(n, k, |a[n,k]|, |b[n,k]|) over the support, layer-major, each magnitude from magnitude_term,
        whose NonFiniteError names the entry."""
        a, b = self.a, self.b
        return [(key[0], key[1], magnitude_term(a[key], "a", key) if key in a else _ZERO_TERM,
                 magnitude_term(b[key], "b", key) if key in b else _ZERO_TERM) for key in self.support()]

    def __repr__(self) -> str:
        terms = [f"{name}[{n},{k}]={table[(n, k)]}" for name, table in (("a", self.a), ("b", self.b))
                 for n, k in layer_major(table)]
        return f"PolyharmonicMap(p={self.p}, {', '.join(terms)})"


def make_map(p: int, a: Mapping[Key, object] | None = None, b: Mapping[Key, object] | None = None) -> PolyharmonicMap:
    """Build a validated map from raw coefficient tables.

    Ergonomic constructor: values may be ints, Fractions, floats, complex, or
    (re, im) pairs. a[1,1] defaults to 1 when missing.
    """
    a = dict(a or {})
    a.setdefault((1, 1), ONE)
    return PolyharmonicMap(p, a, dict(b or {}))
