"""Scalar arithmetic with explicit exactness.

A scalar is either a ``Fraction`` (exact) or a ``float`` (approximate).
Mixing the two in ordinary arithmetic degrades to ``float``, which is exactly
the propagation rule we want: a sum is exact iff every term was exact.

``fold_terms`` adds long rows with integers: exact terms are (numerator,
denominator) pairs over a running lcm; from the first float term on it
continues in float, in the same order. Its result is bit for bit the left fold
``Fraction(0) + t1 + t2 + ...``, kept as a pair until a report needs its Fraction.
``parse_term`` reads a literal as such a pair or a float. Integers are
converted to and from text in chunks below CPython's 4300-digit limit, up to
``MAX_SCALAR_DIGITS`` digits per integer part; more is a ValueError.

``root_term`` is the one square root: sqrt(s)/d of integers, exact when s is a square.

Strict inequalities against class bounds are the one place approximation is
dangerous, so ``strict_less`` fails closed: an approximate value passes a
strict bound only if it clears the bound by ``EPS_STRICT``.

``Record`` is the base of every value type in the package: fields are declared
once, in ``__slots__``, defaults go in ``_defaults`` and checks in ``_check``.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from numbers import Integral, Real
from typing import Iterable, Tuple, Union

from .errors import NonFiniteError

Scalar = Union[Fraction, float]
Term = Union[Tuple[int, int], float]  # a magnitude, weight or sum as fold_terms takes it: exact pair or float

# Margin for strict "<" comparisons once any input is approximate.
EPS_STRICT = 1e-12

# Most digits in an integer literal or written integer; converting one takes ~0.1 s.
MAX_SCALAR_DIGITS = 100_000
_CHUNK_DIGITS = 4000  # per int/str conversion, below CPython's default 4300-digit limit
_CHUNK = 10**_CHUNK_DIGITS
_INT_LITERAL = r"\s*([+-]?)(\d+(?:_\d+)*)\s*"  # compiled on first use, not at import

set_field = object.__setattr__  # how a record's constructor or _check stores a field


class Record:
    """Immutable value whose fields are its ``__slots__``, or its ``_fields``
    where it stores them in another form.

    ``Record(*values, **fields)`` binds values by position, then by keyword, then
    from the class's ``_defaults``, stores each in its slot and calls
    ``self._check()``, where a subclass raises its errors and stores normalised
    values; a binding error is a TypeError. A call with every value by position
    skips the keyword and default checks. ``Coefficient``, built thousands of
    times per op, keeps its own constructor. Assigning or deleting an
    attribute afterwards raises AttributeError. Two records are equal when they
    have the same class and equal fields, the hash goes by the fields, and the
    repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _defaults: dict = {}  # field name -> value for the fields a caller may leave out

    def __init_subclass__(cls):
        cls._fields = vars(cls).get("_fields", cls.__slots__)
        cls._values = operator.attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls.__slots__)  # set_field, one slot each

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):  # keywords, defaults or a binding error
            if len(args) > len(fields):
                raise TypeError(f"{self.__class__.__qualname__}() takes {len(fields)} values, got {len(args)}")
            for field in fields[:len(args)]:
                if field in kwargs:
                    raise TypeError(f"{self.__class__.__qualname__}() got field {field!r} twice")
            for field, value in kwargs.items():
                try:
                    set_field(self, field, value)
                except AttributeError:  # not a slot: a method, a property or no attribute at all
                    raise TypeError(f"{self.__class__.__qualname__}() has no field {field!r}") from None
            if len(args) + len(kwargs) < len(fields):
                for field in fields[len(args):]:
                    if field not in kwargs:
                        if field not in self._defaults:
                            raise TypeError(f"{self.__class__.__qualname__}() is missing field {field!r}")
                        set_field(self, field, self._defaults[field])
        for store, value in zip(self._setters, args):
            store(self, value)
        self._check()

    def _check(self):
        """Validate the stored fields; a subclass raises its own error or stores normalised values."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def is_exact(x) -> bool:
    """True for int/Fraction values, False for floats (bool is not a scalar)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_scalar(x) -> Scalar:
    """Coerce to Fraction (Fractions, any Integral such as numpy.int64) or float (any other Real,
    such as numpy.float32); strings go through parse_scalar. bool and numpy.bool_ are refused."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):  # the concrete types first: they skip the ABC checks
        return float(x)  # a subclass such as numpy.float64 as a plain float, as the NaN/inf checks expect
    if isinstance(x, (int, Integral)):
        return Fraction(int(x))
    if isinstance(x, Real):
        return float(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def _parse_int(text: str) -> int:
    """int(text) without CPython's 4300-digit limit; parse_scalar bounds the digits."""
    m = re.fullmatch(_INT_LITERAL, text) if len(text) > _CHUNK_DIGITS else None
    if m is None:
        return int(text)
    digits = m[2].replace("_", "")
    value = _parse_int(digits[:-_CHUNK_DIGITS] or "0") * _CHUNK + int(digits[-_CHUNK_DIGITS:])
    return -value if m[1] == "-" else value


def _int_text(n: int) -> str:
    """str(n) without CPython's 4300-digit limit; ValueError past MAX_SCALAR_DIGITS digits."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if abs(n).bit_length() > 3 * MAX_SCALAR_DIGITS and abs(n) >= 10**MAX_SCALAR_DIGITS:
        raise ValueError(f"exact value has more than MAX_SCALAR_DIGITS={MAX_SCALAR_DIGITS} digits")
    high, low = divmod(abs(n), _CHUNK)
    return ("-" if n < 0 else "") + _int_text(high) + f"{low:0{_CHUNK_DIGITS}d}"


def _digit_count(n: int) -> int:
    """Decimal digits of |n| (1 for 0), counted without writing n out."""
    n = abs(n)
    d = int((n.bit_length() - 1) * math.log10(2)) + 1  # the count, or one less
    return d + (n >= 10**d)


def parse_scalar(text: str) -> Scalar:
    """parse_term(text) as a scalar: a Fraction for an exact literal, else the float."""
    return term_scalar(parse_term(text))


def parse_term(text: str) -> Term:
    """Parse "num/den" and integer literals exactly, as a (numerator, denominator)
    pair with positive denominator, not reduced; decimal literals as floats.

    Raises ValueError on anything else, and on a literal or part of one with
    more than MAX_SCALAR_DIGITS digits.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty numeric literal")
    if len(s) > MAX_SCALAR_DIGITS and any(sum(map(str.isdecimal, part)) > MAX_SCALAR_DIGITS
                                          for part in s.split("/")):
        raise ValueError(f"numeric literal has more than MAX_SCALAR_DIGITS={MAX_SCALAR_DIGITS} digits")
    if "/" in s:
        parts = []
        for part in s.split("/", 1):
            try:
                parts.append(_parse_int(part))
            except ValueError:  # int()'s own message quotes up to 200 characters of the part
                raise ValueError(f"invalid literal for int() with base 10: {brief_text(part)}") from None
        num, den = parts
        if not den:
            raise ValueError(f"zero denominator in {brief_text(text)}")
        return (num, den) if den > 0 else (-num, -den)
    try:
        return _parse_int(s), 1
    except ValueError:
        pass
    try:
        value = float(s)
    except ValueError:  # float's own message would quote all of s
        raise ValueError(f"could not convert string to float: {brief_text(s)}") from None
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite literal {brief_text(text)}")
    return value


def format_scalar(x: Scalar) -> str:
    """Inverse of parse_scalar: exact values as num/den (or int), floats via repr."""
    return format_ratio(x.numerator, x.denominator) if is_exact(x) else repr(float(x))


def format_ratio(num: int, den: int) -> str:
    """format_scalar(Fraction(num, den)) for num/den in lowest terms with den >= 1: the integer alone for den 1."""
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


def brief_text(text: str) -> str:
    """repr(text) up to 40 characters; past that, the repr of its first 20 and the length, so messages stay short."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... [{len(text)} characters]"


def brief_scalar(x: Scalar) -> str:
    """format_scalar(x) while an exact x has numerator and denominator below 2**64; past that,
    their digit counts, as in ``-[401 digits]`` or ``[401/2 digits]``, so that a message stays short."""
    if not is_exact(x) or max(x.numerator.bit_length(), x.denominator.bit_length()) <= 64:
        return format_scalar(x)
    digits = str(_digit_count(x.numerator)) + ("" if x.denominator == 1 else f"/{_digit_count(x.denominator)}")
    return f"{'-' if x < 0 else ''}[{digits} digits]"


def kv_lines(fields: Iterable[tuple[str, object]]) -> str:
    """Report lines ``name=value``: bools as true/false, strings as given, scalars by format_scalar."""
    return "\n".join(name + "=" + (str(v).lower() if isinstance(v, bool) else v if isinstance(v, str)
                                   else format_scalar(v)) for name, v in fields)


def fold_terms(terms: Iterable[Term | Scalar]) -> Term:
    """``Fraction(0) + t1 + t2 + ...`` bit for bit as a Term, each term a scalar or an exact
    (numerator, denominator) pair with positive denominator: an exact sum is the unreduced pair
    over the lcm of the denominators, and from the first float term on the sum is a float."""
    num, den = 0, 1
    terms = iter(terms)
    for t in terms:
        if t.__class__ is tuple:
            p, q = t
        elif is_exact(t):
            p, q = t.numerator, t.denominator
        else:
            total = num / den + t  # float(Fraction(num, den)) + t
            for t in terms:
                total = total + (t[0] / t[1] if t.__class__ is tuple else t)
            return total
        g = math.gcd(den, q)
        num, den = num * (q // g) + p * (den // g), den // g * q
    return num, den


def fold_sum(terms: Iterable[Term | Scalar]) -> Scalar:
    """fold_terms as a scalar: ``Fraction(0) + t1 + t2 + ...``, exact or float."""
    return term_scalar(fold_terms(terms))


def term_scalar(t: Term) -> Scalar:
    """A fold_terms term as a scalar: the Fraction of an exact pair, else the float itself."""
    return Fraction(*t) if t.__class__ is tuple else t


def term_difference(x: Term, y: Term) -> Term:
    """x - y as the Fraction/float expression gives it: an exact pair when both are pairs, else the float."""
    if x.__class__ is y.__class__ is tuple:
        return x[0] * y[1] - y[0] * x[1], x[1] * y[1]
    return (x[0] / x[1] if x.__class__ is tuple else x) - (y[0] / y[1] if y.__class__ is tuple else y)


def weighted_pair(w: Term, x: Term, y: Term) -> Term | Scalar:
    """The fold_terms term ``w * (x + y)``, each factor an exact (numerator, denominator) pair or a
    float: an exact pair when all three are pairs, else the float the Fraction expression gives."""
    if w.__class__ is x.__class__ is y.__class__ is tuple:
        return w[0] * (x[0] * y[1] + y[0] * x[1]), w[1] * x[1] * y[1]
    w, x, y = map(term_scalar, (w, x, y))
    return w * (x + y)


def root_term(s: int, d: int) -> Term:
    """sqrt(s)/d for integers s >= 0 and d >= 1 as fold_terms takes it: the exact pair (isqrt(s), d) when s is a
    square, else the float root of s/d^2 correctly rounded or, past float64, within an ulp from a 64-bit isqrt of
    the reduced s/d^2, scaled. NonFiniteError when that root is too large for a float too."""
    root = math.isqrt(s)
    if root * root == s:
        return root, d
    try:
        return math.sqrt(s / (d * d))
    except OverflowError:  # with s/d^2 = num/den reduced: sqrt(num/den) = isqrt(num / (den 4**e)) 2**e, to 64 bits
        num, den = Fraction(s, d * d).as_integer_ratio()
        e = (num.bit_length() - den.bit_length()) // 2 - 64
    try:
        return math.ldexp(float(math.isqrt(num // (den << 2 * e))), e)
    except OverflowError:
        raise NonFiniteError(f"the square root of an exact value near 2**{2 * e + 128} overflows float64") from None


def strict_less(value: Term, bound: int) -> tuple[bool, bool]:
    """Evaluate value < bound for an exact pair or a float value, failing closed for the float.

    Returns (ok, used_epsilon). An exact pair compares exactly and never touches EPS_STRICT.
    """
    if value.__class__ is tuple:
        return value[0] < bound * value[1], False
    return value < bound - EPS_STRICT, True
