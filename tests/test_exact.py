import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sqrt_scalar
from phmaps.errors import NonFiniteError
from phmaps.exact import (
    EPS_STRICT,
    MAX_SCALAR_DIGITS,
    format_scalar,
    is_exact,
    parse_scalar,
    root_term,
    strict_less,
    term_difference,
    term_scalar,
)


def test_parse_rational_and_integer_stay_exact():
    assert parse_scalar("1/10") == Fraction(1, 10)
    assert parse_scalar("-3/7") == Fraction(-3, 7)
    assert parse_scalar("42") == Fraction(42)
    assert is_exact(parse_scalar("42"))


def test_parse_decimal_is_float():
    x = parse_scalar("0.25")
    assert x == 0.25 and not is_exact(x)
    assert parse_scalar("1e-3") == 1e-3


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "nan", "inf", "1/2/3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_scalar(bad)


@given(st.fractions(max_denominator=10**6))
def test_format_parse_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_parse_round_trip_float(x):
    assert parse_scalar(format_scalar(x)) == x


def root_of(q: Fraction):
    """sqrt(q) by root_term, with q = num/den written as (num den)/den^2."""
    return root_term(q.numerator * q.denominator, q.denominator)


def test_exact_sqrt():
    assert root_term(25, 1) == (5, 1)
    assert root_term(9, 4) == (3, 4)
    assert root_term(0, 7) == (0, 7)
    assert term_scalar(root_of(Fraction(9, 16))) == Fraction(3, 4)
    assert root_term(2, 1) == pytest.approx(2**0.5) and isinstance(root_term(2, 1), float)
    assert root_term(3**2 + 4**2, 10) == (5, 10)  # |3/10 + 4/10 i|, off the axes


def within_an_ulp(root: float, q: Fraction) -> bool:
    """|root - sqrt(q)| <= ulp(root), decided exactly."""
    ulp = Fraction(math.ulp(root))
    return (Fraction(root) - ulp) ** 2 <= q <= (Fraction(root) + ulp) ** 2


@given(st.integers(1045, 2047), st.integers(1, 10**30), st.integers(1, 2**20))
def test_sqrt_of_a_rational_beyond_float_range(bits, low, den):
    q = Fraction(2**bits + low, den)  # at least 2**1025, so float(q) overflows; its root does not
    root = root_of(q)
    assert isinstance(root, float) and within_an_ulp(root, q)


def test_sqrt_keeps_the_float_root_where_the_argument_fits():
    for q in (Fraction(2), Fraction(2**1023 + 1), Fraction(10**300 + 1, 3), Fraction(1e300)):
        assert root_of(q) == math.sqrt(float(q))


def test_sqrt_raises_only_where_the_root_overflows():
    assert within_an_ulp(root_of(Fraction(2**2047 + 1)), Fraction(2**2047 + 1))
    message = r"^the square root of an exact value near 2\*\*\d+ overflows float64$"
    for q in (Fraction(9 * 10**800 + 1), Fraction(2**2048 - 1)):  # the second root rounds to 2**1024
        with pytest.raises(NonFiniteError, match=message):
            root_of(q)


def _outcome(root, *args):
    """(value, error message) of one root call."""
    try:
        return term_scalar(root(*args)), None
    except NonFiniteError as e:
        return None, str(e)


@given(st.integers(1, 2**80), st.integers(-60, 2099), st.integers(0, 2**60), st.booleans())
def test_root_term_matches_the_reference_root(d, e, m, square):
    """root_term(s, d) against the Fraction root of s/d^2, for s/d^2 from about 2**-60 to 2**2100:
    the same exact value or float bits, or the same error message."""
    scaled = d * d * (2**60 + m)  # s/d^2 in [2**e, 2**(e + 1)) up to the rounding of s
    s = max(1, scaled << e >> 60 if e >= 0 else scaled >> 60 - e)
    if square:
        s = math.isqrt(s) ** 2
    got, want = _outcome(root_term, s, d), _outcome(sqrt_scalar, Fraction(s, d * d))
    assert got == want and type(got[0]) is type(want[0])


def test_strict_less_exact_never_uses_epsilon():
    ok, used = strict_less((199999999, 100000000), 2)
    assert ok and not used
    ok, used = strict_less((2, 1), 2)
    assert not ok and not used


def test_strict_less_approximate_fails_closed():
    ok, used = strict_less(2.0 - EPS_STRICT / 2, 2.0)
    assert not ok and used
    ok, used = strict_less(2.0 - 10 * EPS_STRICT, 2.0)
    assert ok and used


def test_strict_less_decides_an_exact_pair_exactly():
    assert strict_less((2 * 10**30 - 1, 10**30), 2) == (True, False)
    assert strict_less((6, 3), 2) == (False, False)


def as_term(x):
    """An exact scalar as an unreduced (numerator, denominator) pair; a float as itself."""
    return (2 * x.numerator, 2 * x.denominator) if isinstance(x, Fraction) else x


terms = st.one_of(st.fractions(max_denominator=10**6), st.floats(-1e6, 1e6),
                  st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)))


@given(terms, terms)
def test_term_difference_rounds_as_the_expression(x, y):
    got, want = term_scalar(term_difference(as_term(x), as_term(y))), x - y
    assert type(got) is type(want) and (repr(got) == repr(want) if isinstance(want, float) else got == want)


@st.composite
def small_literals(draw):
    """(text, value) of an integer literal with a sign, leading zeros and underscores."""
    sign, value = draw(st.sampled_from(["", "+", "-"])), draw(st.integers(0, 10**12))
    digits = f"{value:_}" if draw(st.booleans()) else str(value)
    return sign + "0" * draw(st.integers(0, 2)) + digits, -value if sign == "-" else value


@st.composite
def huge_literals(draw):
    """(text, value) of an integer literal whose digit count sits at the conversion
    chunk, at CPython's 4300-digit int/str limit or at MAX_SCALAR_DIGITS."""
    digits = draw(st.sampled_from([3999, 4000, 4001, 4300, 4301, MAX_SCALAR_DIGITS - 1, MAX_SCALAR_DIGITS,
                                   MAX_SCALAR_DIGITS + 1]))
    sign, head, tail = draw(st.sampled_from(["", "+", "-"])), draw(st.integers(1, 9)), draw(st.integers(0, 999999))
    value = head * 10 ** (digits - 1) + tail
    return f"{sign}{head}{'0' * (digits - 7)}{tail:06d}", -value if sign == "-" else value


def check_literal(text: str, value) -> None:
    if any(sum(ch.isdigit() for ch in part) > MAX_SCALAR_DIGITS for part in text.split("/")):
        with pytest.raises(ValueError, match=f"MAX_SCALAR_DIGITS={MAX_SCALAR_DIGITS}"):
            parse_scalar(text)
        return
    x = parse_scalar(text)
    assert x == value and is_exact(x)
    out = format_scalar(x)
    assert parse_scalar(out) == x and format_scalar(parse_scalar(out)) == out


@given(small_literals(), small_literals())
def test_edge_literals(num, den):
    check_literal(num[0], num[1])
    if den[1]:
        check_literal(f"{num[0]}/{den[0]}", Fraction(num[1], den[1]))


@settings(max_examples=12, deadline=None)
@given(huge_literals(), small_literals())
def test_huge_literals_near_the_digit_bound(num, den):
    check_literal(num[0], num[1])
    if den[1]:
        check_literal(f"{num[0]}/{den[0]}", Fraction(num[1], den[1]))


def test_edge_literal_examples():
    assert parse_scalar("1_000") == 1000 and parse_scalar("+1/2") == Fraction(1, 2)
    assert format_scalar(parse_scalar("-0")) == "0" and format_scalar(parse_scalar("-0/5")) == "0"
    with pytest.raises(ValueError):
        parse_scalar("1__0")


def test_format_rejects_values_past_the_digit_bound():
    assert format_scalar(Fraction(-(10**MAX_SCALAR_DIGITS - 1), 3)).startswith("-3333")
    with pytest.raises(ValueError, match=f"MAX_SCALAR_DIGITS={MAX_SCALAR_DIGITS}"):
        format_scalar(Fraction(1, 10**MAX_SCALAR_DIGITS))
