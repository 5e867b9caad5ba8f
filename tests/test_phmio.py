from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import maps
from phmaps import (
    InvalidMapError,
    MapSyntaxError,
    convolve,
    example_F1,
    identity_map,
    make_map,
    parse_map,
    serialize_map,
)
from phmaps.exact import MAX_SCALAR_DIGITS
from phmaps.sampling import random_valid_map

F1_TEXT = "p 1\na 1 1 1 0\na 2 1 1/10 0\nb 2 1 1/5 0"


def test_parse_example_map():
    assert parse_map(F1_TEXT) == example_F1()


def test_parse_identity():
    assert parse_map("p 1\na 1 1 1 0") == identity_map()


def test_parse_accepts_bytes_comments_and_blank_lines():
    text = b"# a comment\n\np 1\n  a 1 1 1 0\n# trailing\n"
    assert parse_map(text) == identity_map()


def test_leading_coefficient_must_be_one():
    with pytest.raises(InvalidMapError):
        parse_map("p 1\na 1 1 2 0")


def test_missing_leading_coefficient():
    with pytest.raises(InvalidMapError):
        parse_map("p 1\na 2 1 1/10 0")


def test_b11_bound_checked_at_parse_time():
    with pytest.raises(InvalidMapError):
        parse_map("p 1\na 1 1 1 0\nb 1 1 1 0")


@pytest.mark.parametrize(
    "text,line",
    [
        ("a 1 1 1 0", 1),                       # header missing
        ("p x", 1),                             # bad layer count
        ("p 0", 1),                             # p out of range
        ("p 1\na 1 1 1", 2),                    # wrong arity
        ("p 1\na 1 1 1 0\na 1 1 1 0", 3),       # duplicate
        ("p 1\na 1 1 1 0\nc 2 1 1 0", 3),       # unknown letter
        ("p 1\na 1 1 1 0\na 2 2 1/9 0", 3),     # layer exceeds p
        ("p 1\na 1 1 1 0\na 2 1 1/0 0", 3),     # zero denominator
        ("p 1\na 1 1 1 0\na 0 1 1/9 0", 3),     # bad index
        ("p 1\na 1 1 1 0\na 2 1 foo 0", 3),     # bad literal
    ],
)
def test_syntax_errors_carry_line_numbers(text, line):
    with pytest.raises(MapSyntaxError) as exc:
        parse_map(text)
    assert exc.value.line == line


def test_empty_input():
    with pytest.raises(MapSyntaxError):
        parse_map("")


def test_serialize_is_deterministic_and_parsable():
    F = example_F1()
    data = serialize_map(F)
    assert data == serialize_map(F)
    assert data.decode().splitlines()[0] == "p 1"
    assert parse_map(data) == F


def test_round_trip_preserves_floats_exactly():
    F = make_map(1, a={(2, 1): 0.1}, b={(1, 1): (0.25, -1e-3)})
    G = parse_map(serialize_map(F))
    assert G == F
    assert isinstance(G.coeff_a(2, 1).re, float)


def test_round_trip_preserves_exactness():
    F = make_map(2, a={(2, 1): Fraction(1, 10)}, b={(1, 2): (Fraction(1, 7), Fraction(-2, 9))})
    G = parse_map(serialize_map(F))
    assert G == F and G.is_exact


def test_round_trip_random_corpus(rng):
    for _ in range(100):
        F = random_valid_map(rng, p=rng.randint(1, 4), max_degree=16, allow_offaxis=True)
        assert parse_map(serialize_map(F)) == F


def test_products_past_the_int_str_limit_round_trip():
    D = parse_map("p 1\na 1 1 1 0\na 2 1 1" + "0" * 3000 + " 0\n")
    DD = convolve(D, D)
    data = serialize_map(DD)
    assert f"a 2 1 1{'0' * 6000} 0".encode() in data
    assert parse_map(data) == DD and DD.coeff_a(2, 1).re == 10**6000


def test_literal_past_the_digit_bound_is_a_syntax_error():
    at_bound = "p 1\na 1 1 1 0\nb 2 1 -" + "9" * MAX_SCALAR_DIGITS + " 0\n"
    assert parse_map(at_bound).coeff_b(2, 1).re == 1 - 10**MAX_SCALAR_DIGITS
    with pytest.raises(MapSyntaxError, match=f"line 3: .*MAX_SCALAR_DIGITS={MAX_SCALAR_DIGITS}"):
        parse_map("p 1\na 1 1 1 0\nb 2 1 1/1" + "0" * MAX_SCALAR_DIGITS + " 0\n")


@given(maps())
def test_round_trip_property(F):
    data = serialize_map(F)
    G = parse_map(data)
    assert G == F and G.is_exact == F.is_exact and serialize_map(G) == data


TOKENS = ["p", "a", "b", "c", "#", "0", "1", "2", "3", "-1", "1/2", "+1/2", "-0", "1/0", "0.5", "1e999", "nan",
          "inf", "1_000", "_1", "x", "1.5.1", "10" * 30]
documents = st.lists(st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join), max_size=8).map("\n".join)


@given(st.one_of(documents, documents.map(lambda d: "p 1\na 1 1 1 0\n" + d), st.text(), st.binary()))
def test_garbage_raises_only_format_errors(data):
    try:
        F = parse_map(data)
    except (MapSyntaxError, InvalidMapError):
        return
    assert parse_map(serialize_map(F)) == F
