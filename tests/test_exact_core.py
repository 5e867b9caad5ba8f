"""The exact core's integer arithmetic against the Fraction loops it replaced.

Every report field, distance and coefficient part must be equal and of the
same type, and every float must have the same bits, on exact, Pythagorean,
irrational-magnitude, decimal and mixed input, for all three families and
exact or float lambda.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_same_report,
    coefficients,
    maps,
    reference_convolve,
    reference_integral_convolve,
    reference_membership,
    reference_neighborhood_distance,
    reference_product,
    same,
)
from phmaps import Coefficient, example_F1, example_F2, half_plane_map, hc, hs, hs_lambda, make_map, membership
from phmaps.exact import fold_sum, weighted_pair
from phmaps.operators import convolve, integral_convolve, neighborhood_distance

lams = st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=30), st.floats(min_value=0, max_value=1))
scalars = st.one_of(st.fractions(max_denominator=10**6), st.floats(min_value=-1e6, max_value=1e6),
                    st.integers(-10, 10), st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)))


def all_families(lam, normalized):
    return (hs_lambda(lam, normalized), hs(normalized), hc(normalized))


def left_fold(terms):
    total = Fraction(0)
    for t in terms:
        total = total + t
    return total


@given(st.lists(scalars), st.integers(1, 6))
def test_fold_sum_is_the_left_fold(terms, m):
    unreduced = [(t.numerator * m, t.denominator * m) if isinstance(t, Fraction) else t for t in terms]
    want = left_fold(terms)
    assert same(fold_sum(unreduced), want)
    assert same(fold_sum(terms), want)


@given(st.one_of(st.fractions(min_value=0, max_denominator=100), st.floats(0, 100)), scalars, scalars)
def test_weighted_pair_rounds_as_the_expression(w, x, y):
    term = (w.numerator, w.denominator) if isinstance(w, Fraction) else w
    assert same(fold_sum([weighted_pair(term, x, y)]), Fraction(0) + w * (x + y))


@given(maps(), lams, st.booleans())
def test_membership_matches_the_fraction_loop(F, lam, normalized):
    for params in all_families(lam, normalized):
        assert_same_report(membership(F, params), reference_membership(F, params))


DECIMAL_F1 = make_map(1, a={(2, 1): 0.1}, b={(2, 1): 0.2})
NAMED = {
    "f1": example_F1(),
    "f2": example_F2(),
    "decimal_f1": DECIMAL_F1,
    "h8": half_plane_map(8),
    "pythagorean": make_map(2, a={(2, 1): (Fraction(3, 50), Fraction(4, 50)), (1, 2): (0, Fraction(1, 9))},
                            b={(1, 1): (Fraction(-5, 26), Fraction(12, 26)), (3, 2): Fraction(1, 40)}),
    "irrational": make_map(2, a={(2, 1): (Fraction(1, 8), Fraction(1, 8))}, b={(2, 2): (Fraction(1, 9), 1)}),
    "mixed": make_map(2, a={(2, 1): 0.1, (1, 2): Fraction(1, 7)}, b={(1, 1): (Fraction(1, 3), 0.25)}),
}


@pytest.mark.parametrize("name", sorted(NAMED))
@pytest.mark.parametrize("lam", [Fraction(2, 3), Fraction(0), Fraction(1), 0.5, 2 / 3])
def test_named_maps_match_the_fraction_loop(name, lam):
    for normalized in (False, True):
        for params in all_families(lam, normalized):
            assert_same_report(membership(NAMED[name], params), reference_membership(NAMED[name], params))


@given(maps(), maps())
def test_neighborhood_distance_matches_the_fraction_loop(F, G):
    assert same(neighborhood_distance(F, G), reference_neighborhood_distance(F, G))
    assert same(neighborhood_distance(F, F), reference_neighborhood_distance(F, F))


def assert_same_map(got, want) -> None:
    assert got.p == want.p
    for table, expected in ((got.a, want.a), (got.b, want.b)):
        assert table.keys() == expected.keys()
        for key, c in table.items():
            assert same(c.re, expected[key].re) and same(c.im, expected[key].im), key


@given(maps(), maps())
def test_integral_convolve_matches_the_fraction_loop(F, G):
    assert_same_map(integral_convolve(F, G), reference_integral_convolve(F, G))


@given(maps(), maps())
def test_convolve_matches_the_fraction_loop(F, G):
    assert_same_map(convolve(F, G), reference_convolve(F, G))


@pytest.mark.parametrize("shallow, deep", [("f1", "pythagorean"), ("h8", "irrational"), ("decimal_f1", "mixed")])
def test_maps_of_different_depth_match_the_padded_loops(shallow, deep):
    """Absent layers are zero: no operand is padded, and both orders agree with the references at the larger depth."""
    F, G = NAMED[shallow], NAMED[deep]
    assert F.p < G.p
    for x, y in ((F, G), (G, F)):
        assert same(neighborhood_distance(x, y), reference_neighborhood_distance(x, y))
        assert_same_map(convolve(x, y), reference_convolve(x, y))
        assert_same_map(integral_convolve(x, y), reference_integral_convolve(x, y))


@given(coefficients(), coefficients(), st.one_of(st.fractions(max_denominator=100), st.floats(-4, 4)))
def test_product_and_scale_match_the_four_product_form(x, y, s):
    for got, want in ((x * y, reference_product(x, y)), (x.scale(s), Coefficient(x.re * s, x.im * s))):
        assert same(got.re, want.re) and same(got.im, want.im)
