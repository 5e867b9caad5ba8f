"""The exact core's integer arithmetic against the Fraction loops it replaced.

Every magnitude, report field, distance and coefficient part must be equal
and of the same type, and every float must have the same bits, on exact,
Pythagorean, irrational-magnitude, decimal and mixed input, for all three
families and exact or float lambda. Where a reference raises NonFiniteError,
so must the exact core.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_same_report,
    coefficients,
    maps,
    off_axis,
    reference_convolve,
    reference_integral_convolve,
    reference_layer_bound_check,
    reference_magnitude,
    reference_membership,
    reference_neighborhood_distance,
    reference_product,
    same,
)
from phmaps import (Coefficient, ExtremalSpec, NonFiniteError, NotMemberError, example_F1, example_F2,
                    extremal_point, half_plane_map, hc, hs, hs_lambda, layer_bound_check, make_map, membership,
                    parse_map, serialize_map)
from phmaps.exact import fold_sum, weighted_pair
from phmaps.operators import convolve, integral_convolve, neighborhood_distance
from phmaps.sampling import random_certified_map, random_member
from phmaps.series import ONE, ZERO, magnitude_term, product_over, term_coefficient

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


def pair(x):
    """An exact scalar as an unreduced (numerator, denominator) pair; a float as itself."""
    return (3 * Fraction(x).numerator, 3 * Fraction(x).denominator) if isinstance(x, (int, Fraction)) else x


@given(st.one_of(st.fractions(min_value=0, max_denominator=100), st.floats(0, 100)), scalars, scalars)
def test_weighted_pair_rounds_as_the_expression(w, x, y):
    assert same(fold_sum([weighted_pair(pair(w), pair(x), pair(y))]), Fraction(0) + w * (x + y))


@given(coefficients())
def test_magnitude_is_the_fraction_rule(c):
    want = reference_magnitude(c)
    term = magnitude_term(c)
    assert same(c.magnitude(), want)
    assert same(Fraction(*term) if isinstance(term, tuple) else term, want)


@given(maps(), lams, st.booleans())
def test_membership_matches_the_fraction_loop(F, lam, normalized):
    for params in all_families(lam, normalized):
        assert_same_report(membership(F, params), reference_membership(F, params))


DECIMAL_F1 = make_map(1, a={(2, 1): 0.1}, b={(2, 1): 0.2})
H64, CERTIFIED64 = half_plane_map(64), random_certified_map(random.Random(0), 64)
NAMED = {
    "f1": example_F1(),
    "f2": example_F2(),
    "decimal_f1": DECIMAL_F1,
    "h8": half_plane_map(8),
    "pythagorean": make_map(2, a={(2, 1): (Fraction(3, 50), Fraction(4, 50)), (1, 2): (0, Fraction(1, 9))},
                            b={(1, 1): (Fraction(-5, 26), Fraction(12, 26)), (3, 2): Fraction(1, 40)}),
    "irrational": make_map(2, a={(2, 1): (Fraction(1, 8), Fraction(1, 8))}, b={(2, 2): (Fraction(1, 9), 1)}),
    "mixed": make_map(2, a={(2, 1): 0.1, (1, 2): Fraction(1, 7)}, b={(1, 1): (Fraction(1, 3), 0.25)}),
    # the paper-deck shapes: 64+ terms with large denominators
    "h64_product": reference_convolve(H64, CERTIFIED64),
    "h64_integral": reference_integral_convolve(H64, CERTIFIED64),
    # |3e250 + 4e250 i| = 5e250 exactly, though |c|^2 is beyond float64
    "pythagorean_beyond_float": make_map(1, a={(2, 1): (3 * 10**250, 4 * 10**250)}, b={(3, 1): Fraction(1, 7)}),
    # an exact part beyond float64 beside a float part: its magnitude and its products raise NonFiniteError
    "mixed_beyond_float": make_map(1, a={(2, 1): (10**400, 0.5)}),
    # no n >= 2 entry: row 1 is an empty exact sum, so under a float lambda exact=false comes from lambda alone
    "first_degree_only": make_map(2, a={(1, 2): Fraction(1, 7)}, b={(1, 1): Fraction(1, 3)}),
    "irrational_first_degree_only": make_map(2, a={(1, 2): (Fraction(1, 9), Fraction(1, 9))}),
    "float_b11_only": make_map(1, b={(1, 1): 0.25}),
    "irrational_b11_only": make_map(1, b={(1, 1): (Fraction(1, 3), Fraction(1, 3))}),
    # f1 but for a float b11: its distance to f1 is that b11 alone
    "f1_float_b11": make_map(1, a={(2, 1): Fraction(1, 10)}, b={(2, 1): Fraction(1, 5), (1, 1): 0.25}),
}


def assert_same_map(got, want) -> None:
    assert got.p == want.p
    for table, expected in ((got.a, want.a), (got.b, want.b)):
        assert table.keys() == expected.keys()
        for key, c in table.items():
            assert same(c.re, expected[key].re) and same(c.im, expected[key].im), key


def assert_same_value(got, want) -> None:
    assert same(got, want)


def assert_same_outcome(compute, reference, check=assert_same_value) -> None:
    """compute() agrees with reference() by ``check``, or raises the same error; a NonFiniteError names its entry."""
    try:
        want = reference()
    except (NonFiniteError, OverflowError) as e:
        with pytest.raises(type(e), match=r"^[ab]\[\d+,\d+\]: " if isinstance(e, NonFiniteError) else None):
            compute()
        return
    check(compute(), want)


@pytest.mark.parametrize("name", sorted(NAMED))
@pytest.mark.parametrize("lam", [Fraction(2, 3), Fraction(0), Fraction(1), 0.5, 2 / 3, 0.1])
def test_named_maps_match_the_fraction_loop(name, lam):
    F = NAMED[name]
    for normalized in (False, True):
        for params in all_families(lam, normalized):
            assert_same_outcome(lambda: membership(F, params), lambda: reference_membership(F, params),
                                assert_same_report)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_distances_match_the_fraction_loop(name):
    F = NAMED[name]
    for G in (F, NAMED["f1"], NAMED["decimal_f1"]):
        for x, y in ((F, G), (G, F)):
            assert_same_outcome(lambda: neighborhood_distance(x, y), lambda: reference_neighborhood_distance(x, y))


@pytest.mark.parametrize("name", sorted(set(NAMED) - {"mixed_beyond_float"}))
def test_named_products_match_the_fraction_loops(name):
    F = NAMED[name]
    for G in (F, CERTIFIED64, NAMED["decimal_f1"]):
        assert_same_map(convolve(F, G), reference_convolve(F, G))
        assert_same_map(integral_convolve(F, G), reference_integral_convolve(F, G))


def test_paper_deck_products_match_the_fraction_loops():
    assert_same_map(convolve(H64, CERTIFIED64), NAMED["h64_product"])
    assert_same_map(integral_convolve(H64, CERTIFIED64), NAMED["h64_integral"])


def test_products_beyond_float_raise():
    F = NAMED["mixed_beyond_float"]
    for product in (convolve, integral_convolve):
        with pytest.raises(NonFiniteError, match="overflows float64"):
            product(F, F)


@given(maps(), maps())
def test_neighborhood_distance_matches_the_fraction_loop(F, G):
    assert same(neighborhood_distance(F, G), reference_neighborhood_distance(F, G))
    assert same(neighborhood_distance(F, F), reference_neighborhood_distance(F, F))


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


PYTHAGOREAN_TURN = Coefficient(Fraction(3, 5), Fraction(-4, 5))


def as_floats(F):
    return make_map(F.p, a={key: (float(c.re), float(c.im)) for key, c in F.a.items()},
                    b={key: (float(c.re), float(c.im)) for key, c in F.b.items()})


@pytest.mark.parametrize("kind", ["exact", "pythagorean", "float"])
def test_layer_bound_decides_as_the_sampled_loop(kind):
    rng = random.Random(18)
    for _ in range(40):
        lam = Fraction(rng.randint(0, 20), 20)
        F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5, tight=rng.random() < 0.5)
        F = {"exact": F, "pythagorean": off_axis(F, PYTHAGOREAN_TURN), "float": as_floats(F)}[kind]
        outcomes = []
        for check in (layer_bound_check, reference_layer_bound_check):
            try:
                outcomes.append(check(F, lam))
            except NotMemberError:
                outcomes.append(NotMemberError)
        assert outcomes[0] == outcomes[1], (F, lam)
        if kind != "float":
            assert outcomes[0] is True


def test_layer_bound_of_exact_members_holds_at_zero_tolerance():
    # boundary-tight members, one of them with its only tail equal to c2 = 1/4
    rng = random.Random(7)
    members = [(extremal_point(ExtremalSpec(n=2, k=1, lam=1)), Fraction(1))]
    for _ in range(20):
        lam = Fraction(rng.randint(0, 10), 10)
        members.append((random_member(rng, rng.randint(1, 3), lam, tight=True), lam))
    for F, lam in members:
        for G in (F, off_axis(F, PYTHAGOREAN_TURN)):
            assert membership(G, hs_lambda(lam)).exact
            assert layer_bound_check(G, lam)
    with pytest.raises(NotMemberError):
        layer_bound_check(make_map(1, a={(2, 1): Fraction(1, 2)}), Fraction(1))


# --- the stored form: one reduced integer triple per exact coefficient -----------------------

numerators = st.integers(-10**12, 10**12)
denominators = st.one_of(st.integers(1, 10**6), st.sampled_from([2**e for e in range(40)]))  # dyadic: a float twin


@given(numerators, numerators, denominators, denominators, st.integers(1, 60))
def test_the_triple_is_canonical(x, y, dx, dy, m):
    """Every way of building one exact value stores one triple (x, y, d), d >= 1 and gcd 1, and reads back
    as the Fraction parts: unreduced pairs as parse_map reads them, unreduced text, ints, sums and products."""
    re, im = Fraction(x, dx), Fraction(y, dy)
    c = Coefficient(re, im)
    forms = [c, Coefficient(im=im, re=re), term_coefficient((x * m, dx * m), (y * m, dy * m)), c + ZERO, ZERO + c,
             c - ZERO, c * ONE, product_over(c, Coefficient(m, 0), m), c.scale(Fraction(m, m)),
             c.conjugate().conjugate()]
    if re.denominator == im.denominator == 1:
        forms.append(Coefficient(int(re), int(im)))
    if re or im:
        forms.append(parse_map(f"p 1\na 1 1 1 0\na 2 1 {x * m}/{dx * m} {-y * m}/{-dy * m}\n").coeff_a(2, 1))
    num_re, num_im, d = c._triple
    assert d >= 1 and math.gcd(num_re, num_im, d) == 1 and Fraction(num_re, d) == re and Fraction(num_im, d) == im
    for form in forms:
        assert form._triple == c._triple and form == c and hash(form) == hash(c)
        assert type(form.re) is type(form.im) is Fraction and form.re == re and form.im == im and form.exact
        assert repr(form) == f"Coefficient(re={re!r}, im={im!r})"
        assert str(form) == f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"  # Fraction's str is format_scalar's form
    twin = Coefficient(float(re), float(im))
    agree = float(re) == re and float(im) == im
    assert (c == twin) is (twin == c) is agree
    if agree:
        assert hash(twin) == hash(c)
        assert make_map(1, a={(2, 1): c}) == make_map(1, a={(2, 1): twin})


MIXED_TEXT = "p 1\na 1 1 1 0\na 2 1 1" + "0" * 400 + " 0.5\nb 2 1 1/3 0.25\n"


def test_a_mixed_coefficient_keeps_its_parts():
    """An exact part beside a float part stays a Fraction through the round trip and scaling, and a product
    with a float part follows the Fraction rules, as the four-product reference gives them."""
    F = parse_map(MIXED_TEXT)
    G = parse_map(serialize_map(F))
    assert G == F and serialize_map(G) == MIXED_TEXT.encode()
    for c, exact_part, float_part in ((G.coeff_a(2, 1), 10**400, 0.5), (G.coeff_b(2, 1), Fraction(1, 3), 0.25)):
        assert not c.exact and same(c.re, Fraction(exact_part)) and same(c.im, float_part)
        assert same(c.scale(Fraction(2, 7)).re, Fraction(exact_part) * Fraction(2, 7))
        assert same(c.scale(Fraction(2, 7)).im, float_part * Fraction(2, 7))
    H = make_map(1, a={(3, 1): Fraction(1, 5)}, b={(2, 1): (Fraction(2, 5), Fraction(-1, 7))})
    for x, y in ((F, H), (H, F)):
        assert_same_map(convolve(x, y), reference_convolve(x, y))
        assert_same_map(integral_convolve(x, y), reference_integral_convolve(x, y))
