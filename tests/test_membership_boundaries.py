"""membership on its boundary rows, where the exact pair comparisons decide the verdict.

Each map sits on a boundary of one inequality: a row-1 margin of exactly 0
(the catalog's extremal points and tight random members), or a first-weighted
sum, which row 2 tests, equal to row2_lo = 1 or row2_hi = 2. Every report must
equal the Fraction loop's field for field, for all three families and for exact
and float lambda. hs and hc must equal hs-lambda at the lambda each fixes in
every field but params, bit for bit.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import KINDS, assert_same_report, coefficients, maps, reference_membership, same
from phmaps import (Coefficient, ExtremalSpec, MembershipReport, PolyharmonicMap, class_reduction_check,
                    extremal_point, hc, hs, hs_lambda, make_map, membership)
from phmaps.sampling import random_member

EXACT_LAMS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


def assert_matches_the_fraction_loop(F, lam):
    """membership(F, ·) equals the reference for every family, normalized or not, at lam and float(lam)."""
    for lam_value in (lam, float(lam)):
        for normalized in (False, True):
            for params in (hs_lambda(lam_value, normalized), hs(normalized), hc(normalized)):
                assert_same_report(membership(F, params), reference_membership(F, params))


SPECS = [ExtremalSpec(n, k, lam, kind, phase) for n in (2, 3, 5) for k in (1, 2, 3) for lam in EXACT_LAMS
         for kind in ("analytic", "antianalytic") for phase in (0.0, math.pi / 2)]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_extremal_points_sit_on_the_row1_boundary(spec):
    F = extremal_point(spec, p=3)
    report = membership(F, hs_lambda(spec.lam))
    assert report.exact and report.member and report.row1_margin == 0
    assert_matches_the_fraction_loop(F, spec.lam)


@pytest.mark.parametrize("seed", range(12))
def test_tight_members_sit_on_the_row1_boundary(seed):
    rng = random.Random(seed)
    for _ in range(5):
        lam = Fraction(rng.randint(0, 12), 12)
        F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5, tight=True)
        report = membership(F, hs_lambda(lam))
        if any(n >= 2 for n, _ in {*F.a, *F.b}):
            assert report.row1_margin == 0  # a tight member with a row-1 entry spends its whole budget
        assert report.exact and report.member
        assert_matches_the_fraction_loop(F, lam)


# (name, map, bound): the first-weighted sum 1 + |b11| + sum_{k>=2} (2k-1)(|a[1,k]|+|b[1,k]|),
# which row 2 tests for every family, equals row2_lo = 1 or row2_hi = 2. At row2_hi with no n >= 2
# entry (a12_third and float_b11_quarter_a12_quarter, the corpus maps first_row_tight and
# float_first_row_tight) row 1 holds with margin 0, so row 2 alone rejects the map, in every family.
ROW2_BOUNDARIES = [
    ("no_first_degree", make_map(2, a={(2, 1): Fraction(1, 4), (3, 2): Fraction(1, 20)}), "lo"),
    ("float_b11_rounds_to_one", make_map(1, a={(2, 1): Fraction(1, 8)}, b={(1, 1): 1e-17}), "lo"),
    ("identity_with_tail", make_map(1, a={(2, 1): Fraction(1, 4)}, b={(3, 1): Fraction(1, 9)}), "lo"),
    ("a12_third", make_map(2, a={(1, 2): Fraction(1, 3)}), "hi"),
    ("float_a12_third", make_map(2, a={(1, 2): 1 / 3}), "hi"),
    ("b11_half_b12_sixth", make_map(2, a={(2, 1): Fraction(1, 9)}, b={(1, 1): Fraction(1, 2), (1, 2): Fraction(1, 6)}),
     "hi"),
    ("pythagorean_b11", make_map(3, a={(1, 3): (Fraction(3, 75), Fraction(4, 75))},
                                 b={(1, 1): (Fraction(-3, 10), Fraction(4, 10)), (1, 2): Fraction(1, 18)}), "hi"),
    ("b11_half_a12_sixth", make_map(2, a={(1, 2): Fraction(1, 6)}, b={(1, 1): Fraction(1, 2)}), "hi"),
    ("float_b11_quarter_a12_quarter", make_map(2, a={(1, 2): 0.25}, b={(1, 1): 0.25}), "hi"),
    ("a12_sixth_a13_tenth", make_map(3, a={(1, 2): Fraction(1, 6), (1, 3): Fraction(1, 10)}), "hi"),
]


@pytest.mark.parametrize("name, F, bound", ROW2_BOUNDARIES, ids=[case[0] for case in ROW2_BOUNDARIES])
def test_row2_boundaries_match_the_fraction_loop(name, F, bound):
    for params in (hs_lambda(Fraction(1, 2)), hs(), hc()):
        report = membership(F, params)
        assert report.row2_condition == (report.row2_lo if bound == "lo" else report.row2_hi)
        assert report.row2_ok is (bound == "lo")  # [row2_lo, row2_hi) holds its lower end only
    assert class_reduction_check(F)
    for lam in EXACT_LAMS:
        assert_matches_the_fraction_loop(F, lam)


@st.composite
def first_row_maps(draw):
    """A map of one to three layers with a b11 entry and, past one layer, a[1,k] and b[1,k]
    entries, all of one kind: decimal ones make every row sum a float."""
    entry = coefficients(draw(st.sampled_from(KINDS)))
    p = draw(st.integers(1, 3))
    first = (st.dictionaries(st.tuples(st.just(1), st.integers(2, p)), entry, min_size=1, max_size=p - 1)
             if p > 1 else st.just({}))
    rest = st.dictionaries(st.tuples(st.integers(2, 4), st.integers(1, p)), entry, max_size=4)
    b11 = draw(entry)
    a = {(1, 1): Coefficient(1, 0), **draw(first), **draw(rest)}
    return PolyharmonicMap(p, a, {**draw(first), **draw(rest), (1, 1): Coefficient(b11.re / 2, b11.im / 2)})


@given(st.one_of(maps(), first_row_maps()), st.booleans())
def test_hs_and_hc_are_hs_lambda_at_their_lambda(F, normalized):
    for params in (hs(normalized), hc(normalized)):
        want, got = membership(F, hs_lambda(params.lam, normalized)), membership(F, params)
        for name in (*MembershipReport._fields, "row1_margin"):
            if name != "params":
                assert same(getattr(got, name), getattr(want, name)), name
    assert class_reduction_check(F)


@given(st.one_of(maps(), first_row_maps()),
       st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=30), st.floats(min_value=0, max_value=1)))
def test_row2_condition_never_falls_below_row2_lo(F, lam):
    """membership tests only row 2's upper bound, since a11 = 1 and magnitudes >= 0 keep the lower one."""
    for params in (hs_lambda(lam), hs(), hc()):
        report = membership(F, params)
        assert report.row2_condition >= report.row2_lo


def test_float_row1_tight_is_decided_alike_by_hs_and_hs_lambda_0():
    """Decimal coefficients on the lambda = 0 row-1 boundary: two right sides that round apart would split them."""
    F = make_map(2, a={(2, 1): 0.19999999999999996, (1, 2): 0.1}, b={(1, 1): 0.3})
    report = membership(F, hs())
    assert report.row1_margin == 0.0 and report.member and not report.exact
    assert class_reduction_check(F)

