"""membership on its boundary rows, where the exact pair comparisons decide the verdict.

Each map sits on a boundary of one inequality: a row-1 margin of exactly 0
(the catalog's extremal points and tight random members), or a row-2
condition equal to row2_lo or row2_hi. Every report must equal the Fraction
loop's field for field, for all three families and for exact and float lambda.
"""

import math
import random
from fractions import Fraction

import pytest

from helpers import assert_same_report, reference_membership
from phmaps import ExtremalSpec, extremal_point, hc, hs, hs_lambda, make_map, membership
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


# (name, map, family, bound): the family's row-2 condition equals its row2_lo or row2_hi.
ROW2_BOUNDARIES = [
    # hs-lambda: the first-weighted sum 1 + |b11| + sum_{k>=2} (2k-1)(|a[1,k]|+|b[1,k]|) is 1 or 2
    ("no_first_degree", make_map(2, a={(2, 1): Fraction(1, 4), (3, 2): Fraction(1, 20)}), "hs-lambda", "lo"),
    ("float_b11_rounds_to_one", make_map(1, a={(2, 1): Fraction(1, 8)}, b={(1, 1): 1e-17}), "hs-lambda", "lo"),
    ("a12_third", make_map(2, a={(1, 2): Fraction(1, 3)}), "hs-lambda", "hi"),
    ("float_a12_third", make_map(2, a={(1, 2): 1 / 3}), "hs-lambda", "hi"),
    ("b11_half_b12_sixth", make_map(2, a={(2, 1): Fraction(1, 9)}, b={(1, 1): Fraction(1, 2), (1, 2): Fraction(1, 6)}),
     "hs-lambda", "hi"),
    ("pythagorean_b11", make_map(3, a={(1, 3): (Fraction(3, 75), Fraction(4, 75))},
                                 b={(1, 1): (Fraction(-3, 10), Fraction(4, 10)), (1, 2): Fraction(1, 18)}),
     "hs-lambda", "hi"),
    # hs: |b11| + sum_{k>=2} (|a[1,k]|+|b[1,k]|) is 0 or 1
    ("identity_with_tail", make_map(1, a={(2, 1): Fraction(1, 4)}, b={(3, 1): Fraction(1, 9)}), "hs", "lo"),
    ("b11_half_a12_half", make_map(2, a={(1, 2): Fraction(1, 2)}, b={(1, 1): Fraction(1, 2)}), "hs", "hi"),
    ("float_b11_half_a12_half", make_map(2, a={(1, 2): 0.5}, b={(1, 1): 0.5}), "hs", "hi"),
    ("three_first_degree", make_map(3, a={(1, 2): Fraction(1, 4), (1, 3): Fraction(1, 2)}, b={(1, 1): Fraction(1, 4)}),
     "hs", "hi"),
]


@pytest.mark.parametrize("name, F, family, bound", ROW2_BOUNDARIES, ids=[case[0] for case in ROW2_BOUNDARIES])
def test_row2_boundaries_match_the_fraction_loop(name, F, family, bound):
    report = membership(F, hs_lambda(Fraction(1, 2)) if family == "hs-lambda" else hs())
    assert report.row2_condition == (report.row2_lo if bound == "lo" else report.row2_hi)
    assert report.row2_ok is (bound == "lo")  # [row2_lo, row2_hi) holds its lower end only
    for lam in EXACT_LAMS:
        assert_matches_the_fraction_loop(F, lam)
