import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import IRRATIONAL_TURN, off_axis, reference_rescale_convexity_certificate
from phmaps import (
    ExtremalSpec,
    NonFiniteError,
    NotMemberError,
    ParamError,
    WeightError,
    ch0_certificate,
    combine,
    convexity_radius,
    convolve,
    delta_bound,
    extremal_point,
    example_F1,
    example_F2,
    half_plane_map,
    hc,
    hs,
    hs_lambda,
    identity_map,
    integral_convolve,
    make_map,
    membership,
    neighborhood_distance,
    neighborhood_report,
    rescale,
    rescale_convexity_certificate,
)
from phmaps.sampling import (
    random_certified_map,
    random_fraction,
    random_member,
    random_perturbation,
    random_plan,
    random_simplex,
    random_valid_map,
)

H2 = make_map(1, a={(2, 1): Fraction(3, 2)}, b={(2, 1): Fraction(-1, 2)})


class TestConvolve:
    def test_figure_coefficients(self):
        out = convolve(example_F1(), H2)
        assert out == make_map(1, a={(2, 1): Fraction(3, 20)}, b={(2, 1): Fraction(-1, 10)})

    def test_identity_absorbs(self):
        assert convolve(example_F1(), identity_map()) == identity_map()

    def test_self_convolution(self):
        out = convolve(example_F1(), example_F1())
        assert out == make_map(1, a={(2, 1): Fraction(1, 100)}, b={(2, 1): Fraction(1, 25)})

    def test_commutative_associative(self, rng):
        for _ in range(25):
            F = random_valid_map(rng, p=2)
            G = random_valid_map(rng, p=2)
            H = random_valid_map(rng, p=1)
            assert convolve(F, G) == convolve(G, F)
            assert convolve(convolve(F, G), H) == convolve(F, convolve(G, H))

    def test_zero_padding_across_p(self):
        F = make_map(2, a={(2, 2): Fraction(1, 8)})
        G = make_map(1, a={(2, 1): Fraction(1, 4)})
        out = convolve(F, G)
        assert out.p == 2 and out == identity_map(2)


def test_a_product_beyond_float_raises_instead_of_holding_inf():
    # 1e200 * 1e200 is inf in float arithmetic; a map never holds it, so every result round-trips
    F = make_map(1, a={(2, 1): 1e200})
    for op in (convolve, integral_convolve):
        with pytest.raises(NonFiniteError, match=r"^a\[2,1\]: coefficient inf\+0\.0i is not finite$"):
            op(F, F)
    assert convolve(F, make_map(1, a={(2, 1): 1e-200})) == make_map(1, a={(2, 1): 1e200 * 1e-200})


def test_the_product_error_names_the_layer_major_first_overflowing_entry():
    # the product tables follow set order, which puts a[3,1] first here; the map names a[2,1]
    F = make_map(1, a={(3, 1): 1e200, (2, 1): 1e200}, b={(2, 1): 1e200})
    for op in (convolve, integral_convolve):
        with pytest.raises(NonFiniteError, match=r"^a\[2,1\]: coefficient inf\+0\.0i is not finite$"):
            op(F, F)


class TestIntegralConvolve:
    def test_figure_coefficients(self):
        out = integral_convolve(example_F1(), H2)
        assert out == make_map(1, a={(2, 1): Fraction(3, 40)}, b={(2, 1): Fraction(-1, 20)})

    def test_identity(self):
        assert integral_convolve(example_F1(), identity_map()) == identity_map()

    def test_self(self):
        out = integral_convolve(example_F1(), example_F1())
        assert out == make_map(1, a={(2, 1): Fraction(1, 200)}, b={(2, 1): Fraction(1, 50)})


class TestConvexCombine:
    def test_opposite_extremals_average_to_identity(self):
        lam = Fraction(1, 3)
        c = 1 / (2 * (1 + lam))
        plus = make_map(1, a={(2, 1): c})
        minus = make_map(1, a={(2, 1): -c})
        assert combine([(Fraction(1, 2), plus), (Fraction(1, 2), minus)]) == identity_map()

    def test_single_term(self):
        assert combine([(Fraction(1), example_F1())]) == example_F1()

    def test_self_average(self):
        F2 = example_F2()
        assert combine([(Fraction(1, 2), F2), (Fraction(1, 2), F2)]) == F2

    def test_weight_validation(self):
        with pytest.raises(WeightError):
            combine([(Fraction(1, 2), example_F1())])
        with pytest.raises(WeightError):
            combine([(Fraction(3, 2), example_F1()), (Fraction(-1, 2), example_F2())])
        with pytest.raises(WeightError):
            combine([])

    @pytest.mark.parametrize("weights", [(float("nan"), 1.0), (1.0, float("nan")), (float("nan"), Fraction(1))],
                             ids=["first", "second", "with-exact"])
    def test_a_nan_weight_is_rejected(self, weights):
        # NaN passes both t < 0 and the sum check's comparisons, and would scale every coefficient to NaN
        with pytest.raises(WeightError, match="^weight nan is not a number$"):
            combine([(weights[0], example_F1()), (weights[1], example_F2())])

    def test_float_weights_within_tolerance(self):
        out = combine([(0.5, example_F1()), (0.5, example_F1())])
        assert out.coeff_a(1, 1).re == 1  # leader renormalized exactly

    @pytest.mark.parametrize("weight, message", [
        (Fraction(1, 2), "sum of coefficients [400 digits]+0.25i and 0.05+0i overflows float64"),
        (0.5, "coefficient [401 digits]+0.5i times 0.5 overflows float64"),
    ], ids=["exact-weights", "float-weights"])
    def test_exact_part_beyond_float_meeting_a_float_is_non_finite_error(self, weight, message):
        # a[2,1] of the first map has the exact real part 10**400, the second's is the float 0.1
        mixed, decimal = make_map(1, a={(2, 1): (10**400, 0.5)}), make_map(1, a={(2, 1): (0.1, 0)})
        with pytest.raises(NonFiniteError) as e:
            combine([(weight, mixed), (weight, decimal)])
        assert str(e.value) == message

    def test_membership_closure(self, rng):
        for _ in range(40):
            p = rng.randint(1, 3)
            lam = Fraction(rng.randint(0, 20), 20)
            plan = random_plan(rng, p, normalized=False)
            members = [random_member(rng, p, lam, normalized=False, plan=plan) for _ in range(rng.randint(2, 5))]
            weights = random_simplex(rng, len(members))
            rep = membership(combine(list(zip(weights, members))), hs_lambda(lam))
            assert rep.member and rep.exact and rep.row1_margin >= 0


class TestRescale:
    def test_unit_radius_is_identity(self):
        assert rescale(example_F1(), 1) == example_F1()

    def test_degree_two_scales_linearly(self):
        F = make_map(1, a={(2, 1): Fraction(1, 4)})
        assert rescale(F, Fraction(1, 3)) == make_map(1, a={(2, 1): Fraction(1, 12)})

    def test_second_layer_first_degree_scales_quadratically(self):
        F = make_map(2, a={(1, 2): Fraction(1, 4)})
        assert rescale(F, Fraction(1, 2)) == make_map(2, a={(1, 2): Fraction(1, 16)})

    def test_composition(self, rng):
        for _ in range(25):
            F = random_valid_map(rng, p=rng.randint(1, 3))
            r = random_fraction(rng, 9, Fraction(1, 9), 1)
            s = random_fraction(rng, 9, Fraction(1, 9), 1)
            assert rescale(rescale(F, r), s) == rescale(F, r * s)

    def test_domain(self):
        with pytest.raises(ParamError):
            rescale(example_F1(), 0)
        with pytest.raises(ParamError):
            rescale(example_F1(), Fraction(3, 2))


class TestNeighborhood:
    def test_distance_to_self_is_zero(self):
        assert neighborhood_distance(example_F1(), example_F1()) == 0

    def test_single_term_weight(self):
        G = make_map(1, a={(2, 1): Fraction(1, 10)})
        assert neighborhood_distance(example_F1(), G) == Fraction(2, 5)

    def test_b11_term_is_unweighted(self):
        delta = Fraction(1, 8)
        G = make_map(1, b={(1, 1): delta / 2})
        assert neighborhood_distance(identity_map(), G) == delta / 2

    def test_metric_axioms(self, rng):
        for _ in range(25):
            F = random_valid_map(rng, p=2)
            G = random_valid_map(rng, p=2)
            H = random_valid_map(rng, p=2)
            dfg = neighborhood_distance(F, G)
            assert dfg == neighborhood_distance(G, F)
            assert dfg >= 0
            assert (dfg == 0) == ((F.a, F.b) == (G.a, G.b))
            assert neighborhood_distance(F, H) <= dfg + neighborhood_distance(G, H)

    def test_delta_bound_examples(self):
        assert delta_bound(example_F1(), Fraction(2, 3)) == Fraction(2, 5)
        assert delta_bound(identity_map(), 1) == Fraction(1, 2)

    def test_delta_bound_formula_on_synthetic_budget(self):
        eps = Fraction(1, 7)
        F = make_map(1, b={(1, 1): 1 - eps})  # first-coefficient sum = 2 - eps
        lam = Fraction(1, 2)
        assert delta_bound(F, lam) == lam / (1 + lam) * eps

    def test_delta_bound_requires_membership(self):
        bad = make_map(1, a={(2, 1): 1})
        with pytest.raises(NotMemberError):
            delta_bound(bad, Fraction(1, 2))
        with pytest.raises(ParamError):
            delta_bound(example_F1(), 0)

    def test_report(self):
        rep = neighborhood_report(example_F1(), example_F1(), Fraction(2, 3))
        assert rep.inside and rep.distance == 0 and rep.delta_bound == Fraction(2, 5)

    def test_inclusion_property(self, rng):
        for _ in range(100):
            p = rng.randint(1, 3)
            lam = Fraction(rng.randint(1, 20), 20)
            F = random_member(rng, p, lam, normalized=rng.random() < 0.5)
            G = random_perturbation(rng, F, delta_bound(F, lam))
            assert neighborhood_distance(F, G) <= delta_bound(F, lam)
            rep = membership(G, hs())
            assert rep.member and rep.exact


class TestCh0Certificate:
    def test_half_plane_truncations(self):
        assert ch0_certificate(H2)
        for N in (1, 2, 5, 16):
            assert ch0_certificate(half_plane_map(N))

    def test_violations(self):
        assert not ch0_certificate(make_map(1, a={(2, 1): 2}))
        assert not ch0_certificate(make_map(1, b={(1, 1): Fraction(1, 2)}))
        assert not ch0_certificate(make_map(2, a={(2, 2): Fraction(1, 8)}))
        assert not ch0_certificate(make_map(1, a={(2, 1): (1.5, 0.1)}))
        assert ch0_certificate(make_map(1, b={(3, 1): (0.3, 0.4)}))

    @pytest.mark.parametrize("table", ["a", "b"])
    def test_exact_part_beyond_float_names_its_entry(self, table):
        # an exact part beyond float64 beside a float part: no bare OverflowError
        F = make_map(1, **{table: {(2, 1): (10**400, 0.5)}})
        with pytest.raises(NonFiniteError, match=rf"^{table}\[2,1\]: coefficient \[401 digits\]\+0.5i overflows"):
            ch0_certificate(F)

    def test_irrational_magnitudes_compare_exactly(self):
        # |x + xi| = sqrt(2) x for x within 1e-30 of 3/(2 sqrt 2): a rounded root reads 3/2, the bound, either way
        x = Fraction(math.isqrt(9 * 10**120 // 8), 10**60)
        for offset, certified in ((Fraction(1, 10**30), False), (-Fraction(1, 10**30), True)):
            assert ch0_certificate(make_map(1, a={(2, 1): (x + offset, x + offset)})) is certified

    def test_bound_is_inclusive(self):
        # equality cases 2|A_n| = n+1, 2|B_n| = n-1 pass
        F = make_map(1, a={(3, 1): 2}, b={(3, 1): 1})
        assert ch0_certificate(F)

    def test_convolution_closure(self, rng):
        for _ in range(30):
            lam = Fraction(1, 2) + Fraction(rng.randint(0, 32), 64)
            F = random_member(rng, 1, lam, normalized=True)
            H = random_certified_map(rng)
            assert ch0_certificate(H)
            assert membership(convolve(F, H), hs(normalized=True)).member
            assert membership(integral_convolve(F, H), hc(normalized=True)).member


def certificate_outcome(certificate, F, lam, r):
    """The certificate's value, or the class of the exception it raises."""
    try:
        return certificate(F, lam, r)
    except Exception as e:
        return type(e)


@st.composite
def certificate_cases(draw):
    """An exact member of hs-lambda (tight or not, p <= 3, lambda on a 1/100 grid),
    possibly turned off-axis; a certificate lambda, mostly the member's own; and a
    radius that is convexity_radius(lambda) times j/8, j = 1..9, so j = 9 lies outside."""
    lam = Fraction(draw(st.integers(0, 100)), 100)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    F = random_member(rng, draw(st.integers(1, 3)), lam, normalized=draw(st.booleans()), tight=draw(st.booleans()))
    if draw(st.booleans()):
        F = off_axis(F, IRRATIONAL_TURN)
    if draw(st.integers(0, 4)) == 0:
        lam = Fraction(draw(st.integers(0, 100)), 100)
    r = convexity_radius(lam) * Fraction(draw(st.sampled_from((8, 8, 1, 2, 3, 4, 5, 6, 7, 9))), 8)
    return F, lam, r


class TestRescaleConvexityCertificate:
    @given(certificate_cases())
    def test_hc_membership_decides_on_exact_input(self, case):
        assert (certificate_outcome(rescale_convexity_certificate, *case)
                == certificate_outcome(reference_rescale_convexity_certificate, *case))

    def test_hc_membership_decides_on_float_input(self):
        """Float coefficients (some perturbed in the last bits), float lambda and r, fixed seeds."""
        rng = random.Random(20131)
        for _ in range(300):
            lam = Fraction(rng.randint(0, 100), 100)
            F = random_member(rng, rng.randint(1, 3), lam, normalized=rng.random() < 0.5, tight=rng.random() < 0.5)
            wobble = rng.choice((0.0, 1e-15))
            a = {key: (float(c.re) * (1 + rng.uniform(-wobble, wobble)), float(c.im)) for key, c in F.a.items()
                 if key != (1, 1)}
            F = make_map(F.p, a=a, b={key: (float(c.re), float(c.im)) for key, c in F.b.items()})
            r = convexity_radius(lam) * Fraction(rng.choice((8, 8, 1, 4, 7, 9)), 8)
            for case in ((F, lam, r), (F, float(lam), float(r))):
                assert (certificate_outcome(rescale_convexity_certificate, *case)
                        == certificate_outcome(reference_rescale_convexity_certificate, *case))

    @pytest.mark.parametrize("n, lam, r", [(2, Fraction(0), Fraction(1, 2)), (3, Fraction(1), Fraction(1))])
    def test_exact_at_a_zero_hc_margin(self, n, lam, r):
        """Tight extremal maps where every per-term bound is an equality: the hc margin is exactly 0."""
        F = extremal_point(ExtremalSpec(n=n, k=1, lam=lam))
        assert membership(rescale(F, r), hc()).row1_margin == 0
        assert rescale_convexity_certificate(F, lam, r)


TINY = Fraction(1, 3**400)  # in (0, 1), with a 191-digit denominator
MESSAGE_CASES = {
    "negative-weight": lambda: combine([(-TINY, example_F1()), (1 + TINY, example_F1())]),
    "weight-sum": lambda: combine([(1 - TINY, example_F1())]),
    "rescale-radius": lambda: rescale(example_F1(), 1 + TINY),
    "delta-bound-lambda": lambda: delta_bound(example_F1(), 1 + TINY),
    "not-a-member": lambda: delta_bound(make_map(1, a={(2, 1): 1}), TINY),
    "certificate-radius": lambda: rescale_convexity_certificate(example_F1(), Fraction(2, 3), 1 - TINY),
}


@pytest.mark.parametrize("case", MESSAGE_CASES)
def test_scalar_messages_give_digit_counts(case):
    with pytest.raises((ParamError, WeightError, NotMemberError)) as exc:
        MESSAGE_CASES[case]()
    assert "digits]" in str(exc.value) and len(str(exc.value)) < 200
