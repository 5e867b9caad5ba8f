import itertools
from fractions import Fraction

import pytest

from phmaps import (
    ClassParams,
    Coefficient,
    Family,
    InvalidMapError,
    NonFiniteError,
    ParamError,
    class_reduction_check,
    example_F1,
    example_F2,
    hc,
    hs,
    hs_lambda,
    identity_map,
    make_map,
    membership,
    parse_map,
    serialize_map,
    weight,
)
from phmaps.exact import is_exact
from phmaps.sampling import random_member, random_valid_map


class TestCoefficient:
    def test_exactness_propagates(self):
        c = Coefficient(Fraction(1, 3), Fraction(1, 2))
        d = Coefficient(Fraction(2, 3), 0)
        assert (c + d).exact and (c * d).exact
        assert not (c + Coefficient(0.5, 0)).exact

    def test_axis_magnitudes_are_exact(self):
        assert Coefficient(Fraction(-3, 7), 0).magnitude() == Fraction(3, 7)
        assert Coefficient(0, Fraction(2, 5)).magnitude() == Fraction(2, 5)

    def test_pythagorean_magnitude_stays_exact(self):
        m = Coefficient(Fraction(3, 10), Fraction(4, 10)).magnitude()
        assert m == Fraction(1, 2) and is_exact(m)

    def test_irrational_magnitude_degrades_to_float(self):
        m = Coefficient(Fraction(1, 3), Fraction(1, 3)).magnitude()
        assert isinstance(m, float)
        assert m == pytest.approx((2 / 9) ** 0.5)

    def test_complex_product(self):
        c = Coefficient(0, 1) * Coefficient(0, 1)
        assert c == Coefficient(-1, 0)

    def test_float_overflow_is_non_finite_error(self):
        for c in (Coefficient(10**400, 0), Coefficient(0, Fraction(-(10**400), 3))):
            with pytest.raises(NonFiniteError, match="overflows float64"):
                c.as_complex()
        assert Coefficient(Fraction(10**400, 10**399 + 1), 0).as_complex() == pytest.approx(10.0)

    def test_product_beyond_float_is_non_finite_error(self):
        # an exact part beyond float64 times a float part; the all-Fraction product stays exact
        c = Coefficient(10**400, 1e308)
        with pytest.raises(NonFiniteError, match=r"^product of coefficients \[401 digits\]\+1e\+308i and .* overflows float64$"):
            c * c
        assert Coefficient(10**400, 1) * Coefficient(10**400, 1) == Coefficient(10**800 - 1, 2 * 10**400)

    def test_sum_and_difference_beyond_float_are_non_finite_errors(self):
        # the exact real part 10**400 meets the float 0.1; all-Fraction sums stay exact
        big, small = Coefficient(10**400, 0.5), Coefficient(0.1, 0)
        with pytest.raises(NonFiniteError, match=r"^sum of coefficients \[401 digits\]\+0\.5i and 0\.1\+0i overflows float64$"):
            big + small
        with pytest.raises(NonFiniteError, match=r"^difference of coefficients 0\.1\+0i and \[401 digits\]\+0\.5i overflows"):
            small - big
        with pytest.raises(NonFiniteError, match=r"^coefficient \[401 digits\]\+0\.5i times 0\.5 overflows float64$"):
            big.scale(0.5)
        assert Coefficient(10**400, 1) - Coefficient(1, 1) == Coefficient(10**400 - 1, 0)


class TestMapValidation:
    def test_leading_coefficient_must_be_one(self):
        with pytest.raises(InvalidMapError):
            make_map(1, a={(1, 1): 2})

    def test_b11_magnitude_below_one(self):
        with pytest.raises(InvalidMapError):
            make_map(1, b={(1, 1): 1})
        make_map(1, b={(1, 1): Fraction(99, 100)})  # fine

    def test_layer_must_fit(self):
        with pytest.raises(InvalidMapError):
            make_map(1, a={(2, 2): Fraction(1, 8)})

    def test_indices_start_at_one(self):
        with pytest.raises(InvalidMapError):
            make_map(1, a={(0, 1): Fraction(1, 8)})

    @pytest.mark.parametrize("p, a, b, message", [
        (1.5, {}, {}, r"p must be an integer, got 1\.5"),
        (2.0, {}, {}, r"p must be an integer, got 2\.0"),
        ("1", {}, {}, r"p must be an integer, got '1'"),
        (1, {(2.5, 1): 0.1}, {}, r"a\[2\.5,1\]: indices must be integers"),
        (2, {}, {(3, 1.0): 0.1}, r"b\[3,1\.0\]: indices must be integers"),
        (1, {(1.0, 1): 1}, {}, r"a\[1\.0,1\]: indices must be integers"),
    ], ids=["p-half", "p-float", "p-str", "a-degree", "b-layer", "a11-float"])
    def test_degrees_and_layers_must_be_integers(self, p, a, b, message):
        # a non-integer degree or layer has no .phm form, no membership weight and no grid monomial
        with pytest.raises(InvalidMapError, match=f"^{message}$"):
            make_map(p, a=a, b=b)

    def test_integral_degrees_and_layers_are_stored_as_ints(self):
        np = pytest.importorskip("numpy")
        F = make_map(np.int64(2), a={(np.int64(3), np.int32(2)): Fraction(1, 8)})
        assert F == make_map(2, a={(3, 2): Fraction(1, 8)}) == parse_map(serialize_map(F))
        assert type(F.p) is int and all(type(i) is int for key in F.a for i in key)

    @pytest.mark.parametrize("a, b, message", [
        ({(2, 1): float("nan")}, {}, "a[2,1]: coefficient nan+0i is not finite"),
        ({}, {(3, 1): (0.5, float("-inf"))}, "b[3,1]: coefficient 0.5-infi is not finite"),
        ({(2, 1): complex(float("inf"), 1)}, {}, "a[2,1]: coefficient inf+1.0i is not finite"),
    ], ids=["nan", "minus-inf", "inf"])
    def test_non_finite_float_parts_are_rejected(self, a, b, message):
        with pytest.raises(NonFiniteError) as e:
            make_map(1, a=a, b=b)
        assert str(e.value) == message

    def test_numpy_float_parts_are_checked_and_stored_as_floats(self):
        np = pytest.importorskip("numpy")
        for value in (np.float64("nan"), np.float64("inf"), np.complex128(complex("inf"))):
            with pytest.raises(NonFiniteError, match=r"^a\[2,1\]: coefficient .* is not finite$"):
                make_map(1, a={(2, 1): value})
        F = make_map(1, a={(2, 1): np.float64(0.25)}, b={(2, 1): np.complex128(0.5 - 0.125j)})
        assert all(type(part) is float for part in (F.a[(2, 1)].re, F.b[(2, 1)].re, F.b[(2, 1)].im))
        assert F == make_map(1, a={(2, 1): 0.25}, b={(2, 1): (0.5, -0.125)}) == parse_map(serialize_map(F))
        assert serialize_map(F) == serialize_map(make_map(1, a={(2, 1): 0.25}, b={(2, 1): (0.5, -0.125)}))

    def test_numpy_numbers_are_taken_as_their_python_equivalents(self):
        np = pytest.importorskip("numpy")
        from phmaps import combine, rescale

        for value, python in ((np.int64(1), 1), (np.uint8(1), 1), (np.float32(0.25), 0.25), (np.float16(0.25), 0.25),
                              (np.longdouble(0.25), 0.25), (np.complex64(0.25 - 0.5j), (0.25, -0.5))):
            F = make_map(1, a={(2, 1): value}, b={(3, 1): value})
            assert F == make_map(1, a={(2, 1): python}, b={(3, 1): python}) == parse_map(serialize_map(F))
            assert {type(part) for c in (F.a[(2, 1)], F.b[(3, 1)]) for part in (c.re, c.im)} <= {Fraction, float}
        part = make_map(1, a={(2, 1): np.float32(0.25)}).a[(2, 1)].re
        assert type(part) is float and part == 0.25
        with pytest.raises(NonFiniteError, match=r"^a\[2,1\]: coefficient .* is not finite$"):
            make_map(1, a={(2, 1): np.longdouble("1e400")})
        for flag in (True, np.bool_(True)):
            with pytest.raises(TypeError):
                make_map(1, a={(2, 1): flag})
        assert hs_lambda(np.int64(1)) == hs_lambda(1)
        assert rescale(example_F1(), np.float32(0.5)) == rescale(example_F1(), 0.5)
        assert combine([(np.int64(1), example_F1())]) == example_F1()

    def test_the_layer_major_first_non_finite_entry_is_named(self):
        # however the table was built: by k, then by n, whatever the insertion order
        a = {(5, 2): float("inf"), (4, 1): float("nan"), (2, 2): float("inf"), (6, 1): 0.5, (3, 1): (1, float("inf"))}
        for order in itertools.permutations(a):
            with pytest.raises(NonFiniteError, match=r"^a\[3,1\]: coefficient 1\+infi is not finite$"):
                make_map(2, a={key: a[key] for key in order})

    def test_a_bad_index_is_named_before_a_non_finite_entry(self):
        with pytest.raises(InvalidMapError, match=r"^a\[0,1\]: indices must be >= 1$"):
            make_map(1, a={(2, 1): float("inf"), (0, 1): 1})

    def test_an_exact_part_beyond_float_stays_legal(self):
        F = make_map(1, a={(2, 1): (10**400, 0.5)})
        assert F.coeff_a(2, 1) == Coefficient(10**400, 0.5) and parse_map(serialize_map(F)) == F

    def test_zeros_are_dropped(self):
        F = make_map(2, a={(3, 1): 0, (1, 2): Fraction(1, 4)})
        assert (3, 1) not in F.a and (1, 2) in F.a

    def test_shape_properties(self):
        F = make_map(3, a={(5, 2): Fraction(1, 100)})
        assert F.max_degree == 5
        assert F.effective_p == 2

    def test_normalized_flag(self):
        assert example_F1().is_normalized
        assert not make_map(1, b={(1, 1): Fraction(1, 2)}).is_normalized
        assert not make_map(2, a={(1, 2): Fraction(1, 8)}).is_normalized


class TestWeight:
    def test_known_values(self):
        assert weight(2, 1, 0) == 2
        assert weight(2, 1, 1) == 4
        assert weight(2, 1, Fraction(2, 3)) == Fraction(10, 3)

    def test_against_expanded_form(self, rng):
        # independent oracle: 2(k-1) + lam*n^2 + (1-lam)*n
        for _ in range(200):
            n, k = rng.randint(1, 20), rng.randint(1, 6)
            lam = Fraction(rng.randint(0, 50), 50)
            assert weight(n, k, lam) == 2 * (k - 1) + lam * n * n + (1 - lam) * n

    def test_proof_inequalities_exhaustive(self):
        # scanned on the 101-point rational grid, n <= 64, k <= 8
        lams = [Fraction(i, 100) for i in range(101)]
        for lam in lams:
            floor = 2 * (1 + lam)
            for k in range(2, 9):
                if lam <= Fraction(1, 2):
                    assert floor <= 2 * k - 1
                if k >= 3:
                    assert floor <= 2 * k - 1
            for k in range(1, 9):
                for n in range(2, 65):
                    assert floor <= weight(n, k, lam)


class TestMembership:
    def test_boundary_tight_examples(self):
        r1 = membership(example_F1(), hs_lambda(Fraction(2, 3)))
        assert r1.member and r1.row1_margin == 0 and r1.exact
        r2 = membership(example_F2(), hs_lambda(Fraction(1, 100)))
        assert r2.member and r2.row1_margin == 0 and r2.exact

    def test_identity_map(self):
        for params in (hs_lambda(Fraction(1, 3)), hs(), hc()):
            rep = membership(identity_map(), params)
            assert rep.member and rep.row1_lhs == 0
            assert rep.row2_value == 1  # weighted first-coefficient sum, any family

    def test_hs_condition_quantity(self):
        F = make_map(2, a={(1, 2): Fraction(1, 8)}, b={(1, 1): Fraction(1, 4)})
        rep = membership(F, hs())
        assert rep.row2_value == 1 + Fraction(1, 4) + 3 * Fraction(1, 8)
        assert rep.row2_condition == Fraction(1, 4) + Fraction(1, 8)
        assert rep.row2_ok

    def test_exact_input_never_consults_epsilon(self, rng):
        for _ in range(50):
            F = random_valid_map(rng, p=rng.randint(1, 3))
            rep = membership(F, hs_lambda(Fraction(rng.randint(0, 10), 10)))
            assert rep.exact and not rep.used_epsilon

    def test_decimal_input_downgrades_report(self):
        F = make_map(1, a={(2, 1): 0.1}, b={(2, 1): Fraction(1, 5)})
        rep = membership(F, hs_lambda(Fraction(2, 3)))
        # row-1 slot is approximate; the strict row-2 comparison stayed exact
        assert not rep.exact and not rep.used_epsilon
        G = make_map(1, a={(2, 1): Fraction(1, 10)}, b={(1, 1): 0.3})
        rep = membership(G, hs_lambda(Fraction(2, 3)))
        assert not rep.exact and rep.used_epsilon

    def test_offaxis_irrational_magnitude_downgrades(self):
        F = make_map(1, a={(2, 1): (Fraction(1, 8), Fraction(1, 8))})
        rep = membership(F, hs())
        assert not rep.exact

    def test_normalized_requirement(self):
        F = make_map(1, b={(1, 1): Fraction(1, 4)})
        assert membership(F, hs()).member
        assert not membership(F, hs(normalized=True)).member

    def test_row2_upper_bound_is_strict(self):
        # b11 + 3*(1/3) pushes the first-coefficient sum to exactly 2
        F = make_map(2, a={(1, 2): Fraction(1, 3)})
        rep = membership(F, hs_lambda(Fraction(1, 2)))
        assert rep.row2_value == 2 and not rep.row2_ok and not rep.member

    def test_row1_lhs_monotone_in_lambda(self, rng):
        lams = [Fraction(i, 20) for i in range(21)]
        for _ in range(30):
            F = random_valid_map(rng, p=rng.randint(1, 3))
            vals = [membership(F, hs_lambda(lam)).row1_lhs for lam in lams]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_member_at_lambda_1_is_member_everywhere(self, rng):
        for _ in range(30):
            F = random_member(rng, p=rng.randint(1, 3), lam=Fraction(1), normalized=False)
            for lam in (Fraction(0), Fraction(1, 3), Fraction(1)):
                rep = membership(F, hs_lambda(lam))
                assert rep.member and rep.row1_margin >= 0

    def test_row2_lower_bound_is_automatic(self, rng):
        # a[1,1] = 1 alone forces the first-coefficient sum >= 1
        for _ in range(100):
            F = random_valid_map(rng, p=rng.randint(1, 4))
            assert membership(F, hs_lambda(Fraction(1, 2))).row2_value >= 1


class TestClassParams:
    @pytest.mark.parametrize("family, lam, message", [(Family.HS, Fraction(1, 2), "class hs fixes lambda = 0, got 1/2"),
                                                      (Family.HS, 1, "class hs fixes lambda = 0, got 1"),
                                                      (Family.HC, 0, "class hc fixes lambda = 1, got 0")],
                             ids=["hs-1/2", "hs-1", "hc-0"])
    def test_hs_and_hc_fix_lambda(self, family, lam, message):
        with pytest.raises(ParamError) as info:
            ClassParams(family, lam)
        assert str(info.value) == message

    def test_fixed_lambda_is_accepted(self):
        assert ClassParams(Family.HS) == hs() and ClassParams(Family.HC, 1) == hc()
        assert membership(example_F1(), hc()).to_kv().splitlines()[1] == "lambda=1"

    def test_hs_and_hc_are_built_once(self):
        assert hs() is hs() and hc(True) is hc(normalized=True) and hs() is not hs(True)
        assert hc(True) == ClassParams(Family.HC, 1, True) and hs(True) == ClassParams(Family.HS, 0, True)
        assert hs().normalized is False and hc(True).normalized is True


class TestClassReduction:
    def test_catalog_and_simple_maps(self):
        assert class_reduction_check(example_F1())
        assert class_reduction_check(identity_map())
        assert class_reduction_check(make_map(1, b={(1, 1): Fraction(1, 2)}))

    def test_random_maps(self, rng):
        for _ in range(100):
            F = random_valid_map(rng, p=rng.randint(1, 4), max_degree=10)
            assert class_reduction_check(F)
