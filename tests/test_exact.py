"""Exact scalar, polynomial and rational-function arithmetic."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fubini.apostol import apostol_bernoulli
from fubini.exact import (
    BiPoly,
    Poly,
    RatFunc,
    format_rational,
    homogeneous_compose,
    parse_rational,
    poly_str,
    ratfunc_str,
)
from fubini.registry import SAMPLE_GRID
from oracles import (
    bipoly_eval_ref,
    bipoly_outer_ref,
    bipoly_substitute_ref,
    bipoly_substitute_x_ref,
    bipoly_substitute_y_ref,
    bipoly_trimmed_ref,
    poly_add_ref,
    poly_antiderivative_ref,
    poly_compose_ref,
    poly_derivative_ref,
    poly_eval_ref,
    poly_gcd_euclid,
    poly_integrate_ref,
    poly_mul_ref,
    poly_pow_ref,
    ratfunc_canonical_ref,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000)
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
# Integers and non-integers mixed, so both the denominator-1 paths and the
# common-denominator paths of the integer storage are exercised.
mixed_scalars = st.one_of(st.integers(min_value=-50, max_value=50), small_rationals)


def mixed_lists(max_degree=5):
    return st.lists(mixed_scalars, max_size=max_degree + 1)


def mixed_grids(max_rows=3, max_cols=3):
    return st.lists(st.lists(mixed_scalars, max_size=max_cols), max_size=max_rows)


def small_polys(max_degree=6):
    return st.lists(small_rationals, max_size=max_degree + 1).map(Poly)


X_MINUS_1 = Poly([-1, 1])


def pole_orders(max_order=8):
    return st.integers(min_value=0, max_value=max_order)


def powers_of_x_minus_1(max_order=8):
    return pole_orders(max_order).map(lambda j: X_MINUS_1**j)


def roots_at_one(max_degree=4, max_order=8):
    """p * (x-1)^j: numerators with a root of any order up to max_order at 1."""
    return st.builds(lambda p, q: p * q, small_polys(max_degree), powers_of_x_minus_1(max_order))


def ratfuncs(max_order=4):
    return st.builds(
        lambda num, k: RatFunc(num, order=k), roots_at_one(3, max_order), pole_orders(max_order)
    )


class TestRationalText:
    def test_parse_plain_integers(self):
        assert parse_rational("13") == 13
        assert parse_rational("-4") == -4
        assert parse_rational("+7") == 7

    def test_parse_fractions(self):
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("10/4") == Fraction(5, 2)

    @pytest.mark.parametrize("bad", ["", "1.5", "3/-7", "1/0", " 1", "a", "1/2/3"])
    def test_rejects_non_literals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_roundtrip(self):
        assert format_rational(Fraction(-3, 7)) == "-3/7"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(5) == "5"

    @given(rationals)
    def test_roundtrip_is_identity(self, q):
        assert parse_rational(format_rational(q)) == q


class TestRationalArithmetic:
    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)


class TestPoly:
    def test_canonical_zero_is_empty(self):
        assert Poly([0, 0, 0]).coeffs == ()
        assert Poly().degree == -1
        assert Poly([1, 2, 0]).coeffs == (1, 2)

    def test_eval_zero_poly(self):
        assert Poly()(Fraction(5, 3)) == 0

    def test_eval_frozen_examples(self):
        assert Poly([0, 1, 2])(1) == 3  # matches the 2-element ordered-partition count
        assert Poly([0, 1, 2])(Fraction(-1, 2)) == 0

    def test_integrate_examples(self):
        assert Poly([1]).integrate(-1, 0) == 1
        assert Poly([0, 1, 2]).integrate(-1, 0) == Fraction(1, 6)
        assert Poly([0, 0, 0, 1]).integrate(-1, 0) == Fraction(-1, 4)

    def test_equality_after_expansion(self):
        assert Poly([0, 1]) * Poly([1, 2]) == Poly([0, 1, 2])

    def test_pow_and_compose(self):
        assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
        assert Poly([0, 0, 1]).compose(Poly([1, 1])) == Poly([1, 2, 1])

    def test_derivative_antiderivative(self):
        p = Poly([3, 0, 5])
        assert p.antiderivative().derivative() == p

    @given(small_polys(), small_polys(), small_rationals)
    def test_eval_is_ring_homomorphism(self, p, q, y):
        assert (p * q)(y) == p(y) * q(y)
        assert (p + q)(y) == p(y) + q(y)

    @given(small_polys(), small_rationals, small_rationals, small_rationals)
    def test_integral_additive_over_intervals(self, p, a, b, c):
        assert p.integrate(a, b) + p.integrate(b, c) == p.integrate(a, c)

    def test_str_rendering(self):
        assert poly_str(Poly([0, 1, 2]), "y") == "2y^2 + y"
        assert poly_str(Poly(), "y") == "0"
        assert poly_str(Poly([Fraction(-1, 2), 0, 1]), "t") == "t^2 - 1/2"


class TestBiPoly:
    def test_trimming(self):
        assert BiPoly([[0, 0], [0, 0]]).is_zero()
        assert BiPoly([[1, 0], [0, 0]]).rows == ((Fraction(1),),)

    def test_eval_linear(self):
        p = BiPoly([[0, 1], [1]])  # x + y
        assert p(1, Fraction(3, 7)) == Fraction(10, 7)

    def test_substitute_x_matches_eval(self):
        p = BiPoly([[1, 2], [0, 3], [4]])
        fixed = p.substitute_x(Fraction(2, 3))
        assert fixed(Fraction(5)) == p(Fraction(2, 3), Fraction(5))

    def test_substitute_y_matches_eval(self):
        p = BiPoly([[1, 2], [0, 3], [4]])
        fixed = p.substitute_y(Fraction(-1, 2))
        assert fixed(Fraction(3)) == p(Fraction(3), Fraction(-1, 2))

    def test_affine_substitution(self):
        p = BiPoly([[0, 1], [1]])  # x + y
        q = p.substitute(Poly([1, 1]), Poly([0, -1]))  # x -> x+1, y -> -y
        assert q == BiPoly([[1, -1], [1]])

    @given(small_rationals, small_rationals)
    def test_product_evaluates_pointwise(self, x, y):
        a = BiPoly([[1, 1], [2]])
        b = BiPoly([[0, 3], [1, 0], [5]])
        assert (a * b)(x, y) == a(x, y) * b(x, y)


def assert_canonical_poly(p):
    nums, den = p.numerators, p.denominator
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    assert type(den) is int and den > 0
    if not nums:
        assert den == 1
    else:
        assert nums[-1] != 0
        assert math.gcd(den, *nums) == 1
    assert type(p.coeffs) is tuple and all(type(c) is Fraction for c in p.coeffs)


def assert_canonical_bipoly(b):
    grid, den = b.numerators, b.denominator
    assert type(grid) is tuple and all(type(row) is tuple for row in grid)
    assert type(den) is int and den > 0
    if not grid:
        assert den == 1
    else:
        width = len(grid[0])
        assert width > 0 and all(len(row) == width for row in grid)
        assert all(type(c) is int for row in grid for c in row)
        assert any(grid[-1]) and any(row[-1] for row in grid)
        assert math.gcd(den, *(c for row in grid for c in row)) == 1
    assert type(b.rows) is tuple
    assert all(type(row) is tuple and all(type(c) is Fraction for c in row) for row in b.rows)


class TestIntegerStorage:
    """Poly and BiPoly keep integer numerators over one denominator; every
    operation must agree with schoolbook Fraction arithmetic and leave a
    canonical form."""

    @given(mixed_lists(), mixed_lists(), mixed_scalars)
    def test_ring_operations_match_reference(self, a, b, c):
        p, q = Poly(a), Poly(b)
        negated_b = [-Fraction(x) for x in b]
        cases = [
            (p, poly_add_ref(a, [])),
            (p + q, poly_add_ref(a, b)),
            (p - q, poly_add_ref(a, negated_b)),
            (-q, poly_add_ref(negated_b, [])),
            (p * q, poly_mul_ref(a, b)),
            (p * c, poly_mul_ref(a, [c])),
            (c * p, poly_mul_ref(a, [c])),
            (p + c, poly_add_ref(a, [c])),
            (c - p, poly_add_ref([c], [-Fraction(x) for x in a])),
            (p**0, (Fraction(1),)),
            (p**3, poly_pow_ref(a, 3)),
        ]
        for value, expected in cases:
            assert_canonical_poly(value)
            assert value.coeffs == expected

    @given(mixed_lists(8), mixed_scalars)
    def test_horner_matches_reference(self, a, x):
        value = Poly(a)(x)
        assert type(value) is Fraction
        assert value == poly_eval_ref(a, x)

    @given(mixed_lists(), mixed_scalars, mixed_scalars)
    def test_calculus_matches_reference(self, a, lo, hi):
        p = Poly(a)
        for value, expected in (
            (p.derivative(), poly_derivative_ref(a)),
            (p.antiderivative(), poly_antiderivative_ref(a)),
        ):
            assert_canonical_poly(value)
            assert value.coeffs == expected
        assert p.integrate(lo, hi) == poly_integrate_ref(a, lo, hi)

    @given(mixed_lists(4), mixed_lists(3))
    def test_compose_matches_reference(self, a, b):
        composed = Poly(a).compose(Poly(b))
        assert_canonical_poly(composed)
        assert composed.coeffs == poly_compose_ref(a, b)

    @given(mixed_lists(4), mixed_lists(3), mixed_lists(3), mixed_scalars)
    def test_homogeneous_compose_matches_substitution(self, a, b, c, x):
        p, num, den = Poly(a), Poly(b), Poly(c)
        composed = homogeneous_compose(p, num, den)
        assert_canonical_poly(composed)
        d = p.degree
        if d < 0:
            assert composed.is_zero()
        elif den(x) != 0:
            assert composed(x) == p(num(x) / den(x)) * den(x) ** d
        else:
            # Where den vanishes only the top term c_d num^d survives.
            assert composed(x) == p.leading_coefficient() * num(x) ** d

    def test_homogeneous_compose_at_a_zero_of_the_denominator(self):
        p = Poly([Fraction(1, 3), -2, Fraction(5, 2)])
        num = Poly([1, Fraction(1, 2)])
        den = Poly([Fraction(-1, 3), Fraction(2, 3)])  # zero at 1/2
        composed = homogeneous_compose(p, num, den)
        half = Fraction(1, 2)
        assert composed(half) == Fraction(5, 2) * num(half) ** 2
        for x in (Fraction(0), Fraction(3), Fraction(-2, 7)):
            assert composed(x) == p(num(x) / den(x)) * den(x) ** 2

    @given(mixed_grids(), mixed_lists(3), mixed_lists(3))
    def test_bipoly_construction_and_outer_match_reference(self, grid, px, py):
        b = BiPoly(grid)
        assert_canonical_bipoly(b)
        assert b.rows == bipoly_trimmed_ref(grid)
        outer = BiPoly.outer(Poly(px), Poly(py))
        assert_canonical_bipoly(outer)
        assert outer.rows == bipoly_outer_ref(px, py)

    @given(mixed_grids(), mixed_grids(), mixed_scalars, mixed_scalars)
    def test_bipoly_evaluation_matches_reference(self, g, h, x, y):
        a, b = BiPoly(g), BiPoly(h)
        value = a(x, y)
        assert type(value) is Fraction
        assert value == bipoly_eval_ref(g, x, y)
        for combined, expected in (
            (a + b, value + bipoly_eval_ref(h, x, y)),
            (a - b, value - bipoly_eval_ref(h, x, y)),
            (a * b, value * bipoly_eval_ref(h, x, y)),
            (a * x, value * x),
        ):
            assert_canonical_bipoly(combined)
            assert combined(x, y) == expected

    @given(mixed_grids(), mixed_scalars, mixed_lists(2), mixed_lists(2))
    def test_bipoly_substitution_matches_reference(self, grid, t, x_image, y_image):
        b = BiPoly(grid)
        fixed_x, fixed_y = b.substitute_x(t), b.substitute_y(t)
        substituted = b.substitute(Poly(x_image), Poly(y_image))
        assert_canonical_poly(fixed_x)
        assert_canonical_poly(fixed_y)
        assert_canonical_bipoly(substituted)
        assert fixed_x.coeffs == bipoly_substitute_x_ref(grid, t)
        assert fixed_y.coeffs == bipoly_substitute_y_ref(grid, t)
        assert substituted.rows == bipoly_substitute_ref(grid, x_image, y_image)

    def test_zero_is_stored_as_empty_over_one(self):
        p = Poly([1, Fraction(1, 3)])
        for zero in (Poly(), Poly([0, Fraction(0)]), p - p, p * Poly(), Poly().derivative()):
            assert (zero.numerators, zero.denominator) == ((), 1)
        for zero in (BiPoly(), BiPoly([[0], [0, Fraction(0)]]), BiPoly.outer(p, Poly())):
            assert (zero.numerators, zero.denominator) == ((), 1)

    def test_storage_examples(self):
        p = Poly([Fraction(1, 2), 0, Fraction(-1, 3)])
        assert (p.numerators, p.denominator) == ((3, 0, -2), 6)
        assert (p * 6).numerators == (3, 0, -2) and (p * 6).denominator == 1
        b = BiPoly([[Fraction(1, 2)], [0, Fraction(1, 4)]])
        assert (b.numerators, b.denominator) == (((2, 0), (0, 1)), 4)

    def test_equal_values_are_equal_and_hash_equal(self):
        a, b = Poly([2, 4]), Poly([Fraction(4, 2), Fraction(8, 2)])
        assert a == b and hash(a) == hash(b)
        c = Poly([Fraction(1, 2), 1]) * 4
        assert c == a and hash(c) == hash(a)
        g, h = BiPoly([[2, 4]]), BiPoly([[Fraction(4, 2), Fraction(8, 2)], [0]])
        assert g == h and hash(g) == hash(h)

    @given(mixed_lists(), mixed_lists())
    def test_equal_values_from_different_routes_hash_equal(self, a, b):
        p, q = Poly(a), Poly(b)
        assert Poly([Fraction(c) for c in a]) == p
        assert hash(Poly([Fraction(c) for c in a])) == hash(p)
        assert (p + q) - q == p and hash((p + q) - q) == hash(p)
        assert hash(p * q) == hash(q * p)

    @given(mixed_lists(), pole_orders(3), mixed_grids())
    def test_values_survive_pickle_and_copy(self, a, k, grid):
        originals = (Poly(a), RatFunc(Poly(a), order=k), BiPoly(grid))
        for value in originals:
            for clone in (
                pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)
            ):
                assert type(clone) is type(value)
                assert clone == value and hash(clone) == hash(value)
                if isinstance(value, RatFunc):
                    assert clone.order == value.order
                    pairs = ((clone.num, value.num), (clone.den, value.den))
                else:
                    pairs = ((clone, value),)
                for c, v in pairs:
                    assert (c.numerators, c.denominator) == (v.numerators, v.denominator)
                    if isinstance(c, Poly):
                        assert_canonical_poly(c)
                    else:
                        assert_canonical_bipoly(c)

    def test_inexact_scalars_are_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])
        with pytest.raises(TypeError):
            BiPoly([[0.5]])
        with pytest.raises(TypeError):
            Poly([1, 2])(0.5)
        with pytest.raises(TypeError):
            Poly([1, 2]).integrate(0, 0.5)
        with pytest.raises(TypeError):
            Poly([1, 2]) * 0.5
        with pytest.raises(TypeError):
            BiPoly([[1, 2]])(0.5, 1)


class TestRatFunc:
    def test_normalize_common_factor(self):
        # (2l - 2) / (l - 1)^2 reduces to 2 / (l - 1)
        f = RatFunc(Poly([-2, 2]), order=2)
        assert (f.num, f.order) == (Poly([2]), 1)
        assert f.den == X_MINUS_1
        # (l^2 - 1) / (l - 1)^2 reduces to (l + 1) / (l - 1)
        f = RatFunc(Poly([-1, 0, 1]), order=2)
        assert (f.num, f.den) == (Poly([1, 1]), X_MINUS_1)

    def test_numerator_of_higher_order_gives_a_polynomial(self):
        f = RatFunc(Poly([1, Fraction(1, 3)]) * X_MINUS_1**5, order=2)
        assert f.is_polynomial()
        assert (f.num, f.order) == (Poly([1, Fraction(1, 3)]) * X_MINUS_1**3, 0)
        assert f.den == Poly([1])

    def test_already_canonical_unchanged(self):
        f = RatFunc(Poly([1]), order=1)
        assert f.num == Poly([1])
        assert f.den == X_MINUS_1

    def test_numerator_must_be_a_poly(self):
        with pytest.raises(TypeError):
            RatFunc([1], order=1)
        with pytest.raises(TypeError):
            RatFunc(1)

    @pytest.mark.parametrize("order", [-1, 1.0, True, Fraction(1), "1", None])
    def test_order_must_be_a_non_negative_int(self, order):
        with pytest.raises(ValueError, match="pole order"):
            RatFunc(Poly([1]), order=order)

    def test_order_is_keyword_only(self):
        # The benchmark tracer's RatFunc.__init__ hook reads a positional
        # third argument as a denominator Poly, so the order is never one.
        with pytest.raises(TypeError):
            RatFunc(Poly([1]), 1)
        with pytest.raises(TypeError):
            RatFunc(Poly([1]), X_MINUS_1)

    @given(roots_at_one(), pole_orders())
    def test_canonical_form_matches_euclid_over_q(self, num, k):
        f = RatFunc(num, order=k)
        assert_canonical_poly(f.num)
        assert_canonical_poly(f.den)
        den = (X_MINUS_1**k).coeffs
        assert (f.num.coeffs, f.den.coeffs) == ratfunc_canonical_ref(num.coeffs, den)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Poly(), X_MINUS_1**3),
            (Poly([Fraction(-5, 2)]), Poly([1])),
            (Poly([7]), X_MINUS_1),
            (Poly([1, 0, -1]), X_MINUS_1),
            (Poly([-2, 2]) ** 3, X_MINUS_1**2),
            (Poly([0, Fraction(-4, 9), Fraction(2, 3)]) * X_MINUS_1**8, X_MINUS_1**8),
            (X_MINUS_1**8, X_MINUS_1**5),
        ],
    )
    def test_edge_cases_match_euclid(self, a, b):
        # b is the reference denominator (x-1)^k, so k is its degree.
        f = RatFunc(a, order=b.degree)
        assert (f.num.coeffs, f.den.coeffs) == ratfunc_canonical_ref(a.coeffs, b.coeffs)

    @given(roots_at_one(), pole_orders())
    def test_canonical_form_is_monic_and_coprime(self, num, k):
        f = RatFunc(num, order=k)
        assert f.den == X_MINUS_1**f.order
        assert poly_gcd_euclid(f.num.coeffs, f.den.coeffs) == (1,)
        assert f.is_polynomial() or f.num(1) != 0

    @given(roots_at_one(), pole_orders())
    def test_normalize_idempotent(self, num, k):
        f = RatFunc(num, order=k)
        again = RatFunc(f.num, order=f.order)
        assert again == f

    @given(roots_at_one(3), pole_orders(), pole_orders())
    def test_common_factor_cancels(self, a, k, j):
        assert RatFunc(a * X_MINUS_1**j, order=k + j) == RatFunc(a, order=k)

    def test_arithmetic_and_eval(self):
        f = RatFunc(Poly([1]), order=1)
        g = f + f
        assert g(3) == 1
        assert (f * f - f)(3) == Fraction(-1, 4)
        assert f * X_MINUS_1 == 1
        assert (1 - f)(Fraction(1, 2)) == 3
        with pytest.raises(ZeroDivisionError):
            f(1)

    @given(ratfuncs(), ratfuncs(), small_rationals, small_rationals)
    def test_arithmetic_is_pointwise(self, f, g, c, x):
        if x == 1:
            return
        fx, gx = f(x), g(x)
        for value, expected in (
            (f + g, fx + gx),
            (f - g, fx - gx),
            (f * g, fx * gx),
            (-f, -fx),
            (f**2, fx**2),
            (f + c, fx + c),
            (c * f, c * fx),
        ):
            assert value(x) == expected
            assert value.is_polynomial() or value.num(1) != 0

    @given(ratfuncs(), ratfuncs())
    def test_sum_matches_the_cross_multiplied_form(self, f, g):
        # The sum is built over the larger pole order, not over the
        # product of the denominators.
        expected = RatFunc(f.num * g.den + g.num * f.den, order=f.order + g.order)
        assert f + g == expected

    def test_pow(self):
        f = RatFunc(Poly([1]), order=1)
        assert (f**2).order == 2
        assert (f**2).den == Poly([1, -2, 1])
        assert (f**0) == 1

    def test_compose_poly_rational(self):
        # substitute l/(1-l) into y^2 + y: l(1-l) + l^2 = l over (1-l)^2
        composed = homogeneous_compose(Poly([0, 1, 1]), Poly([0, 1]), Poly([1, -1]))
        assert composed == Poly([0, 1])
        assert RatFunc(composed, order=2) == RatFunc(Poly([0, 1]), order=2)

    def test_equality_is_structural_on_canonical_form(self):
        a = RatFunc(Poly([-2, 2]) * Fraction(1, 2), order=2)
        b = RatFunc(Poly([1]), order=1)
        assert a == b and hash(a) == hash(b)
        assert RatFunc(Poly([1]), order=2) != b

    def test_repr_shows_the_order(self):
        assert repr(RatFunc(Poly([0, -2]), order=2)) == "RatFunc(Poly(['0', '-2']), order=2)"

    def test_str_writes_the_denominator_as_a_power_of_var_minus_1(self):
        assert ratfunc_str(RatFunc(Poly([0, -2]), order=2), "λ") == "(-2λ)/(λ-1)^2"
        assert ratfunc_str(RatFunc(Poly([1]), order=1), "λ") == "(1)/(λ-1)"
        assert ratfunc_str(RatFunc(Poly([1, 1]) * X_MINUS_1), "λ") == "λ^2 - 1"


# RatFunc.__call__ evaluates num(p/q) q^k / (p-q)^k in one pass; these pin it
# to num(x) / den(x) with (x-1)^k evaluated as a polynomial.
EVAL_POINTS = [x for x in SAMPLE_GRID if x != 1]
EVAL_CASES = {
    **{f"apostol_{n}": apostol_bernoulli(n) for n in range(21)},
    "pole_free": RatFunc(Poly([Fraction(1, 3), -2, 0, Fraction(5, 7)])),
    "zero": RatFunc.zero(),
}


class TestRatFuncEvaluation:
    @pytest.mark.parametrize("name", sorted(EVAL_CASES))
    def test_value_on_the_sample_grid_is_num_over_den(self, name):
        f = EVAL_CASES[name]
        for x in EVAL_POINTS:
            assert f(x) == f.num(x) / f.den(x), x

    @given(st.sampled_from(sorted(EVAL_CASES)), rationals.filter(lambda x: x != 1))
    def test_value_at_any_rational_is_num_over_den(self, name, x):
        f = EVAL_CASES[name]
        assert f(x) == f.num(x) / f.den(x)

    @given(ratfuncs(), small_rationals.filter(lambda x: x != 1))
    def test_any_canonical_form_is_num_over_den(self, f, x):
        assert f(x) == f.num(x) / f.den(x)

    @pytest.mark.parametrize("point", [1, Fraction(1)])
    def test_pole_at_one(self, point):
        for n in range(1, 21):
            with pytest.raises(ZeroDivisionError, match=r"^pole at 1$"):
                apostol_bernoulli(n)(point)

    def test_no_pole_without_a_denominator(self):
        assert EVAL_CASES["zero"](1) == 0
        pole_free = EVAL_CASES["pole_free"]
        assert pole_free(1) == pole_free.num(1) == Fraction(1, 3) - 2 + Fraction(5, 7)

    @pytest.mark.parametrize("name", ["apostol_5", "pole_free", "zero"])
    def test_float_point_is_rejected(self, name):
        for point in (0.5, 1.0):
            with pytest.raises(TypeError):
                EVAL_CASES[name](point)
