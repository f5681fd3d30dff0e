"""Apostol-Bernoulli rational functions and the improper integrals."""

import math
from fractions import Fraction

import pytest

from fubini.apostol import (
    apostol_alternating_form,
    apostol_bernoulli,
    apostol_moment_integral,
    apostol_product_integral,
    apostol_product_integral_exact,
    apostol_split_eval,
    apostol_sum_of_products,
    apostol_via_fubini,
    improper_quadrature_oracle,
    lambda_moment_weight,
)
from fubini import registry
from fubini.bernoulli_numbers import bernoulli
from fubini.combinat import MEMO_ROWS
from fubini.exact import Poly, RatFunc

LAMBDA_SAMPLES = [
    Fraction(2), Fraction(-2), Fraction(3), Fraction(-1),
    Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 7),
    Fraction(5, 2), Fraction(-1, 5),
]


class TestConstruction:
    def test_first_functions(self):
        assert apostol_bernoulli(0) == RatFunc.zero()
        assert apostol_bernoulli(1) == RatFunc(Poly([1]), order=1)
        assert apostol_bernoulli(2) == RatFunc(Poly([0, -2]), order=2)

    def test_pole_discipline(self):
        # canonical denominator is exactly (lambda - 1)^n
        for n in [*range(21), 40, 60]:
            func = apostol_bernoulli(n)
            assert func.order == n
            assert func.den == Poly([-1, 1]) ** func.order
            assert func.is_polynomial() or func.num(1) != 0

    @pytest.mark.parametrize("n", [*range(1, 31), 40, 60])
    def test_fubini_route_agrees(self, n):
        assert apostol_via_fubini(n) == apostol_bernoulli(n)

    def test_fubini_route_requires_positive_index(self):
        with pytest.raises(ValueError):
            apostol_via_fubini(0)

    @pytest.mark.parametrize("n", [*range(2, 31), 40, 60])
    def test_alternating_route_agrees(self, n):
        assert apostol_alternating_form(n - 1) == apostol_bernoulli(n)

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_three_routes_agree_at_large_indices(self, n):
        direct = apostol_bernoulli(n)
        assert apostol_via_fubini(n) == direct
        assert apostol_alternating_form(n - 1) == direct
        assert direct.order == n

    def test_memoised_only_up_to_memo_rows(self):
        assert apostol_bernoulli(MEMO_ROWS) is apostol_bernoulli(MEMO_ROWS)
        first = apostol_bernoulli(MEMO_ROWS + 1)
        second = apostol_bernoulli(MEMO_ROWS + 1)
        assert second == first and second is not first
        assert max(apostol_bernoulli.memo) <= MEMO_ROWS

    def test_alternating_route_rejects_lowest_index(self):
        with pytest.raises(ValueError):
            apostol_alternating_form(0)

    @pytest.mark.parametrize("n", [2, 25])
    def test_each_route_canonicalises_once(self, n, monkeypatch, forget):
        forget(apostol_bernoulli)
        built = []
        init = RatFunc.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RatFunc, "__init__", counting_init)
        for route, index in (
            (apostol_bernoulli, n),
            (apostol_via_fubini, n),
            (apostol_alternating_form, n - 1),
        ):
            built.clear()
            route(index)
            assert len(built) == 1, route.__name__
        integrand = apostol_bernoulli(2) * apostol_bernoulli(3)
        built.clear()
        improper_quadrature_oracle(integrand, 1e-10)
        assert built == []

    def test_alternating_lowest_index_is_an_erratum(self):
        # Read literally at n = 0 the sum yields lambda/(lambda-1),
        # not the true 1/(lambda-1).
        literal = RatFunc(Poly([0, 1]), order=1)
        assert literal != apostol_bernoulli(1)


class TestSplitForm:
    def test_lowest_index(self):
        assert apostol_split_eval(0, Fraction(3)) == Fraction(1, 2)
        assert apostol_split_eval(0, Fraction(3)) == apostol_bernoulli(1)(Fraction(3))

    def test_index_one(self):
        assert apostol_split_eval(1, Fraction(2)) == Fraction(-2)

    def test_index_two_at_negative_two(self):
        expected = apostol_bernoulli(3)(Fraction(-2)) / 3
        assert apostol_split_eval(2, Fraction(-2)) == expected

    def test_singularities_rejected(self):
        for bad in (Fraction(1), Fraction(-1)):
            with pytest.raises(ValueError):
                apostol_split_eval(2, bad)

    def test_integer_point(self):
        assert apostol_split_eval(1, 2) == apostol_split_eval(1, Fraction(2)) == -2

    @pytest.mark.parametrize("lam", [0.5, "1/3"])
    def test_inexact_point_is_rejected(self, lam):
        with pytest.raises(TypeError):
            apostol_split_eval(2, lam)

    def test_grid(self):
        for n in [*range(13), MEMO_ROWS + 6]:
            func = apostol_bernoulli(n + 1)
            for lam in LAMBDA_SAMPLES:
                if lam in (1, -1):
                    continue
                assert apostol_split_eval(n, lam) == func(lam) / (n + 1)


class TestSumOfProducts:
    def test_examples(self):
        assert apostol_sum_of_products(0, Fraction(2)) == (Fraction(1), Fraction(1))
        assert apostol_sum_of_products(0, Fraction(-1)) == (
            Fraction(1, 4),
            Fraction(1, 4),
        )
        lhs, rhs = apostol_sum_of_products(1, Fraction(3))
        assert lhs == rhs

    def test_grid(self):
        for n in range(11):
            for lam in LAMBDA_SAMPLES:
                if lam == 1:
                    continue
                lhs, rhs = apostol_sum_of_products(n, lam)
                assert lhs == rhs

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            apostol_sum_of_products(2, Fraction(1))

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError):
            apostol_sum_of_products(-1, 2)

    @pytest.mark.parametrize("lam", [0.5, "1/3"])
    def test_inexact_point_is_rejected(self, lam):
        with pytest.raises(TypeError):
            apostol_sum_of_products(1, lam)


class TestMomentIntegral:
    def test_examples(self):
        assert apostol_moment_integral(0, 1) == (Fraction(-1), Fraction(-1))
        assert apostol_moment_integral(1, 1) == (Fraction(-2, 3), Fraction(-2, 3))
        assert apostol_moment_integral(0, 2) == (Fraction(1, 2), Fraction(1, 2))
        assert apostol_moment_integral(0, 2)[1] == 3 * bernoulli(2)

    def test_grid(self):
        for k in range(7):
            for n in range(1, 9):
                exact, formula = apostol_moment_integral(k, n)
                assert exact == formula

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            apostol_moment_integral(2, 0)
        with pytest.raises(ValueError, match="requires k >= 0"):
            apostol_moment_integral(-1, 1)


class TestProductIntegral:
    def test_examples(self):
        assert apostol_product_integral(0, 1) == (Fraction(-1), Fraction(-1))
        assert apostol_product_integral(1, 1) == (Fraction(4, 3), Fraction(4, 3))
        assert apostol_product_integral(0, 2) == (Fraction(1, 2), Fraction(1, 2))

    def test_grid(self):
        for m in range(9):
            for n in range(1, 9):
                exact, formula = apostol_product_integral(m, n)
                assert exact == formula

    def test_exact_route_at_lowest_indices(self):
        assert apostol_product_integral_exact(0, 0) == 1

    def test_negative_indices_are_rejected(self):
        with pytest.raises(ValueError, match="requires n >= 1"):
            apostol_product_integral(0, 0)
        with pytest.raises(ValueError, match="requires m >= 0"):
            apostol_product_integral(-1, 1)
        with pytest.raises(ValueError, match="indices must be non-negative"):
            apostol_product_integral_exact(-1, 0)

    def test_uncorrected_index_placement_fails(self):
        # Pairing indices (m, n) = (1, 1) with prefactor (m+1)(n+1) would
        # claim 4/3 for the integral of the square of the index-1
        # function; the true value is 1.
        printed = -4 * (bernoulli(1) + bernoulli(2))
        assert printed == Fraction(4, 3)
        assert apostol_product_integral_exact(0, 0) != printed


class TestQuadratureOracle:
    def test_plain_antiderivative_case(self):
        f = RatFunc(Poly([1]), order=2)
        assert abs(improper_quadrature_oracle(f, 1e-10) - 1.0) < 1e-9

    def test_matches_exact_product_integrals(self):
        cases = [
            (apostol_bernoulli(1) * apostol_bernoulli(2), Fraction(-1)),
            (apostol_bernoulli(2) * apostol_bernoulli(2), Fraction(4, 3)),
            (apostol_bernoulli(1) * apostol_bernoulli(1), Fraction(1)),
            (lambda_moment_weight(1) * apostol_bernoulli(2), Fraction(-2, 3)),
            (lambda_moment_weight(0) * apostol_bernoulli(3), Fraction(1, 2)),
        ]
        for integrand, exact in cases:
            approx = improper_quadrature_oracle(integrand, 1e-10)
            assert abs(approx - float(exact)) < 1e-9

    def test_rejects_slow_decay(self):
        with pytest.raises(ValueError):
            improper_quadrature_oracle(RatFunc(Poly([1]), order=1))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, Fraction(0), -math.inf])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        f = RatFunc(Poly([1]), order=2)
        with pytest.raises(ValueError, match="positive and finite"):
            improper_quadrature_oracle(f, tol)
        with pytest.raises(ValueError, match="positive and finite"):
            improper_quadrature_oracle(RatFunc.zero(), tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite(self, tol):
        # An estimate is never greater than nan, so a nan tol would
        # return an unchecked value.
        f = RatFunc(Poly([1]), order=2)
        with pytest.raises(ValueError, match="positive and finite"):
            improper_quadrature_oracle(f, tol)

    def test_zero_function(self):
        assert improper_quadrature_oracle(RatFunc.zero()) == 0.0

    def test_whole_improper_integral_family_on_the_full_grids(self):
        # 128 integrands with numerators up to degree 16; the returned
        # value must carry the error the oracle promises at any degree.
        def family(identity):
            entry = registry.REGISTRY[identity]
            return [p for p in entry.cases(entry.full) if "printed" not in p]

        cases = [
            (("moment", p["k"], p["n"]),
             lambda_moment_weight(p["k"]) * apostol_bernoulli(p["n"] + 1),
             apostol_moment_integral(p["k"], p["n"])[0])
            for p in family("ab_moment_integral")
        ] + [
            (("product", p["m"], p["n"]),
             apostol_bernoulli(p["m"] + 1) * apostol_bernoulli(p["n"] + 1),
             apostol_product_integral_exact(p["m"], p["n"]))
            for p in family("ab_product_integral")
        ]
        assert len(cases) == 128
        misses = []
        for case, integrand, exact in cases:
            approx = Fraction(improper_quadrature_oracle(integrand, 5e-10))
            if abs(approx - exact) > max(Fraction(1, 10**9), Fraction(4, 10**12) * abs(exact)):
                misses.append((case, float(approx - exact)))
        assert misses == []
