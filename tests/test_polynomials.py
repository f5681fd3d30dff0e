"""Fubini polynomial family: constructions, routes, special values."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fubini import polynomials
from fubini.combinat import MEMO_ROWS
from fubini.exact import BiPoly, Poly
from fubini.polynomials import (
    fubini_number,
    fubini_number_bruteforce,
    fubini_number_split_sum,
    fubini_number_split_sum_neg2,
    fubini_poly,
    fubini_poly_recurrence,
    fubini_reflection_form,
    fubini_split_collapse,
    fubini_split_eval,
    fubini_two_var,
    fubini_two_var_eval,
    geometric_moment_partial_sum,
    ordered_partition_block_counts,
)

from oracles import fubini_split_eval_ref, fubini_two_var_eval_ref, ordered_partitions

# Frozen from the enumeration oracle (ordered set partitions of n elements).
FUBINI_NUMBERS = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]

small_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)

# x = 0, y at -1 (where 1 + y = 0), 0, -1/2 and 1, a y with 1 + y < 0, int
# arguments, and fractions written unreduced.
SPECIAL_POINTS = [
    *((x, y) for x in (0, Fraction(-7, 5)) for y in (-1, 0, Fraction(-1, 2), 1)),
    (0, Fraction(3, 8)),
    (Fraction(2, 9), Fraction(-5, 3)),
    (3, -2),
    (Fraction(10, 4), Fraction(-6, 9)),
    (Fraction(-12, 8), Fraction(15, 5)),
]


class TestFubiniPoly:
    def test_first_polynomials(self):
        assert fubini_poly(0) == Poly([1])
        assert fubini_poly(1) == Poly([0, 1])
        assert fubini_poly(2) == Poly([0, 1, 2])
        assert fubini_poly(3) == Poly([0, 1, 6, 6])
        assert fubini_poly(4) == Poly([0, 1, 14, 36, 24])

    @pytest.mark.parametrize("n", range(30))
    def test_shape_invariants(self, n):
        poly = fubini_poly(n)
        assert poly.degree == n
        assert poly.leading_coefficient() == factorial(n)
        assert poly.coefficient(0) == (1 if n == 0 else 0)
        assert poly.is_integral()

    @pytest.mark.parametrize("n", range(41))
    def test_recurrence_route_agrees(self, n):
        assert fubini_poly(n) == fubini_poly_recurrence(n)

    @given(st.integers(min_value=0, max_value=20), small_rationals)
    def test_routes_agree_at_points(self, n, y):
        assert fubini_poly(n)(y) == fubini_poly_recurrence(n)(y)

    def test_memoised_up_to_memo_rows(self):
        for n in range(MEMO_ROWS + 1):
            assert fubini_poly(n) is fubini_poly(n)

    def test_recurrence_keeps_terms_only_up_to_memo_rows(self):
        assert fubini_poly_recurrence(MEMO_ROWS + 100) == fubini_poly(MEMO_ROWS + 100)
        assert len(fubini_poly_recurrence.terms) <= MEMO_ROWS + 1
        assert list(fubini_poly_recurrence.cursor) == [MEMO_ROWS + 100]

    def test_index_above_memo_rows_is_not_stored(self):
        assert fubini_poly(200).degree == 200
        assert all(n <= MEMO_ROWS for n in fubini_poly.memo)

    def test_even_indices_vanish_at_minus_half(self):
        for k in range(1, 11):
            assert fubini_poly(2 * k)(Fraction(-1, 2)) == 0

    def test_value_at_minus_two(self):
        for n in range(1, 15):
            assert fubini_poly(n)(-2) == (-1) ** n * 2 * fubini_number(n)


class TestFubiniNumbers:
    def test_frozen_values(self):
        assert [fubini_number(n) for n in range(11)] == FUBINI_NUMBERS

    def test_power_sum_above_memo_rows_matches_the_row_route(self):
        for n in range(MEMO_ROWS, 151):
            assert fubini_number(n) == fubini_poly(n)(1).numerator, n

    def test_reads_no_stirling_row_at_any_index(self, monkeypatch, forget):
        # One route at every index: the power sum, not F_n(1) of the memo.
        expected = [fubini_poly(n)(1).numerator for n in range(71)]
        forget(fubini_poly)

        def refuse(n):
            raise AssertionError("fubini_number read a Stirling row")

        monkeypatch.setattr(polynomials, "stirling2_row", refuse)
        assert [fubini_number(n) for n in range(71)] == expected

    @pytest.mark.parametrize("n", range(11))
    def test_bruteforce_agrees(self, n):
        assert fubini_number_bruteforce(n) == FUBINI_NUMBERS[n]

    def test_bruteforce_cap(self, monkeypatch, forget):
        with pytest.raises(ValueError):
            fubini_number_bruteforce(11)
        # The cap is read at call time; the count built under the raised cap
        # leaves the memo with the test.
        forget(ordered_partition_block_counts)
        monkeypatch.setattr(polynomials, "BRUTEFORCE_CAP", 11)
        assert fubini_number_bruteforce(11) == 1622632573

    def test_one_enumeration_serves_both_readers(self, forget):
        forget(ordered_partition_block_counts)
        assert fubini_number_bruteforce(8) == FUBINI_NUMBERS[8]
        counts = ordered_partition_block_counts.memo[8]
        assert ordered_partition_block_counts(8) is counts
        assert sorted(ordered_partition_block_counts.memo) == [8]

    @pytest.mark.parametrize("n", range(8))
    def test_block_counts_match_literal_generation(self, n):
        generated = ordered_partitions(n)
        counts = [0] * (n + 1)
        for partition in generated:
            counts[len(partition)] += 1
        assert list(ordered_partition_block_counts(n)) == counts

    @pytest.mark.parametrize("n", range(9))
    def test_block_counts_match_coefficients(self, n):
        counts = ordered_partition_block_counts(n)
        assert fubini_poly(n) == Poly(counts)


class TestTwoVariable:
    def test_first_cases(self):
        assert fubini_two_var(0) == BiPoly([[1]])
        assert fubini_two_var(1) == BiPoly([[0, 1], [1]])  # x + y
        # x^2 + 2xy + 2y^2 + y
        assert fubini_two_var(2) == BiPoly([[0, 1, 2], [0, 2], [1]])

    @pytest.mark.parametrize("n", range(15))
    def test_restriction_to_one_variable(self, n):
        two_var = fubini_two_var(n)
        assert two_var.substitute_x(0) == fubini_poly(n)
        assert two_var(0, 1) == fubini_number(n)

    @pytest.mark.parametrize("n", range(15))
    def test_x_degree_and_leading_term(self, n):
        two_var = fubini_two_var(n)
        assert two_var.x_degree == n
        assert two_var.coefficient(n, 0) == 1

    @given(
        st.integers(min_value=0, max_value=10),
        small_rationals,
        small_rationals,
    )
    def test_scalar_route_matches_bipoly(self, n, x, y):
        assert fubini_two_var_eval(n, x, y) == fubini_two_var(n)(x, y)

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    @example(9, 0, 1, 0, 1)
    @example(9, 0, 7, -3, 5)
    @example(9, -5, 3, 0, 4)
    @example(12, -50, 1, -1, 50)
    @example(6, 10, 20, -2, 4)  # unreduced inputs
    def test_matches_fraction_reference(self, n, a, b, c, d):
        x, y = Fraction(a, b), Fraction(c, d)
        assert fubini_two_var_eval(n, x, y) == fubini_two_var_eval_ref(n, x, y)

    @pytest.mark.parametrize("n", range(MEMO_ROWS + 17))
    def test_power_sum_matches_bipoly_at_special_points(self, n):
        two_var = fubini_two_var(n)
        for x, y in SPECIAL_POINTS:
            assert fubini_two_var_eval(n, x, y) == two_var(x, y), (x, y)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, MEMO_ROWS, MEMO_ROWS + 16])
    def test_power_sum_matches_fraction_reference_at_special_points(self, n):
        for x, y in SPECIAL_POINTS:
            assert fubini_two_var_eval(n, x, y) == fubini_two_var_eval_ref(n, x, y), (x, y)

    def test_power_sum_reads_no_fubini_poly_and_no_stirling_row(self, monkeypatch):
        n = MEMO_ROWS + 1
        expected = [fubini_two_var_eval(n, x, y) for x, y in SPECIAL_POINTS]
        number = fubini_number(n)

        def refuse(*args):
            raise AssertionError("the power sum read a Stirling row or an F_k")

        monkeypatch.setattr(polynomials, "fubini_poly", refuse)
        monkeypatch.setattr(polynomials, "stirling2_row", refuse)
        assert [fubini_two_var_eval(n, x, y) for x, y in SPECIAL_POINTS] == expected
        assert fubini_number(n) == number

    @pytest.mark.parametrize("n", [40, MEMO_ROWS + 6])
    def test_large_index_matches_fraction_reference(self, n):
        # The power sum reads no F_k, and the reference memoises nothing.
        for x, y in [(Fraction(3, 7), Fraction(-5, 4)), (Fraction(-2), Fraction(1, 9))]:
            assert fubini_two_var_eval(n, x, y) == fubini_two_var_eval_ref(n, x, y)
        assert max(fubini_poly.memo) <= MEMO_ROWS

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError):
            fubini_two_var_eval(-1, 1, 1)

    def test_memoised_only_up_to_memo_rows(self):
        assert fubini_two_var(MEMO_ROWS) is fubini_two_var(MEMO_ROWS)
        first = fubini_two_var(MEMO_ROWS + 1)
        second = fubini_two_var(MEMO_ROWS + 1)
        assert second == first and second is not first
        assert first.substitute_x(0) == fubini_poly(MEMO_ROWS + 1)
        assert max(fubini_two_var.memo) <= MEMO_ROWS

    @pytest.mark.parametrize("x, y", [(0.5, 1), (1, 0.5)])
    def test_float_is_rejected(self, x, y):
        with pytest.raises(TypeError):
            fubini_two_var_eval(3, x, y)


class TestReflectionForm:
    def test_small_cases(self):
        assert fubini_reflection_form(1) == Poly([0, 1])
        assert fubini_reflection_form(2) == Poly([0, 1, 2])
        assert fubini_reflection_form(3) == Poly([0, 1, 6, 6])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fubini_reflection_form(0)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_agrees_with_triangle_route(self, n):
        assert fubini_reflection_form(n) == fubini_poly(n)


class TestSplitForm:
    def test_index_zero_is_one_everywhere(self):
        for y in (Fraction(1), Fraction(-2), Fraction(3, 7)):
            assert fubini_split_eval(0, y) == 1

    def test_index_one(self):
        for y in (Fraction(1), Fraction(2, 5), Fraction(-4, 3)):
            assert fubini_split_eval(1, y) == y

    def test_value_at_one(self):
        assert fubini_split_eval(2, Fraction(1)) == 3

    def test_singular_point_rejected(self):
        # Given as -1/2 or unreduced, with the sign on the denominator.
        for y in (Fraction(-1, 2), Fraction(2, -4)):
            with pytest.raises(ValueError, match="singular at y = -1/2"):
                fubini_split_eval(3, y)

    def test_float_is_rejected(self):
        with pytest.raises(TypeError):
            fubini_split_eval(3, 0.5)

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    @example(7, 0, 1)
    @example(7, -1, 1)
    @example(8, -3, 4)  # 2y + 1 < 0
    @example(5, -1, 2)  # the singular point
    @example(5, -25, 50)  # the singular point, unreduced
    @example(MEMO_ROWS + 6, -3, 4)  # F_n rebuilt, not memoised
    def test_matches_fraction_reference(self, n, p, q):
        y = Fraction(p, q)
        if y == Fraction(-1, 2):
            with pytest.raises(ValueError):
                fubini_split_eval(n, y)
        else:
            assert fubini_split_eval(n, y) == fubini_split_eval_ref(n, y)

    @pytest.mark.parametrize("n", range(11))
    def test_symbolic_collapse(self, n):
        lhs, rhs = fubini_split_collapse(n)
        assert lhs == rhs

    def test_number_split_examples(self):
        assert fubini_number_split_sum(0) == 1
        assert fubini_number_split_sum(1) == 1
        assert fubini_number_split_sum(2) == 3

    def test_number_split_neg2_examples(self):
        assert fubini_number_split_sum_neg2(1) == 1
        assert fubini_number_split_sum_neg2(2) == 3
        assert fubini_number_split_sum_neg2(3) == 13
        with pytest.raises(ValueError):
            fubini_number_split_sum_neg2(0)

    @pytest.mark.parametrize("n", [*range(21), MEMO_ROWS, MEMO_ROWS + 1, 100])
    def test_number_split_matches(self, n):
        assert fubini_number_split_sum(n) == fubini_number(n)
        if n >= 1:
            assert fubini_number_split_sum_neg2(n) == fubini_number(n)


class TestGeometricMoments:
    def test_partial_sum_examples(self):
        tol = Fraction(1, 10**12)
        assert abs(geometric_moment_partial_sum(0, Fraction(1, 2), 60) - 2) < tol
        assert abs(geometric_moment_partial_sum(1, Fraction(1, 2), 80) - 2) < tol
        assert abs(geometric_moment_partial_sum(3, Fraction(1, 2), 80) - 26) < tol

    def test_limit_formula(self):
        # partial sums approach F_n(x/(1-x)) / (1-x)
        x = Fraction(1, 3)
        target = fubini_poly(2)(x / (1 - x)) / (1 - x)
        partial = geometric_moment_partial_sum(2, x, 120)
        assert abs(partial - target) < Fraction(1, 10**20)

    def test_requires_contraction(self):
        with pytest.raises(ValueError):
            geometric_moment_partial_sum(1, Fraction(1), 10)
        with pytest.raises(ValueError):
            geometric_moment_partial_sum(1, Fraction(-3, 2), 10)

    @pytest.mark.parametrize("x", [0.5, "1/3"])
    def test_inexact_point_is_rejected(self, x):
        with pytest.raises(TypeError):
            geometric_moment_partial_sum(2, x, 3)
