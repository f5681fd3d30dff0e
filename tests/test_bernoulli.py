"""Bernoulli and p-Bernoulli numbers with their integral identities."""

import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fubini import bernoulli_numbers, combinat, polynomials
from fubini.combinat import MEMO_ROWS, stirling2
from fubini.bernoulli_numbers import (
    bernoulli,
    bernoulli_binomial_sum,
    bernoulli_recurrence,
    bernoulli_tangent,
    bernoulli_via_integral,
    bernoulli_zeta,
    double_sum_identity,
    fubini_moment_integral,
    fubini_moment_parity,
    fubini_product_integral,
    fubini_product_integral_exact,
    p_bernoulli,
    p_bernoulli_even_explicit,
    p_bernoulli_odd_explicit,
    p_bernoulli_shift_relation,
    p_bernoulli_stirling_sum,
)
from fubini.exact import Poly
from fubini.polynomials import fubini_poly

from oracles import (
    bernoulli_akiyama_tanigawa,
    bernoulli_binomial_sum_ref,
    fubini_moment_ref,
    p_bernoulli_ref,
    p_bernoulli_shift_lhs_ref,
    stirling_bernoulli_sum_ref,
)

# The zero polynomial, and polynomials of degree up to 12 whose
# coefficients are not all integers (denominator above 1).
rational_polys = st.one_of(
    st.just(Poly()),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=13)
    .map(Poly)
    .filter(lambda p: p.denominator != 1),
)


def forbid_stirling_rows(monkeypatch, forbidden):
    """Make every read of a second-kind Stirling row call ``forbidden``."""
    monkeypatch.setattr(combinat, "stirling2_row", forbidden)
    monkeypatch.setattr(polynomials, "stirling2_row", forbidden)


class TestBernoulli:
    def test_frozen_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_akiyama_tanigawa(self):
        oracle = bernoulli_akiyama_tanigawa(24)
        for n, expected in enumerate(oracle):
            assert bernoulli(n) == expected

    def test_odd_indices_vanish(self):
        for k in range(1, 16):
            assert bernoulli(2 * k + 1) == 0

    def test_recurrence_route(self):
        for n in range(151):
            assert bernoulli_recurrence(n) == bernoulli(n), n

    def test_cold_values_match_the_recurrence(self, monkeypatch):
        # Each B_n is built with no smaller index in the memo.
        monkeypatch.setattr(bernoulli_numbers, "_bernoulli_cache", {})
        for n in range(150, -1, -1):
            assert bernoulli(n) == bernoulli_recurrence(n), n

    def test_recurrence_reads_no_stirling_number(self, monkeypatch, forget):
        def forbidden(*args):
            raise AssertionError("the recurrence route must stay independent")

        forget(bernoulli_numbers._recurrence_numerators)
        forbid_stirling_rows(monkeypatch, forbidden)
        monkeypatch.setattr(bernoulli_numbers, "bernoulli", forbidden)
        assert bernoulli_recurrence(40) == Fraction(-261082718496449122051, 13530)
        assert bernoulli_recurrence(12) == Fraction(-691, 2730)

    def test_recurrence_keeps_terms_only_up_to_memo_rows(self):
        numerators = bernoulli_numbers._recurrence_numerators
        assert bernoulli_recurrence(MEMO_ROWS + 100) == bernoulli(MEMO_ROWS + 100)
        assert len(numerators.terms) <= MEMO_ROWS + 1
        assert list(numerators.cursor) == [MEMO_ROWS + 100]

    def test_odd_index_above_the_memo_is_zero_at_once(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("an odd index reads no tangent number")

        monkeypatch.setattr(bernoulli_numbers, "_bernoulli_cache", {})
        monkeypatch.setattr(bernoulli_numbers, "_tangent_column", forbidden)
        assert bernoulli(MEMO_ROWS + 1) == 0
        assert bernoulli(10**6 + 1) == 0

    def test_integral_route(self):
        assert bernoulli_via_integral(1) == Fraction(-1, 2)
        assert bernoulli_via_integral(2) == Fraction(1, 6)
        assert bernoulli_via_integral(3) == 0
        # The two sides share no formula, below the memo bound or above it.
        for n in range(1, MEMO_ROWS + 11):
            assert bernoulli_via_integral(n) == bernoulli(n), n

    def test_integral_route_requires_positive_index(self):
        with pytest.raises(ValueError):
            bernoulli_via_integral(0)
        # the n = 0 equality holds numerically but is not part of the contract
        assert fubini_poly(0).integrate(-1, 0) == bernoulli(0)


# Above MEMO_ROWS an even-index B_n comes from zeta(n), built from the most
# precise pi kept so far; the tangent triangle is extended from its last
# column when the tangent route is read there.  These orders make the kept
# pi grow step by step, serve smaller indices, and jump back and forth.
HIGH_INDICES = [*range(MEMO_ROWS + 1, 201), 300, 301]
INDEX_ORDERS = {
    "ascending": HIGH_INDICES,
    "descending": HIGH_INDICES[::-1],
    "interleaved": [n for pair in zip(HIGH_INDICES, HIGH_INDICES[::-1]) for n in pair],
}


class TestAboveTheMemo:
    @pytest.fixture
    def cold(self, monkeypatch, forget):
        monkeypatch.setattr(bernoulli_numbers, "_bernoulli_cache", {})
        monkeypatch.setattr(bernoulli_numbers, "_pi_kept", (0, 0))
        forget(bernoulli_numbers._tangent_column)

    def test_first_tangent_numbers(self, cold):
        column = bernoulli_numbers._tangent_column
        tangents = [column(k)[-1] for k in range(7)]
        assert column(2)[-1] == 16  # a stored column
        assert tangents == [1, 2, 16, 272, 7936, 353792, 22368256]

    @pytest.mark.parametrize("order", sorted(INDEX_ORDERS))
    def test_matches_akiyama_tanigawa(self, cold, order):
        oracle = bernoulli_akiyama_tanigawa(HIGH_INDICES[-1])
        for n in INDEX_ORDERS[order]:
            assert bernoulli(n) == oracle[n], n

    def test_reads_no_stirling_row(self, cold, monkeypatch):
        def forbidden(*args):
            raise AssertionError("B_n must not read a Stirling row at any index")

        forbid_stirling_rows(monkeypatch, forbidden)
        oracle = bernoulli_akiyama_tanigawa(301)
        for n in (301, 300, MEMO_ROWS + 1, MEMO_ROWS + 2, 150, MEMO_ROWS, 41, 12, 7, 2, 1, 0):
            assert bernoulli(n) == oracle[n], n

    def test_reads_no_tangent_column(self, cold, monkeypatch):
        def forbidden(*args):
            raise AssertionError("an even index above MEMO_ROWS reads zeta(n)")

        monkeypatch.setattr(bernoulli_numbers, "_tangent_column", forbidden)
        oracle = bernoulli_akiyama_tanigawa(300)
        for n in (300, MEMO_ROWS + 2, 150):
            assert bernoulli(n) == oracle[n], n

    def test_values_are_cached(self, cold):
        assert bernoulli(300) is bernoulli(300)
        assert bernoulli(301) is bernoulli(301)

    def test_last_column_is_kept(self, cold):
        column = bernoulli_numbers._tangent_column
        bernoulli_tangent(300)
        assert len(column.terms) == MEMO_ROWS + 1
        assert {k: len(col) for k, col in column.cursor.items()} == {149: 150}
        # Below the cursor a read rolls on from the last stored column, not
        # from column 1, so a wrong entry there shows in B_200.  The store
        # is put back by ``forget`` when the test ends.
        last = column.terms[MEMO_ROWS]
        column.terms[MEMO_ROWS] = [*last[:-1], last[-1] + 1]
        assert bernoulli_tangent(200) != bernoulli_akiyama_tanigawa(200)[200]
        assert {k: len(col) for k, col in column.cursor.items()} == {99: 100}


class TestZetaRoute:
    def test_matches_the_tangent_route_and_akiyama_tanigawa(self, monkeypatch):
        monkeypatch.setattr(bernoulli_numbers, "_pi_kept", (0, 0))
        oracle = bernoulli_akiyama_tanigawa(400)
        for n in range(4, 401, 2):
            assert bernoulli_zeta(n) == bernoulli_tangent(n) == oracle[n], n

    @pytest.mark.parametrize("n", [500, 1000])
    def test_matches_the_tangent_route_at_larger_indices(self, n):
        assert bernoulli_zeta(n) == bernoulli_tangent(n)

    @pytest.mark.parametrize("n", [-2, 0, 2, 3, MEMO_ROWS + 1])
    def test_takes_only_even_indices_from_four(self, n):
        with pytest.raises(ValueError, match="even index n >= 4"):
            bernoulli_zeta(n)

    def test_a_denominator_short_of_a_prime_raises(self, monkeypatch):
        # B_n D / p is no integer when p divides the denominator D of B_n.
        exact = bernoulli_numbers._staudt_clausen_denominator

        def short(n, primes):
            return exact(n, primes) // max(p for p in primes if n % (p - 1) == 0)

        monkeypatch.setattr(bernoulli_numbers, "_staudt_clausen_denominator", short)
        for n in range(MEMO_ROWS + 2, 401, 2):
            with pytest.raises(ArithmeticError, match=f"B_{n} lies outside"):
                bernoulli_zeta(n)

    def test_pi_short_of_40_bits_raises(self, monkeypatch):
        exact = bernoulli_numbers._pi_fixed
        monkeypatch.setattr(bernoulli_numbers, "_pi_fixed", lambda q: exact(q - 40) << 40)
        for n in range(MEMO_ROWS + 2, 401, 2):
            with pytest.raises(ArithmeticError, match=f"B_{n} lies outside"):
                bernoulli_zeta(n)

    def test_pi_within_its_bound(self, monkeypatch):
        # math.pi is the double nearest pi, within 2^-52 of it.
        monkeypatch.setattr(bernoulli_numbers, "_pi_kept", (0, 0))
        assert abs(bernoulli_numbers._pi_fixed(52) - Fraction(math.pi) * 2**52) < 3
        wide = bernoulli_numbers._pi_fixed(4000)
        for q in (60, 1000, 3999):
            monkeypatch.setattr(bernoulli_numbers, "_pi_kept", (0, 0))
            assert abs(bernoulli_numbers._pi_fixed(q) - Fraction(wide, 2 ** (4000 - q))) < 3, q

    def test_the_most_precise_pi_is_kept(self, monkeypatch):
        monkeypatch.setattr(bernoulli_numbers, "_bernoulli_cache", {})
        monkeypatch.setattr(bernoulli_numbers, "_pi_kept", (0, 0))
        bernoulli_zeta(400)
        kept_bits, kept = bernoulli_numbers._pi_kept

        def forbidden(*args):
            raise AssertionError("pi is read from the kept value")

        monkeypatch.setattr(bernoulli_numbers, "_chudnovsky_split", forbidden)
        # A whole p-Bernoulli window above B_400 reads the kept pi, as do
        # smaller indices, which leave it as it was.
        assert p_bernoulli(400, 30) == p_bernoulli_ref(400, 30)
        for n in (MEMO_ROWS + 2, 200):
            bernoulli_zeta(n)
        assert bernoulli_numbers._pi_kept == (kept_bits, kept)


# Weighted sums whose windows end below, at and above MEMO_ROWS: the first
# two are dot products with the binomial recurrence's numerators, the last
# crosses MEMO_ROWS (every window has at least 6 entries) and sums
# ``bernoulli``'s values over their own denominators.
WINDOW_ENDS = {"below": MEMO_ROWS - 20, "at": MEMO_ROWS, "crossing": MEMO_ROWS + 5}


class TestNumeratorView:
    @pytest.mark.parametrize("where", sorted(WINDOW_ENDS))
    @given(
        weights=st.lists(st.integers(min_value=-10**30, max_value=10**30), min_size=6, max_size=16),
        divisor=st.integers(min_value=1, max_value=10**12),
    )
    def test_weighted_sum_equals_the_fraction_sum(self, where, weights, divisor):
        start = WINDOW_ENDS[where] - len(weights) + 1
        expected = sum(
            (w * bernoulli(start + j) for j, w in enumerate(weights)), Fraction(0)
        ) / divisor
        assert bernoulli_numbers._bernoulli_combination(weights, start, divisor) == expected

    def test_windows_up_to_memo_rows_read_only_the_recurrence(self, monkeypatch, forget):
        values = bernoulli_akiyama_tanigawa(MEMO_ROWS + 5)
        weights = [3, -1, 4, -1, 5, -9, 2, 6]

        def fraction_sum(start: int) -> Fraction:
            return sum((w * values[start + j] for j, w in enumerate(weights)), Fraction(0)) / 7

        def no_tangent_route(n):
            raise RuntimeError(f"bernoulli({n}) read")

        forget(bernoulli_numbers._recurrence_numerators)
        crossing = MEMO_ROWS - 2
        with monkeypatch.context() as patched:
            patched.setattr(bernoulli_numbers, "bernoulli", no_tangent_route)
            for start in (0, 5, MEMO_ROWS - len(weights) + 1):
                combination = bernoulli_numbers._bernoulli_combination(weights, start, 7)
                assert combination == fraction_sum(start), start
            # A window across MEMO_ROWS reads ``bernoulli``'s values instead.
            with pytest.raises(RuntimeError, match="read"):
                bernoulli_numbers._bernoulli_combination(weights, crossing, 7)
        combination = bernoulli_numbers._bernoulli_combination(weights, crossing, 7)
        assert combination == fraction_sum(crossing)


class TestIntegralKernel:
    @given(rational_polys, st.integers(min_value=0, max_value=10))
    @example(Poly(), 10)
    @example(Poly([Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9)]), 4)
    def test_matches_poly_integrate(self, p, k):
        expected = (Poly.monomial(k) * p).integrate(-1, 0)
        assert bernoulli_numbers._integral(p, k) == expected


class TestMomentIntegral:
    def test_examples(self):
        assert fubini_moment_integral(0, 2) == (Fraction(1, 6), Fraction(1, 6))
        assert fubini_moment_integral(1, 1) == (Fraction(1, 3), Fraction(1, 3))
        assert fubini_moment_integral(2, 1) == (Fraction(-1, 4), Fraction(-1, 4))

    def test_first_moment_closed_form(self):
        for n in range(1, 10):
            exact, formula = fubini_moment_integral(1, n)
            assert exact == formula == -(bernoulli(n + 1) + bernoulli(n))

    def test_grid(self):
        for k in range(7):
            for n in range(1, 13):
                exact, formula = fubini_moment_integral(k, n)
                assert exact == formula

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            fubini_moment_integral(2, 0)

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=20))
    @example(0, 1)
    @example(10, 20)
    def test_matches_polynomial_integral(self, k, n):
        exact, formula = fubini_moment_integral(k, n)
        assert exact == fubini_moment_ref(k, n)
        assert exact == (Poly.monomial(k) * fubini_poly(n)).integrate(-1, 0)
        assert formula == exact

    @pytest.mark.parametrize("n", [40, MEMO_ROWS + 6])
    def test_large_index_matches_polynomial_integral(self, n):
        for k in (0, 3, 10):
            exact, formula = fubini_moment_integral(k, n)
            assert exact == formula == fubini_moment_ref(k, n)


class TestStirlingBernoulliSum:
    # The formula side of the moment integral: ((-1)^k / k!) times the sum.
    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=20))
    @example(0, 1)
    def test_matches_fraction_reference(self, k, n):
        expected = Fraction((-1) ** k, factorial(k)) * stirling_bernoulli_sum_ref(k, n)
        assert fubini_moment_integral(k, n)[1] == expected

    @pytest.mark.parametrize("k, n", [(-2, 3), (-1, 0), (2, -1)])
    def test_negative_index_is_rejected(self, k, n):
        with pytest.raises(ValueError):
            fubini_moment_integral(k, n)


class TestProductIntegral:
    def test_examples(self):
        assert fubini_product_integral(0, 2) == (Fraction(1, 6), Fraction(1, 6))
        assert fubini_product_integral(1, 1) == (Fraction(1, 3), Fraction(1, 3))
        exact, formula = fubini_product_integral(2, 1)
        assert exact == formula == Fraction(-1, 6)

    def test_negative_binomial_index_is_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_binomial_sum(-1, 2)

    def test_negative_exact_index_is_rejected(self):
        with pytest.raises(ValueError):
            fubini_product_integral_exact(-1, 0)
        with pytest.raises(ValueError):
            fubini_product_integral_exact(0, -1)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    @example(0, 0)
    @example(20, 20)
    def test_binomial_sum_matches_fraction_reference(self, m, n):
        assert bernoulli_binomial_sum(m, n) == bernoulli_binomial_sum_ref(m, n)

    def test_symmetry(self):
        for m in range(1, 9):
            for n in range(1, 9):
                assert fubini_product_integral(m, n)[1] == fubini_product_integral(n, m)[1]

    def test_grid(self):
        for m in range(9):
            for n in range(1, 9):
                exact, formula = fubini_product_integral(m, n)
                assert exact == formula


class TestDoubleSum:
    def test_examples(self):
        assert double_sum_identity(1, 1) == (Fraction(1, 3), Fraction(1, 3))
        assert double_sum_identity(2, 0) == (Fraction(1, 6), Fraction(1, 6))
        lhs, rhs = double_sum_identity(1, 2)
        assert lhs == rhs == Fraction(-1, 6)

    def test_grid(self):
        for n in range(1, 9):
            for m in range(9):
                lhs, rhs = double_sum_identity(n, m)
                assert lhs == rhs

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            double_sum_identity(0, 3)


class TestPBernoulli:
    def test_column_zero_is_bernoulli(self):
        for n in range(21):
            assert p_bernoulli(n, 0) == bernoulli(n)

    def test_examples(self):
        assert p_bernoulli(1, 1) == Fraction(-1, 3)
        assert p_bernoulli(1, 1) == -2 * bernoulli(2)
        assert p_bernoulli(2, 2) == Fraction(-1, 20)

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=12))
    @example(0, 0)
    @example(0, 12)
    @example(30, 12)
    def test_matches_fraction_reference(self, n, p):
        assert p_bernoulli(n, p) == p_bernoulli_ref(n, p)

    @pytest.mark.parametrize("n", [40, MEMO_ROWS + 6])
    def test_large_index_matches_fraction_reference(self, n):
        for p in (1, 5, 12):
            assert p_bernoulli(n, p) == p_bernoulli_ref(n, p)

    def test_above_the_memo_matches_fraction_reference(self):
        # Every B_{n+j} here, j <= 12, comes from a tangent number.
        for n in range(MEMO_ROWS + 1, 121):
            for p in range(13):
                assert p_bernoulli(n, p) == p_bernoulli_ref(n, p), (n, p)

    def test_shift_relation(self):
        for n in range(1, 12):
            for p in range(7):
                lhs, rhs = p_bernoulli_shift_relation(n, p)
                assert lhs == rhs

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=12))
    @example(1, 0)
    @example(20, 12)
    def test_shift_relation_matches_fraction_reference(self, n, p):
        lhs, rhs = p_bernoulli_shift_relation(n, p)
        assert lhs == rhs == p_bernoulli_shift_lhs_ref(n, p)

    def test_shift_relation_rejects_negative_p(self):
        with pytest.raises(ValueError):
            p_bernoulli_shift_relation(1, -1)

    def test_stirling_sum_rejects_p_below_one(self):
        for p in (0, -1):
            with pytest.raises(ValueError):
                p_bernoulli_stirling_sum(2, p, 1)

    def test_odd_explicit_examples(self):
        assert p_bernoulli_odd_explicit(1, 1) == Fraction(-1, 3)
        assert p_bernoulli_odd_explicit(1, 2) == Fraction(-1, 4)
        assert p_bernoulli_odd_explicit(2, 1) == p_bernoulli(3, 1) == Fraction(1, 15)

    def test_even_explicit_examples(self):
        assert p_bernoulli_even_explicit(1, 1) == 0
        assert p_bernoulli_even_explicit(1, 2) == Fraction(-1, 20)
        assert p_bernoulli_even_explicit(2, 1) == p_bernoulli(4, 1) == 0

    def test_explicit_forms_match_relation(self):
        for n in range(1, 11):
            for p in range(1, 11):
                assert p_bernoulli_odd_explicit(n, p) == p_bernoulli(2 * n - 1, p)
                assert p_bernoulli_even_explicit(n, p) == p_bernoulli(2 * n, p)

    def test_explicit_forms_require_positive_p(self):
        with pytest.raises(ValueError):
            p_bernoulli_odd_explicit(1, 0)
        with pytest.raises(ValueError):
            p_bernoulli_even_explicit(1, 0)

    def test_printed_variants_fail_at_witness_points(self):
        # The uncorrected odd form (upper Stirling index 2n-1, sign
        # (-1)^(k+1)) gives -1 at (1,1); the true value is -1/3.
        odd_printed = 2 * sum(
            Fraction(
                stirling2(1, k + 1) * (-1) ** (k + 1) * factorial(k + 1), k + 2
            )
            for k in range(2)
        )
        assert odd_printed == -1
        assert odd_printed != p_bernoulli(1, 1)
        # The uncorrected even form (sign (-1)^k) gives +1/20 at (1,2);
        # the true value is -1/20.
        even_printed = Fraction(3, 2) * sum(
            Fraction(stirling2(3, k + 1) * (-1) ** k * factorial(k + 1), k + 3)
            for k in range(3)
        )
        assert even_printed == Fraction(1, 20)
        assert even_printed != p_bernoulli(2, 2)


class TestMomentParity:
    def test_examples(self):
        assert fubini_moment_parity(0, 3) == (Fraction(0), Fraction(0))
        exact, parity = fubini_moment_parity(1, 2)
        assert exact == parity == Fraction(-1, 6)
        exact, parity = fubini_moment_parity(2, 3)
        assert exact == parity == Fraction(-1, 20)

    def test_grid(self):
        for p in range(9):
            for n in range(2, 16):
                exact, parity = fubini_moment_parity(p, n)
                assert exact == parity

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            fubini_moment_parity(0, 1)
