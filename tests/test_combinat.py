"""Stirling triangles, binomials and the convolution identities."""

import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fubini import combinat
from fubini.combinat import (
    MEMO_ROWS,
    alternating_stirling_convolution,
    binomial,
    binomial_convolution,
    rolled,
    stirling1_row,
    stirling1_signed,
    stirling1_unsigned,
    stirling2,
    stirling2_row,
    stirling_binomial_convolution,
    stirling_inverse_sum,
)
from fubini.exact import Poly

from oracles import (
    count_partitions_by_blocks,
    count_permutations_by_cycles,
    pascal_triangle,
    rising_factorial_rows,
    stirling2_explicit,
)


class TestStirlingSecond:
    def test_base_cases(self):
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(3, 5) == 0

    def test_small_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7

    @pytest.mark.parametrize("n", range(8))
    def test_matches_partition_enumeration(self, n):
        counts = count_partitions_by_blocks(n)
        assert list(stirling2_row(n)) == counts

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_recurrence(self, n, k):
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestStirlingFirst:
    def test_base_cases(self):
        assert stirling1_unsigned(0, 0) == 1
        assert stirling1_unsigned(3, 2) == 3
        assert stirling1_unsigned(4, 2) == 11

    def test_column_one_is_factorial(self):
        for n in range(1, 12):
            assert stirling1_unsigned(n, 1) == factorial(n - 1)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_cycle_enumeration(self, n):
        counts = count_permutations_by_cycles(n)
        assert list(stirling1_row(n)) == counts

    @pytest.mark.parametrize("n", range(12))
    def test_row_sums_are_factorials(self, n):
        assert sum(stirling1_row(n)) == factorial(n)

    def test_signed_view(self):
        assert stirling1_signed(3, 1) == 2
        assert stirling1_signed(3, 2) == -3
        assert stirling1_signed(4, 2) == 11


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 0) == 1
        assert binomial(4, 2) == 6
        assert binomial(10, 5) == 252
        assert binomial(3, 7) == 0

    def test_against_pascal(self):
        rows = pascal_triangle(12)
        for n, row in enumerate(rows):
            for k, value in enumerate(row):
                assert binomial(n, k) == value


class TestConvolutions:
    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    @pytest.mark.parametrize(
        "a, b",
        [
            ([k * k - 3 for k in range(13)], [(-2) ** k for k in range(13)]),
            (
                [Fraction(k + 1, 2 * k + 3) for k in range(13)],
                [Fraction(-k, 7) for k in range(13)],
            ),
            (
                [Poly([k, 1, -k]) for k in range(13)],
                [Poly([Fraction(1, k + 1), 0, 2]) for k in range(13)],
            ),
        ],
        ids=["int", "Fraction", "Poly"],
    )
    def test_binomial_convolution_is_the_direct_sum(self, n, a, b):
        direct = a[0] * b[n]
        for k in range(1, n + 1):
            direct = direct + math.comb(n, k) * a[k] * b[n - k]
        assert binomial_convolution(n, a, b) == direct

    @pytest.mark.parametrize("n", [-1, -5])
    def test_binomial_convolution_rejects_a_negative_index(self, n):
        with pytest.raises(ValueError, match="index must be non-negative"):
            binomial_convolution(n, [1, 2], [3, 4])

    def test_alternating_convolution_examples(self):
        assert alternating_stirling_convolution(0, 0) == 1
        assert alternating_stirling_convolution(2, 0) == 1
        assert alternating_stirling_convolution(2, 1) == 2

    def test_alternating_convolution_closed_form(self):
        for m in range(25):
            for j in range(m + 1):
                assert alternating_stirling_convolution(m, j) == (-1) ** m * binomial(m, j)

    def test_requires_j_at_most_m(self):
        with pytest.raises(ValueError):
            alternating_stirling_convolution(2, 3)

    def test_binomial_convolution_examples(self):
        assert stirling_binomial_convolution(0, 0) == (1, 1)
        assert stirling_binomial_convolution(2, 1) == (3, 3)
        assert stirling_binomial_convolution(3, 2) == (6, 6)

    def test_binomial_convolution_holds_including_j_zero(self):
        for i in range(15):
            for j in range(i + 2):
                lhs, rhs = stirling_binomial_convolution(i, j)
                assert lhs == rhs

    def test_transposed_variant_is_wrong(self):
        # Summing S2(i,k) C(k,0) gives a Bell number, not S2(i+1,1).
        transposed = sum(stirling2(2, k) * binomial(k, 0) for k in range(3))
        assert transposed == 2
        assert stirling2(3, 1) == 1

    def test_inverse_law(self):
        for n in range(20):
            for m in range(20):
                assert stirling_inverse_sum(n, m) == (1 if n == m else 0)

    # A negative first index made the sums empty: (0, 0) passed as an
    # identity and the inverse sum read 0.
    @pytest.mark.parametrize("i, j", [(-1, 0), (-2, -1), (2, -1)])
    def test_binomial_convolution_rejects_negative_indices(self, i, j):
        with pytest.raises(ValueError, match="indices must be non-negative"):
            stirling_binomial_convolution(i, j)

    @pytest.mark.parametrize("n, m", [(-1, 2), (-3, -3), (2, -1)])
    def test_inverse_sum_rejects_negative_indices(self, n, m):
        with pytest.raises(ValueError, match="indices must be non-negative"):
            stirling_inverse_sum(n, m)


def test_weighted_row_sums_give_ordered_bell_numbers():
    # cross-module: sum_k S2(n,k) * k! equals the ordered-partition count
    from fubini.polynomials import fubini_number

    for n in range(12):
        weighted = sum(
            stirling2(n, k) * factorial(k) for k in range(n + 1)
        )
        assert weighted == fubini_number(n)


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling1_unsigned(2, -1)
    assert binomial(-1, 0) == 0


def test_triangle_rows_are_consistent_with_math_comb():
    assert stirling2_row(6) == (0, 1, 31, 90, 65, 15, 1)
    assert math.comb(6, 3) == binomial(6, 3)


# Rows above the memo are rolled forward from a cursor; these orders make the
# cursor step forward, restart from the memo, and jump back and forth.
HIGH_ROWS = range(MEMO_ROWS + 1, 151)
RISING_FACTORIALS = rising_factorial_rows(150)
ROW_ORDERS = {
    "ascending": list(HIGH_ROWS),
    "descending": list(reversed(HIGH_ROWS)),
    "interleaved": [n for pair in zip(HIGH_ROWS, reversed(HIGH_ROWS)) for n in pair],
}


class TestRowsAboveTheMemo:
    def test_memo_covers_the_catalog(self):
        assert MEMO_ROWS >= 41

    @pytest.mark.parametrize("order", sorted(ROW_ORDERS))
    def test_second_kind_rows_match_the_explicit_sum(self, order):
        for n in ROW_ORDERS[order]:
            row = stirling2_row(n)
            assert len(row) == n + 1
            for k in {0, 1, 2, n // 3, n // 2, n - 2, n - 1, n}:
                assert row[k] == stirling2_explicit(n, k), (n, k)

    @pytest.mark.parametrize("order", sorted(ROW_ORDERS))
    def test_first_kind_rows_match_the_rising_factorial(self, order):
        for n in ROW_ORDERS[order]:
            assert list(stirling1_row(n)) == RISING_FACTORIALS[n], n

    def test_single_second_kind_entries_match_the_rolled_rows(self, forget):
        # Above MEMO_ROWS an entry is the explicit alternating sum and the row
        # is the recurrence: two independent routes.  Descending rows on a
        # cold memo make each row restart from the stored rows.
        forget(stirling2_row)
        for n in range(150, MEMO_ROWS - 1, -1):
            row = stirling2_row(n)
            for k in range(n + 2):
                expected = row[k] if k <= n else 0
                assert stirling2(n, k) == expected, (n, k)

    def test_single_entry_edge_cases_above_the_memo(self):
        n = MEMO_ROWS + 1
        assert stirling2(n, 0) == 0
        assert stirling2(n, 1) == 1
        assert stirling2(n, n - 1) == math.comb(n, 2)
        assert stirling2(n, n) == 1
        assert stirling2(n, n + 1) == 0

    def test_single_entry_above_the_memo_builds_no_row(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("stirling2 rolled a row")

        class ForbiddenLock:
            def __enter__(self):
                raise AssertionError("stirling2 took the row lock")

            def __exit__(self, *exc):
                return False

        stirling2_row(MEMO_ROWS + 30)  # leave a row in the cursor
        cursor = dict(stirling2_row.cursor)
        monkeypatch.setattr(combinat, "stirling2_row", forbidden)
        monkeypatch.setattr(combinat, "_lock", ForbiddenLock())
        assert stirling2(MEMO_ROWS + 1, 2) == 2 ** MEMO_ROWS - 1
        assert stirling2(300, 150) > 0
        assert stirling2(1000, 3) == (3**1000 - 3 * 2**1000 + 3) // 6
        assert stirling2_row.cursor == cursor

    def test_rows_above_the_memo_are_not_stored(self):
        stirling2_row(500)
        stirling1_row(500)
        assert len(stirling2_row.terms) <= MEMO_ROWS + 1
        assert len(stirling1_row.terms) <= MEMO_ROWS + 1
        assert list(stirling2_row.cursor) == list(stirling1_row.cursor) == [500]


def _counted_sequence():
    """A fresh rolled sequence t(0) = 1, t(n) = n t(n-1) + 1, and the list of
    indices its step has been called at."""
    steps = []

    @rolled(1)
    def term(prev, n):
        steps.append(n)
        return n * prev + 1

    return term, steps


COLD = [1]
for _n in range(1, 151):
    COLD.append(_n * COLD[-1] + 1)


class TestRolled:
    @pytest.mark.parametrize("order", sorted(ROW_ORDERS))
    def test_reads_above_the_memo_match_a_cold_build(self, order):
        term, _ = _counted_sequence()
        for n in ROW_ORDERS[order]:
            assert term(n) == COLD[n], n
            assert list(term.cursor) == [n]
        assert term.terms == dict(enumerate(COLD[: MEMO_ROWS + 1]))

    def test_ascending_reads_cost_one_step_per_index(self):
        term, steps = _counted_sequence()
        for n in range(151):
            term(n)
        assert steps == list(range(1, 151))
        term(100)  # below the cursor: rolls on from the last stored term
        assert steps[150:] == list(range(MEMO_ROWS + 1, 101))

    def test_negative_index_is_rejected(self):
        term, steps = _counted_sequence()
        with pytest.raises(ValueError):
            term(-1)
        assert steps == []
