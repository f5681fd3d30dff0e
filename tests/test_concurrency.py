"""Memoized tables must look compute-once to concurrent readers."""

import operator
import sys
from concurrent.futures import ThreadPoolExecutor

from fubini import bernoulli_numbers
from fubini.apostol import apostol_bernoulli
from fubini.bernoulli_numbers import (
    bernoulli,
    bernoulli_recurrence,
    bernoulli_tangent,
    p_bernoulli,
)
from fubini.combinat import MEMO_ROWS, stirling1_row, stirling2, stirling2_row
from fubini.polynomials import fubini_poly, fubini_poly_recurrence, fubini_two_var

from oracles import p_bernoulli_ref

# Indices above MEMO_ROWS.  The Stirling rows, the tangent-number columns and
# both recurrences are rolled forward from one shared cursor each, so threads
# asking for different indices move the cursors back and forth; a single
# second-kind entry there is an explicit sum that builds no row, and an even
# B_n comes from zeta(n) and the most precise pi kept so far.
HIGH = [MEMO_ROWS + 1 + 13 * i for i in range(4)]


def _read_all(seed: int) -> dict:
    n = HIGH[seed % len(HIGH)]
    return {
        # Read first, so that cold threads race to roll the same terms.
        "stored": [
            stirling2_row(MEMO_ROWS),
            stirling1_row(MEMO_ROWS),
            fubini_poly_recurrence(MEMO_ROWS),
            bernoulli_numbers._recurrence_numerators(MEMO_ROWS),
        ],
        "s2": stirling2_row(120),
        "s1": stirling1_row(120),
        "bern": bernoulli(60),
        "fub": fubini_poly_recurrence(50),
        "fub_rows": [fubini_poly(n) for n in range(MEMO_ROWS + 1)],
        "two": fubini_two_var(25),
        "ab": apostol_bernoulli(22),
        "s2_high": stirling2_row(n),
        "s1_high": stirling1_row(n),
        "s2_entries_high": [stirling2(n, k) for k in (0, 1, n // 2, n - 1, n)],
        "bern_high": bernoulli(n),
        "tangent_high": bernoulli_tangent(n),
        "fub_high": fubini_poly_recurrence(n),
        "bern_rec_high": bernoulli_recurrence(n),
    }


def test_concurrent_readers_see_single_threaded_values(monkeypatch, forget):
    expected = [_read_all(seed) for seed in range(len(HIGH))]
    # The threads then build every Bernoulli number, every memoised F_n, the
    # Stirling rows and both recurrences again, racing each other.
    monkeypatch.setattr(bernoulli_numbers, "_bernoulli_cache", {})
    monkeypatch.setattr(bernoulli_numbers, "_pi_kept", (0, 0))
    forget(
        stirling2_row,
        stirling1_row,
        bernoulli_numbers._tangent_column,
        bernoulli_numbers._recurrence_numerators,
        fubini_poly,
        fubini_poly_recurrence,
    )
    for seed, values in enumerate(expected):
        assert values["bern_high"] == values["tangent_high"] == bernoulli_recurrence(HIGH[seed])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the row steps too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(_read_all, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for seed, result in enumerate(results):
        assert result == expected[seed % len(HIGH)]
        # A stored term is built once: every thread holds the same object.
        assert all(map(operator.is_, result["stored"], results[0]["stored"])), seed


def test_concurrent_high_bernoulli_numbers_are_computed_once(monkeypatch):
    # Even indices above the memo come from zeta(n); threads asking in
    # opposite orders race to build and replace the kept pi, and each must
    # read one precise enough for its index.
    indices = [MEMO_ROWS + 1 + 9 * i for i in range(12)]  # odd and even
    monkeypatch.setattr(bernoulli_numbers, "_bernoulli_cache", {})
    monkeypatch.setattr(bernoulli_numbers, "_pi_kept", (0, 0))

    def read(seed: int) -> list:
        order = indices if seed % 2 else indices[::-1]
        values = {n: bernoulli(n) for n in order}
        return [values[n] for n in indices]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for i, n in enumerate(indices):
        first = results[0][i]
        assert all(result[i] is first for result in results), n
        assert first == bernoulli_recurrence(n), n


def test_concurrent_weighted_sums_over_the_recurrence_see_single_threaded_values(forget):
    # Each thread sums windows up to a different top index, so cold threads
    # race to roll the recurrence's numerators to different lengths.
    tops = [3, 17, MEMO_ROWS // 2, MEMO_ROWS]
    forget(bernoulli_numbers._recurrence_numerators)

    def spots(h: int) -> list[tuple[int, int]]:
        return [(n, p) for n in range(h - 2, -1, -7) for p in (0, 1, 2)]

    def read(seed: int) -> list:
        return [p_bernoulli(n, p) for n, p in spots(tops[seed % len(tops)])]

    singles = [[p_bernoulli_ref(n, p) for n, p in spots(h)] for h in tops]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for seed, result in enumerate(results):
        assert result == singles[seed % len(tops)], seed


def test_cached_values_are_shared_not_recomputed():
    assert stirling2_row(40) is stirling2_row(40)
    assert fubini_poly_recurrence(30) is fubini_poly_recurrence(30)
    assert fubini_poly(30) is fubini_poly(30)
    assert apostol_bernoulli(12) is apostol_bernoulli(12)
    assert bernoulli(40) is bernoulli(40)
