"""Stirling numbers of both kinds, binomials, and their matrix identities.

Triangles are grown row by row from the defining recurrences and memoized.
The signed first kind is a derived view of the unsigned triangle, never a
second table.
"""

from __future__ import annotations

import math
import threading

_lock = threading.Lock()
_stirling2_rows: list[tuple[int, ...]] = [(1,)]
_stirling1_rows: list[tuple[int, ...]] = [(1,)]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the second-kind Stirling triangle, entries k = 0..n."""
    if n < 0:
        raise ValueError("row index must be non-negative")
    if n < len(_stirling2_rows):
        return _stirling2_rows[n]
    with _lock:
        while len(_stirling2_rows) <= n:
            prev = _stirling2_rows[-1]
            m = len(_stirling2_rows)
            row = tuple(
                k * (prev[k] if k < m else 0) + (prev[k - 1] if k >= 1 else 0)
                for k in range(m + 1)
            )
            _stirling2_rows.append(row)
    return _stirling2_rows[n]


def stirling1_row(n: int) -> tuple[int, ...]:
    """Row n of the unsigned first-kind Stirling triangle, entries k = 0..n."""
    if n < 0:
        raise ValueError("row index must be non-negative")
    if n < len(_stirling1_rows):
        return _stirling1_rows[n]
    with _lock:
        while len(_stirling1_rows) <= n:
            prev = _stirling1_rows[-1]
            m = len(_stirling1_rows)
            row = tuple(
                (m - 1) * (prev[k] if k < m else 0) + (prev[k - 1] if k >= 1 else 0)
                for k in range(m + 1)
            )
            _stirling1_rows.append(row)
    return _stirling1_rows[n]


def stirling2(n: int, k: int) -> int:
    """Stirling subset number: partitions of an n-set into k nonempty blocks."""
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    if k > n:
        return 0
    return stirling2_row(n)[k]


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling cycle number: permutations of n elements with k cycles."""
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    if k > n:
        return 0
    return stirling1_row(n)[k]


def stirling1_signed(n: int, k: int) -> int:
    """Signed first kind: (-1)^(n+k) times the unsigned value."""
    return (-1) ** (n + k) * stirling1_unsigned(n, k)


def alternating_stirling_convolution(m: int, j: int) -> int:
    """sum_{k=j}^{m} S2(m,k) * S1u(k+1,j+1) * (-1)^k.

    Equals (-1)^m * C(m,j) for all 0 <= j <= m.
    """
    if j > m:
        raise ValueError("requires j <= m")
    return sum(
        stirling2(m, k) * stirling1_unsigned(k + 1, j + 1) * (-1) ** k
        for k in range(j, m + 1)
    )


def stirling_binomial_convolution(i: int, j: int) -> tuple[int, int]:
    """Both sides of sum_k C(i,k)*S2(k,j) = S2(i+1,j+1), as a pair.

    The transposed variant sum_k S2(i,k)*C(k,j) circulates but is wrong
    (at i=2, j=0 it sums a Stirling row to a Bell number, 2, while
    S2(3,1) = 1); the catalog keeps that variant as an asserted-failure
    witness.
    """
    lhs = sum(binomial(i, k) * stirling2(k, j) for k in range(i + 1))
    return lhs, stirling2(i + 1, j + 1)


def stirling_inverse_sum(n: int, m: int) -> int:
    """sum_k s1_signed(n,k) * S2(k,m); the Stirling matrices are mutually inverse,
    so this is 1 when n == m and 0 otherwise."""
    return sum(stirling1_signed(n, k) * stirling2(k, m) for k in range(n + 1))
