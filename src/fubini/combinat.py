"""Stirling numbers of both kinds, binomials, and their matrix identities.

Triangles are grown row by row from the defining recurrences; rows up to
MEMO_ROWS are memoized.  A single second-kind entry above MEMO_ROWS comes
from the explicit alternating sum k! S2(n, k) = sum_j (-1)^(k-j) C(k, j) j^n
and builds no row.  The signed first kind is a derived view of the
unsigned triangle, never a second table.
"""

from __future__ import annotations

import math
import threading
from itertools import repeat
from operator import add, mul

MEMO_ROWS = 64  # the highest memoized row; the full catalog reads up to 41

_lock = threading.Lock()
_stirling2_rows: list[tuple[int, ...]] = [(1,)]
_stirling1_rows: list[tuple[int, ...]] = [(1,)]
_cursor: dict[int, tuple[int, ...]] = {}  # last row above MEMO_ROWS, by memo id


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def _row(rows: list[tuple[int, ...]], weights, n: int) -> tuple[int, ...]:
    """Row n of the triangle T(m, k) = weights(m)[k] * T(m-1, k) + T(m-1, k-1).

    A row above MEMO_ROWS is not stored: it is rolled forward from the last
    such row built if that is not past n, else from the memo's last row.
    """
    if n < 0:
        raise ValueError("row index must be non-negative")
    with _lock:
        row = _cursor.get(id(rows), rows[-1])
        row = row if len(row) <= n + 1 else rows[-1]
        while len(row) <= n:
            m = len(row)
            row = tuple(map(add, map(mul, weights(m), row + (0,)), (0,) + row))
            if m == len(rows) <= MEMO_ROWS:
                rows.append(row)
        if n > MEMO_ROWS:
            _cursor[id(rows)] = row
    return rows[n] if n < len(rows) else row


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the second-kind Stirling triangle, entries k = 0..n."""
    rows = _stirling2_rows
    return rows[n] if 0 <= n < len(rows) else _row(rows, lambda m: range(m + 1), n)


def stirling1_row(n: int) -> tuple[int, ...]:
    """Row n of the unsigned first-kind Stirling triangle, entries k = 0..n."""
    rows = _stirling1_rows
    return rows[n] if 0 <= n < len(rows) else _row(rows, lambda m: repeat(m - 1), n)


def stirling2(n: int, k: int) -> int:
    """Stirling subset number: partitions of an n-set into k nonempty blocks."""
    if n < 0 or k < 0:
        raise ValueError("indices must be non-negative")
    if k > n:
        return 0
    if n <= MEMO_ROWS:
        return stirling2_row(n)[k]
    total, binom = 0, 1  # the j = 0 term is 0^n = 0
    for j in range(1, k + 1):
        binom = binom * (k - j + 1) // j
        term = binom * j**n
        total += -term if (k - j) % 2 else term
    return total // math.factorial(k)


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
    if i < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    lhs = sum(binomial(i, k) * stirling2(k, j) for k in range(i + 1))
    return lhs, stirling2(i + 1, j + 1)


def stirling_inverse_sum(n: int, m: int) -> int:
    """sum_k s1_signed(n,k) * S2(k,m); the Stirling matrices are mutually inverse,
    so this is 1 when n == m and 0 otherwise."""
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    return sum(stirling1_signed(n, k) * stirling2(k, m) for k in range(n + 1))
