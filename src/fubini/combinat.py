"""Stirling numbers of both kinds, binomials, and their matrix identities.

``binomial_convolution`` is the one sum behind every product of
exponential generating functions in the package; each caller passes its
own two sequences.

The memo policy of the package lives here, next to MEMO_ROWS, as two
decorators that take the one lock ``_lock``: ``memo_rows`` stores a value
built from n alone for n <= MEMO_ROWS, and ``rolled`` stores the terms of
a step sequence up to MEMO_ROWS and keeps one cursor above them.  Both
Stirling triangles are rolled row by row from their recurrences.  A
single second-kind entry above MEMO_ROWS comes from the explicit
alternating sum k! S2(n, k) = sum_j (-1)^(k-j) C(k, j) j^n and builds no
row.  The signed first kind is a derived view of the unsigned triangle,
never a second table.
"""

from __future__ import annotations

import math
import threading
from functools import wraps
from itertools import repeat
from operator import add, mul

MEMO_ROWS = 64  # the highest memoized index; the full catalog reads up to 41

_lock = threading.Lock()


def memo_rows(build):
    """Memoise ``build(n)`` in the wrapper's ``memo`` dict for n <= MEMO_ROWS;
    a larger n is built on each call and not kept.

    ``build`` runs outside ``_lock``, so it may read other memos; racing
    threads all get the value published first.
    """
    memo: dict = {}

    @wraps(build)
    def value(n):
        cached = memo.get(n)
        if cached is not None:
            return cached
        if n < 0:
            raise ValueError("index must be non-negative")
        result = build(n)
        if n > MEMO_ROWS:
            return result
        with _lock:
            return memo.setdefault(n, result)

    value.memo = memo
    return value


def rolled(first):
    """Turn ``step`` into term(n) of term(0) = first, term(n) = step(term(n-1), n).

    Terms up to MEMO_ROWS are stored in the wrapper's ``terms`` dict; above
    them the last term built is kept as {n: term} in its ``cursor`` dict.
    A read rolls on from the cursor if that is not past n, else from the
    last stored term.  Steps run under ``_lock``, so they take no lock, and
    each returns a new term: the one it is given may be stored.
    """

    def decorate(step):
        terms = {0: first}
        cursor: dict = {}

        @wraps(step)
        def term(n):
            value = terms.get(n)
            if value is not None:
                return value
            if n < 0:
                raise ValueError("index must be non-negative")
            with _lock:
                m = min(n, len(terms) - 1)
                value = terms[m]
                for c, v in cursor.items():
                    if m < c <= n:
                        m, value = c, v
                while m < n:
                    m += 1
                    value = step(value, m)
                    if m <= MEMO_ROWS:
                        terms[m] = value
                if n > MEMO_ROWS:
                    cursor.clear()
                    cursor[n] = value
            return value

        term.terms, term.cursor = terms, cursor
        return term

    return decorate


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def binomial_convolution(n: int, a, b):
    """sum_{k=0}^{n} C(n,k) a[k] b[n-k], the t^n/n! coefficient of the
    product of the EGFs of two sequences of at least n+1 terms."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return sum(binomial(n, k) * a[k] * b[n - k] for k in range(n + 1))


@rolled((1,))
def stirling2_row(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n of the second-kind Stirling triangle, entries k = 0..n."""
    # S2(n, k) = k S2(n-1, k) + S2(n-1, k-1)
    return tuple(map(add, map(mul, range(n + 1), row + (0,)), (0,) + row))


@rolled((1,))
def stirling1_row(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n of the unsigned first-kind Stirling triangle, entries k = 0..n."""
    # S1u(n, k) = (n-1) S1u(n-1, k) + S1u(n-1, k-1)
    return tuple(map(add, map(mul, repeat(n - 1), row + (0,)), (0,) + row))


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
    column = [stirling2(k, j) for k in range(i + 1)]
    return binomial_convolution(i, column, (1,) * (i + 1)), stirling2(i + 1, j + 1)


def stirling_inverse_sum(n: int, m: int) -> int:
    """sum_k s1_signed(n,k) * S2(k,m); the Stirling matrices are mutually inverse,
    so this is 1 when n == m and 0 otherwise."""
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    return sum(stirling1_signed(n, k) * stirling2(k, m) for k in range(n + 1))
