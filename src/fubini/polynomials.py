"""Fubini (ordered Bell) polynomials and numbers.

The polynomial of index n is F_n(y) = sum_k S2(n,k) * k! * y^k; its value
at y = 1 counts ordered set partitions of an n-element set.  This module
builds the family by several independent routes (triangle sum, derivative
recurrence, reflection form, split form, power sum) plus the two-variable
extension F_n(x;y) = sum_k C(n,k) * F_k(y) * x^(n-k).  Route agreement is
what the identity catalog checks; each route is kept self-contained here.

Only ``fubini_poly`` multiplies a Stirling row by k!; the other routes
here, in ``apostol`` and in ``bernoulli_numbers`` read S2(n,k) k! as its
coefficients, except the power sum, which reads no Stirling number:
``fubini_two_var_eval`` sums F_n(x;y) = sum_i (x+i)^n W_i(y) in O(n)
big-integer steps, while the BiPoly ``fubini_two_var`` keeps the
convolution.  ``fubini_number`` reads that sum at (0, 1) at every index;
``table fubini`` in the CLI reads F_n(1) at every index, since an
ascending table rolls one Stirling row per index.

F_n and F_n(x;y) are ``combinat.memo_rows`` memos and the derivative
recurrence is a ``combinat.rolled`` sequence: each keeps its values up to
MEMO_ROWS, and above it F_n and F_n(x;y) are rebuilt on each call while
the recurrence keeps one cursor.  The point evaluators sum integer
numerators over one common denominator and build one Fraction per call
instead of several per term: the split form at y = c/d over
d^n (2c+d)^(n+1), the power sum at (a/b, c/d) over (bd)^n (c+d)^(n+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinat import binomial, memo_rows, rolled, stirling2_row
from .exact import BiPoly, Poly, Scalar, _exact

BRUTEFORCE_CAP = 10


@memo_rows
def fubini_poly(n: int) -> Poly:
    """F_n(y) from the Stirling triangle: sum_k S2(n,k) * k! * y^k."""
    coeffs, factorial_k = [], 1
    for k, s in enumerate(stirling2_row(n)):
        coeffs.append(s * factorial_k)
        factorial_k *= k + 1
    return Poly(coeffs)


@rolled(Poly.constant(1))
def fubini_poly_recurrence(prev: Poly, n: int) -> Poly:
    """F_n(y) from F_0 = 1 and F_{m+1}(y) = y * d/dy[(1+y) * F_m(y)]."""
    return Poly.variable() * (Poly([1, 1]) * prev).derivative()


def fubini_number(n: int) -> int:
    """The n-th Fubini number F_n = F_n(1), read at every n from the power
    sum of ``fubini_two_var_eval`` at (0, 1), which builds no Stirling row
    and reads no F_k; the catalog compares it with the F_n(1) of the
    Stirling triangle."""
    return fubini_two_var_eval(n, 0, 1).numerator


@memo_rows
def ordered_partition_block_counts(n: int) -> tuple[int, ...]:
    """Count ordered set partitions of an n-set by block count, index k = #blocks.

    Direct enumeration: every set partition is generated as a restricted
    growth string, then weighted by the k! orderings of its blocks.  No
    Stirling numbers are involved.  A ``combinat.memo_rows`` memo, so that
    F_n by enumeration and the block counts share one enumeration per n;
    as BRUTEFORCE_CAP <= MEMO_ROWS, every count it builds is kept.
    """
    if n > BRUTEFORCE_CAP:
        raise ValueError(f"enumeration capped at n <= {BRUTEFORCE_CAP}, got {n}")
    partitions = [0] * (n + 1)

    def assign(i: int, used: int) -> None:
        if i == n:
            partitions[used] += 1
            return
        for block in range(used + 1):
            assign(i + 1, max(used, block + 1))

    assign(0, 0)
    return tuple(partitions[k] * factorial(k) for k in range(n + 1))


def fubini_number_bruteforce(n: int) -> int:
    """F_n by exhaustive enumeration of ordered set partitions."""
    return sum(ordered_partition_block_counts(n))


@memo_rows
def fubini_two_var(n: int) -> BiPoly:
    """Two-variable polynomial F_n(x;y) = sum_k C(n,k) * F_k(y) * x^(n-k)."""
    # Row n-k (the coefficient of x^(n-k)) is C(n,k) * F_k(y); every F_k
    # has integer coefficients, so its numerators are the coefficients.
    return BiPoly(
        [binomial(n, k) * c for c in fubini_poly(k).numerators] for k in range(n, -1, -1)
    )


def fubini_two_var_eval(n: int, x: Scalar, y: Scalar) -> Fraction:
    """F_n(x;y) at a rational point, via the power-sum form

    F_n(x;y) = sum_{i=0}^{n} (x+i)^n W_i(y),
    W_i(y) = sum_{j=i}^{n} (-1)^(j-i) C(j,i) y^j,

    which k! S2(k,j) = sum_i (-1)^(j-i) C(j,i) i^k gives from the
    convolution; it reads no Stirling row and no F_k.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    xv, yv = _exact(x), _exact(y)
    a, b = xv.numerator, xv.denominator
    c, d = yv.numerator, yv.denominator
    e = c + d  # 1 + y = e/d
    if e == 0:
        # F_k(-1) = (-1)^k, so the convolution is a binomial expansion.
        return Fraction((a - b) ** n, b**n)
    # W_i = (-1)^i tau_i / (d^n e^(i+1)), where (1+y) W_i = y W_(i-1) +
    # (-1)^(n-i) C(n+1,i) y^(n+1) gives tau_0 = d^(n+1) - (-c)^(n+1) and
    # tau_i = -c tau_(i-1) - C(n+1,i) (-c)^(n+1) e^i.  Over (bd)^n e^(n+1)
    # term i is (-1)^i (a+ib)^n tau_i e^(n-i); the sum runs as a Horner
    # scheme in e.
    lead = (-c) ** (n + 1)
    tau, tail = d ** (n + 1) - lead, lead
    total = 0
    for i in range(n + 1):
        if i:
            # C(n+1,i) = C(n+1,i-1) (n+2-i) / i, exact at every step.
            tail = tail * e * (n + 2 - i) // i
            tau = -c * tau - tail
        term = (a + i * b) ** n * tau
        total = total * e + (-term if i % 2 else term)
    return Fraction(total, (b * d) ** n * e ** (n + 1))


def fubini_reflection_form(n: int) -> Poly:
    """F_n(y) rebuilt from the reflection route:

    y * sum_{k=1}^{n} S2(n,k) * (-1)^(n+k) * k! * (y+1)^(k-1), valid for n >= 1.
    """
    if n < 1:
        raise ValueError("reflection form requires n >= 1")
    one_plus_y = Poly([1, 1])
    coeffs = fubini_poly(n).numerators
    total = Poly.zero()
    power = Poly.constant(1)
    for k in range(1, n + 1):
        total = total + (coeffs[k] * (-1) ** (n + k)) * power
        power = power * one_plus_y
    return Poly.variable() * total


def fubini_split_eval(n: int, y: Scalar) -> Fraction:
    """Value of the split form of F_n at a rational y != -1/2:

    sum_k S2(n,k) k! y^k [2^(n+1) (y+1) y^k + (-1)^(k+1)] / (2y+1)^(k+1).
    """
    yv = _exact(y)
    # With y = c/d and 2y+1 = e/d, term k over d^n e^(n+1) is
    # a_k c^k (de)^(n-k) [2^(n+1) (c+d) c^k + (-1)^(k+1) d^(k+1)], where
    # a_k = S2(n,k) k! is the coefficient of y^k in F_n; the sum runs as a
    # Horner scheme in de.
    c, d = yv.numerator, yv.denominator
    e = 2 * c + d
    if e == 0:
        raise ValueError("split form is singular at y = -1/2")
    de, lead = d * e, 2 ** (n + 1) * (c + d)
    total, c_k, tail = 0, 1, -d
    for a in fubini_poly(n).numerators:
        total = total * de + a * c_k * (lead * c_k + tail)
        c_k *= c
        tail *= -d
    return Fraction(total, d**n * e ** (n + 1))


def fubini_split_collapse(n: int) -> tuple[Poly, Poly]:
    """Both sides of the split form after clearing (2y+1)^(n+1).

    Returns (F_n(y) * (2y+1)^(n+1), the cleared split sum); the pair is
    equal as polynomials, which certifies that the split form collapses
    to F_n everywhere away from y = -1/2.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    y = Poly.variable()
    two_y_plus_1 = Poly([1, 2])
    poly = fubini_poly(n)
    lhs = poly * two_y_plus_1 ** (n + 1)
    rhs = Poly.zero()
    for k, a in enumerate(poly.numerators):
        if a == 0:
            continue
        bracket = (2 ** (n + 1)) * Poly([1, 1]) * y**k + Poly.constant((-1) ** (k + 1))
        rhs = rhs + a * y**k * bracket * two_y_plus_1 ** (n - k)
    return lhs, rhs


def fubini_number_split_sum(n: int) -> Fraction:
    """F_n via the split form at y = 1: sum_k S2(n,k) k! [2^(n+2) + (-1)^(k+1)] / 3^(k+1)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return fubini_split_eval(n, 1)


def fubini_number_split_sum_neg2(n: int) -> Fraction:
    """F_n via the split form at y = -2:

    sum_k (-1)^(n-k) S2(n,k) k! 2^(k-1) [2^(n+k+1) + 1] / 3^(k+1), for n >= 1,

    which is (-1)^n F_n(-2) / 2 with F_n(-2) from the split form.
    """
    if n < 1:
        raise ValueError("this specialization requires n >= 1")
    return (-1) ** n * fubini_split_eval(n, -2) / 2


def geometric_moment_partial_sum(n: int, x: Scalar, terms: int) -> Fraction:
    """Exact partial sum sum_{k=0}^{terms} k^n x^k for |x| < 1.

    As terms grows this approaches F_n(x/(1-x)) / (1-x); at x = 1/2 the
    limit is 2 * F_n.
    """
    xv = _exact(x)
    if abs(xv) >= 1:
        raise ValueError("requires |x| < 1")
    if n < 0 or terms < 0:
        raise ValueError("indices must be non-negative")
    total = Fraction(0)
    xk = Fraction(1)
    for k in range(terms + 1):
        total += k**n * xk
        xk *= xv
    return total
