"""Bernoulli and p-Bernoulli numbers, and the Fubini integrals over [-1, 0].

Convention: B_1 = -1/2, the value of the integral of F_1 over [-1, 0];
odd-index values vanish from B_3 on.  B_n has two routes that read no
Stirling row.  ``bernoulli`` gives an odd-index B_n as 0 at once and an
even one from a tangent number; the tangent numbers are the last entries
of Knuth and Buckholtz's triangle (Math. Comp. 21, 1967), a
``combinat.rolled`` sequence of columns, so ascending requests extend it
by one column per index.  ``bernoulli`` keeps every value it has built.
The binomial recurrence is rolled too, as one list of integer numerators
over a common denominator.  The two-index family B_{n,p} is computed from
the first-kind Stirling relation and reduces to B_n at p = 0.  Integral
identities pair an exact polynomial integral with an independent
Bernoulli-sum route, returning both so callers can compare.

Two kernels do the arithmetic, each one integer sum over one common
denominator that builds a single Fraction: ``_integral`` integrates
y^k p(y) over [-1, 0] (B_n as the integral of F_n, the moments of F_n,
the product integrals of F_m F_n), and ``_bernoulli_combination`` sums
weighted Bernoulli numbers (the p-Bernoulli numbers and every
Bernoulli-sum side).  Each identity passes its own weights.  A window of
indices up to MEMO_ROWS is one integer dot product of the weights with
the recurrence's numerators, so B_{n,0} = B_n compares the two routes; a
window above or across MEMO_ROWS sums ``bernoulli``'s values over the lcm
of their denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Sequence

from .combinat import MEMO_ROWS, binomial, rolled, stirling1_row
from .exact import Poly, _over_lcm
from .polynomials import fubini_poly

_bernoulli_cache: dict[int, Fraction] = {}


def bernoulli(n: int) -> Fraction:
    """B_n, kept at every index once built; threads that race to build it
    all get the value published first.

    B_0 = 1, B_1 = -1/2, and B_n = 0 for odd n >= 3; for n = 2k >= 2

        B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)),

    where T_k is the k-th tangent number (see ``_tangent_column``).
    """
    value = _bernoulli_cache.get(n)
    if value is not None:
        return value
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        value = Fraction(1)
    elif n % 2:
        value = Fraction(-1, 2) if n == 1 else Fraction(0)
    else:
        k = n // 2
        power = 4**k
        tangent = _tangent_column(k - 1)[-1]
        value = Fraction((-1) ** (k - 1) * n * tangent, power * (power - 1))
    return _bernoulli_cache.setdefault(n, value)


@rolled([1])
def _tangent_column(col: list[int], n: int) -> list[int]:
    """Column n+1 of Knuth and Buckholtz's triangle: n+1 entries, the last
    of them the tangent number T_{n+1} (1, 2, 16, 272, ...).

    From column n, (C_1..C_n), the next column is c_1 = n C_1 and
    c_j = (n+1-j) C_j + (n+3-j) c_{j-1} for j = 2..n+1, with C_{n+1} = 0,
    so that c_{n+1} = 2 c_n = T_{n+1}.
    """
    c, nxt = 0, []
    # w = n+1-j runs from n down to 1.
    for w, t in zip(range(n, 0, -1), col):
        c = w * t + (w + 2) * c
        nxt.append(c)
    nxt.append(2 * c)
    return nxt


@rolled([1])
def _recurrence_numerators(nums: list[int], n: int) -> list[int]:
    """B_0..B_n by the binomial recurrence, as integer numerators over their
    least common denominator; as B_0 = 1, nums[0] is that denominator."""
    total = sum(binomial(n + 1, k) * c for k, c in enumerate(nums))
    value = Fraction(-total, nums[0] * (n + 1))
    den = lcm(nums[0], value.denominator)
    scale = den // nums[0]
    return [c * scale for c in nums] + [value.numerator * (den // value.denominator)]


def bernoulli_recurrence(n: int) -> Fraction:
    """B_n by the classical binomial recurrence, independent of Stirling numbers.

    B_0 = 1 and sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1.
    """
    nums = _recurrence_numerators(n)
    return Fraction(nums[n], nums[0])


def bernoulli_via_integral(n: int) -> Fraction:
    """B_n as the exact integral of F_n over [-1, 0], for n >= 1."""
    if n < 1:
        raise ValueError("integral representation stated for n >= 1")
    return _integral(fubini_poly(n))


def _integral(p: Poly, k: int = 0) -> Fraction:
    """The integral of y^k * p(y) over [-1, 0], for p = sum_i a_i y^i:

    sum_i a_i (-1)^(k+i) / (k+i+1), one integer sum over
    lcm(k+1..k+deg p+1) times the denominator of p.
    """
    nums = p.numerators
    den = lcm(*range(k + 1, k + len(nums) + 1))
    num = 0
    # m = k + i + 1 runs over the divisors.
    for m, a in enumerate(nums, k + 1):
        term = a * (den // m)
        num += term if m % 2 else -term
    return Fraction(num, den * p.denominator)


def bernoulli_binomial_sum(m: int, n: int) -> Fraction:
    """(-1)^m * sum_{j=0}^{m} C(m,j) * B_{n+j}."""
    if m < 0:
        raise ValueError("requires m >= 0")
    sign = (-1) ** m
    return _bernoulli_combination([sign * binomial(m, j) for j in range(m + 1)], n)


def _bernoulli_combination(weights: Sequence[int], start: int, divisor: int = 1) -> Fraction:
    """sum_j weights[j] * B_{start+j} / divisor as one Fraction.

    Up to MEMO_ROWS it is one dot product with the binomial recurrence's
    numerators; a window above or across it is one integer sum over the
    least common denominator of ``bernoulli``'s values.
    """
    hi = start + len(weights) - 1
    if hi <= MEMO_ROWS:
        nums = _recurrence_numerators(hi)
        window, den = nums[start : hi + 1], nums[0]
    else:
        window, den = _over_lcm(bernoulli(i) for i in range(start, hi + 1))
    return Fraction(sum(map(mul, weights, window)), den * divisor)


def fubini_moment_integral(k: int, n: int) -> tuple[Fraction, Fraction]:
    """Both routes of the moment integral of y^k * F_n(y) over [-1, 0].

    Returns (exact integral, ((-1)^k / k!) * sum_j S1u(k+1, j+1) * B_{n+j});
    the two agree for k >= 0, n >= 1.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if k < 0:
        raise ValueError("requires k >= 0")
    exact = _integral(fubini_poly(n), k)
    row = stirling1_row(k + 1)[1:]
    weights = [-s for s in row] if k % 2 else row
    return exact, _bernoulli_combination(weights, n, factorial(k))


def fubini_product_integral_exact(m: int, n: int) -> Fraction:
    """The exact integral of F_m * F_n over [-1, 0], for m, n >= 0."""
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    return _integral(fubini_poly(m) * fubini_poly(n))


def fubini_product_integral(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Both routes of the integral of F_m * F_n over [-1, 0].

    Returns (exact integral, (-1)^m * sum_j C(m,j) * B_{n+j}), equal for
    m >= 0, n >= 1.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if m < 0:
        raise ValueError("requires m >= 0")
    return fubini_product_integral_exact(m, n), bernoulli_binomial_sum(m, n)


def double_sum_identity(n: int, m: int) -> tuple[Fraction, Fraction]:
    """Termwise double sum for the product integral versus the Bernoulli sum.

    Returns (sum_{k,j} S2(n,k) S2(m,j) (-1)^(k+j) k! j! / (k+j+1),
    (-1)^m * sum_j C(m,j) * B_{n+j}); equal for n >= 1.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    coeffs_m = fubini_poly(m).numerators
    lhs = Fraction(0)
    for k, a in enumerate(fubini_poly(n).numerators):
        if a == 0:
            continue
        for j, b in enumerate(coeffs_m):
            if b == 0:
                continue
            lhs += Fraction(a * b * (-1) ** (k + j), k + j + 1)
    return lhs, bernoulli_binomial_sum(m, n)


def p_bernoulli(n: int, p: int) -> Fraction:
    """B_{n,p} from the first-kind Stirling relation:

    B_{n,p} = ((p+1) / p!) * sum_{j=0}^{p} (-1)^j * S1u(p,j) * B_{n+j}.

    This is the single source of truth for the two-index family; at p = 0
    it degenerates to B_n.
    """
    if n < 0 or p < 0:
        raise ValueError("indices must be non-negative")
    weights = [(p + 1) * (-s if j % 2 else s) for j, s in enumerate(stirling1_row(p))]
    return _bernoulli_combination(weights, n, factorial(p))


def p_bernoulli_shift_relation(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Both sides of the shifted first-kind relation, for n >= 1:

    sum_j (-1)^(j+1) S1u(p+1, j+1) B_{n+j}  versus  ((p+1)!/(p+2)) * B_{n-1, p+1}.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if p < 0:
        raise ValueError("requires p >= 0")
    weights = [s if j % 2 else -s for j, s in enumerate(stirling1_row(p + 1)[1:])]
    lhs = _bernoulli_combination(weights, n)
    rhs = Fraction(factorial(p + 1), p + 2) * p_bernoulli(n - 1, p + 1)
    return lhs, rhs


def p_bernoulli_stirling_sum(upper: int, p: int, sign: int) -> Fraction:
    """The explicit Stirling sum behind both p-Bernoulli parity formulas:

    ((p+1)/p) * sum_{k=0}^{upper-1} S2(upper, k+1) * sign * (-1)^k * (k+1)! / (k+p+1)

    for p >= 1.  The corrected odd form takes (upper, sign) = (2n, 1), the
    corrected even form (2n+1, -1).
    """
    if p < 1:
        raise ValueError("requires p >= 1")
    coeffs = fubini_poly(upper).numerators
    acc = sum(
        (Fraction(sign * (-1) ** k * coeffs[k + 1], k + p + 1) for k in range(upper)),
        Fraction(0),
    )
    return Fraction(p + 1, p) * acc


def p_bernoulli_odd_explicit(n: int, p: int) -> Fraction:
    """Explicit odd-index formula:

    B_{2n-1,p} = ((p+1)/p) * sum_{k=0}^{2n-1} S2(2n, k+1) * (-1)^k * (k+1)! / (k+p+1)

    for n >= 1, p >= 1.  Agrees with p_bernoulli(2n-1, p).
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    return p_bernoulli_stirling_sum(2 * n, p, 1)


def p_bernoulli_even_explicit(n: int, p: int) -> Fraction:
    """Explicit even-index formula:

    B_{2n,p} = ((p+1)/p) * sum_{k=0}^{2n} S2(2n+1, k+1) * (-1)^(k+1) * (k+1)! / (k+p+1)

    for n >= 1, p >= 1.  Agrees with p_bernoulli(2n, p).
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    return p_bernoulli_stirling_sum(2 * n + 1, p, -1)


def fubini_moment_parity(p: int, n: int) -> tuple[Fraction, Fraction]:
    """Both routes of the moment integral written through B_{n-1, p+1}.

    Returns (exact integral of y^p * F_n over [-1, 0], the parity form
    (-1)^p (p+1)/(p+2) B_{n-1,p+1} for odd n and (-1)^(p+1) (p+1)/(p+2)
    B_{n-1,p+1} for even n); stated for n >= 2, p >= 0.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    if p < 0:
        raise ValueError("requires p >= 0")
    exact = _integral(fubini_poly(n), p)
    sign = (-1) ** p if n % 2 == 1 else (-1) ** (p + 1)
    parity = sign * Fraction(p + 1, p + 2) * p_bernoulli(n - 1, p + 1)
    return exact, parity
