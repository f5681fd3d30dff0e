"""Bernoulli and p-Bernoulli numbers, and the Fubini integrals over [-1, 0].

Convention: B_1 = -1/2, the value of the integral of F_1 over [-1, 0];
odd-index values vanish from B_3 on.  B_n has three routes that read no
Stirling row:

* ``bernoulli_tangent`` takes an even B_n from a tangent number, the last
  entry of a column of Knuth and Buckholtz's triangle (Math. Comp. 21,
  1967).  The columns are a ``combinat.rolled`` sequence, so ascending
  requests extend them by one column per index, and one index n costs
  O(n^2) big-integer steps.  ``table bernoulli`` reads it at every index.
* ``bernoulli_zeta`` takes an even B_n from 2 n! zeta(n) / (2 pi)^n and
  its exact denominator from von Staudt-Clausen, in fixed point with
  every truncation bounded (Fillebrown, J. Algorithms 13, 1992): pi by
  Chudnovsky's series, zeta(n) by its Euler product.  Of these it keeps
  only the most precise pi built so far.
* ``bernoulli_recurrence`` rolls the binomial recurrence as one list of
  integer numerators over a common denominator; the weighted sums below
  read those numerators for windows up to MEMO_ROWS.

``bernoulli`` reads ``bernoulli_zeta`` at an even index above MEMO_ROWS
and ``bernoulli_tangent`` at every other index, and keeps every value it
has built.  The two-index family B_{n,p} is computed from the first-kind
Stirling relation and reduces to B_n at p = 0.  Integral identities pair
an exact polynomial integral with an independent Bernoulli-sum route,
returning both so callers can compare.

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
from itertools import compress
from math import factorial, isqrt, lcm, prod
from operator import mul
from typing import Sequence

from .combinat import MEMO_ROWS, _lock, binomial, rolled, stirling1_row
from .exact import Poly, _over_lcm
from .polynomials import fubini_poly

_bernoulli_cache: dict[int, Fraction] = {}


def bernoulli(n: int) -> Fraction:
    """B_n, kept at every index once built; threads that race to build it
    all get the value published first.

    An even index above MEMO_ROWS is read from ``bernoulli_zeta``, every
    other index from ``bernoulli_tangent``.
    """
    value = _bernoulli_cache.get(n)
    if value is not None:
        return value
    if n > MEMO_ROWS and n % 2 == 0:
        value = bernoulli_zeta(n)
    else:
        value = bernoulli_tangent(n)
    return _bernoulli_cache.setdefault(n, value)


def bernoulli_tangent(n: int) -> Fraction:
    """B_n from a tangent number, built on each call.

    B_0 = 1, B_1 = -1/2, and B_n = 0 for odd n >= 3; for n = 2k >= 2

        B_2k = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)),

    where T_k is the k-th tangent number (see ``_tangent_column``).
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        return Fraction(1)
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    k = n // 2
    power = 4**k
    tangent = _tangent_column(k - 1)[-1]
    return Fraction((-1) ** (k - 1) * n * tangent, power * (power - 1))


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


def bernoulli_zeta(n: int) -> Fraction:
    """B_n for an even n >= 4 from zeta(n) and von Staudt-Clausen, built on
    each call and reading no tangent column.  (At n = 2 the Euler product
    below would need every prime below 2^38.)

    B_n = (-1)^(n/2+1) 2 n! zeta(n) / (2 pi)^n, and von Staudt-Clausen
    gives its denominator exactly: D = prod p over the primes p with
    (p-1) | n.  So N = |B_n| D = K zeta(n) / (2 pi)^n, K = 2 n! D, is an
    integer, found by computing it to within 2^-g, g = 32.

    As zeta(n) < 2 and log2(2 pi) > 2.65, |N| < 2^b with
    b = bits(K) + 1 - floor(2.65 n).  With m = b + g + 3, both factors are
    computed to within a relative 2^-m:

    * (2 pi)^n: pi to q = m + bits(n) + 2 bits, |pi - P/2^q| < 2^(1-q)
      (``_pi_fixed``), a relative error below 2^-q, which the n-th power
      turns into at most 2n 2^-q.  The power is taken by squaring with
      each product cut to q bits (``_pow_truncated``), which lowers it by
      at most a relative 2n 2^-q.  Together that is 4n 2^-q <= 2^-m.
    * zeta(n): the Euler product prod (1 - p^-n)^-1 over the primes p with
      p^(n-1) < 2^(m+2).  The factors of the other primes add at most
      sum_{k >= L} k^-n <= L^-n + L^(1-n)/(n-1) < 2^(-m-1), where L is
      the least integer with L^(n-1) >= 2^(m+2).  The product of r factors
      runs in fixed point with f = m + bits(r) + 3 fraction bits; each
      factor adds its term to within 2 units of 2^-f
      (``_zeta_euler_product``), and the factors after it scale that
      error by at most zeta(n) < 2: under 4r units, a relative 2^(-m-1).

    Their quotient is then within a relative 2^(2-m) of zeta(n) / (2 pi)^n,
    so K times it is within 2^(b+2-m) = 2^(-g-1) of N, and the final floor
    division at 2^-(g+1) loses less than that again: the scaled value is
    within 2^-g of the integer N.  Should it land farther from every
    integer, near a half-integer say, ArithmeticError is raised instead of
    rounding to a wrong value.
    """
    if n < 4 or n % 2:
        raise ValueError("the zeta route takes an even index n >= 4")
    g = 32
    primes = _primes_upto(n + 1)
    den = _staudt_clausen_denominator(n, primes)
    scale = 2 * factorial(n) * den
    m = scale.bit_length() + 1 - 265 * n // 100 + g + 3
    # Every p with p^(n-1) < 2^(m+2) lies below 2^ceil((m+2)/(n-1)).
    bound = 1 << -(-(m + 2) // (n - 1))
    if bound > n + 1:
        primes = _primes_upto(bound)
    zeta, zeta_bits = _zeta_euler_product(n, m, primes)
    q = m + n.bit_length() + 2
    power, exponent = _pow_truncated(_pi_fixed(q), q, n)
    # N 2^(g+1) = K zeta 2^(g+1) / (power 2^(exponent+n)); each floor
    # division by a power of two and then by ``power`` is one floor.
    shift = exponent + n + zeta_bits - g - 1
    product = scale * zeta
    scaled = (product >> shift if shift >= 0 else product << -shift) // power
    value = (scaled + (1 << g)) >> (g + 1)
    if abs(scaled - (value << (g + 1))) >= 2:
        raise ArithmeticError(f"B_{n} lies outside its error bound")
    return Fraction(value if n % 4 == 2 else -value, den)


def _staudt_clausen_denominator(n: int, primes: Sequence[int]) -> int:
    """The denominator of B_n for an even n >= 2, by von Staudt-Clausen: the
    product of the primes p with (p-1) | n, all of them in ``primes``."""
    return prod(p for p in primes if n % (p - 1) == 0)


def _primes_upto(limit: int) -> list[int]:
    """The primes p <= limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def _zeta_euler_product(n: int, m: int, primes: Sequence[int]) -> tuple[int, int]:
    """(Z, f) with Z 2^-f within a relative 2^-m of zeta(n), from the Euler
    factors of the primes p with p^(n-1) < 2^(m+2); see ``bernoulli_zeta``.

    Each factor adds Z/d, d = p^n - 1 of t bits, to Z < 2^(f+1).  Both are
    first cut by s = 2t - f - 3 bits when that is positive: with
    Z' = floor(Z/2^s) and d' = floor(d/2^s) >= 2^(t-1-s), Z/d differs from
    Z'/d' by at most max(1, Z'/d')/d' <= max(2^(s+1-t), 2^(f+3+s-2t)) <= 1
    while t <= f + 2, and the floor adds less than 1.  A larger d exceeds Z,
    and its factor adds less than one unit, which is not added.
    """
    powers = []
    for p in primes:
        power = p**n
        if power >> (m + 2) >= p:
            break
        powers.append(power - 1)
    f = m + len(powers).bit_length() + 3
    z = 1 << f
    for d in powers:
        t = d.bit_length()
        s = max(0, 2 * t - f - 3)
        if s < t:
            z += (z >> s) // (d >> s)
    return z, f


def _pow_truncated(x: int, q: int, n: int) -> tuple[int, int]:
    """(M, e) with M of q bits and M 2^e = (x 2^-q)^n less a relative
    2n 2^-q at most.

    A left-to-right square-and-multiply that cuts each product to its
    leading q bits, a relative loss below 2^(1-q); the squarings after a
    cut raise it to a power, and these powers sum to less than n.
    """
    mantissa, exponent = x, -q
    for bit in bin(n)[3:]:
        mantissa, exponent = mantissa * mantissa, 2 * exponent
        if bit == "1":
            mantissa, exponent = mantissa * x, exponent - q
        cut = mantissa.bit_length() - q
        mantissa, exponent = mantissa >> cut, exponent + cut
    return mantissa, exponent


# The most precise pi built so far, as (q, P) with |pi - P/2^q| < 2^(1-q).
_pi_kept = (0, 0)


def _pi_fixed(q: int) -> int:
    """An integer P with |pi - P/2^q| < 2^(1-q).

    Read from the most precise pi built so far when that has q bits or
    more: shifting it right keeps the bound.  Otherwise pi is built at
    w = q + q // 4 bits, a quarter more, so that the rising indices of one
    p-Bernoulli window build it once, and kept.

    Chudnovsky's series, 1/pi = sum_k t_k / (426880 sqrt(10005)) with
    t_k = (-1)^k (6k)! (13591409 + 545140134 k) / ((3k)! k!^3 640320^(3k)),
    is summed by binary splitting.  Its terms fall by a factor below
    2^-45 each (2^-45.6 from t_0 to t_1, and at most
    1728 * 2 / 640320^3 < 2^-46 after it), so its first w // 45 + 2 terms
    sum to T / Q within a relative 2^(-w-45).  With
    s = floor(sqrt(10005) 2^w), a relative error below 2^(-w-6),
    P = floor(426880 s Q / T) lies within 0.05 + 1 of pi 2^w.
    """
    global _pi_kept
    kept_bits, kept = _pi_kept
    if kept_bits < q:
        kept_bits = q + q // 4
        _, den, total = _chudnovsky_split(0, kept_bits // 45 + 2)
        root = isqrt(10005 << 2 * kept_bits)
        kept = 426880 * root * den // total
        with _lock:
            if _pi_kept[0] < kept_bits:
                _pi_kept = (kept_bits, kept)
    return kept >> (kept_bits - q)


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) of Chudnovsky's terms t_a..t_(b-1), merged by binary
    splitting; the first b terms sum to T / Q (see ``_pi_fixed``)."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * 10939058860032000  # 640320^3 / 24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a % 2 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, mid)
    p2, q2, t2 = _chudnovsky_split(mid, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


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
