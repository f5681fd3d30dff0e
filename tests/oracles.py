"""Independent brute-force oracles used only by the test suite.

Each oracle recomputes a quantity by literal enumeration or by a
classical algorithm that shares no code path with the library: set
partitions are generated as explicit block structures, cycle counts come
from itertools.permutations, large Stirling numbers from the explicit
alternating sum and the rising-factorial product, binomials from
Pascal's triangle, Bernoulli numbers from the Akiyama-Tanigawa scheme,
polynomial gcds and quotients in lowest terms from Euclid's algorithm
over Q, polynomial arithmetic
from schoolbook formulas on plain lists of Fraction coefficients, and the
point evaluators of the library (the split form of F_n, the two-variable
convolution, the moment integral of y^k F_n, the p-Bernoulli numbers and
the binomial-, Stirling- and shift-weighted Bernoulli sums) term by term
in Fractions.  The explicit sum is also the formula `combinat.stirling2`
uses for a single entry above `combinat.MEMO_ROWS`, so
`stirling2_explicit` checks only the rolled rows of `stirling2_row`,
never such an entry.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def set_partitions(elements: tuple) -> list[list[tuple]]:
    """All set partitions of the given elements, as lists of blocks."""
    if not elements:
        return [[]]
    first, rest = elements[0], elements[1:]
    result = []
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            grown = [list(b) for b in partition]
            grown[i].append(first)
            result.append([tuple(b) for b in grown])
        result.append([tuple(b) for b in partition] + [(first,)])
    return result


def count_partitions_by_blocks(n: int) -> list[int]:
    """counts[k] = set partitions of an n-set into exactly k blocks."""
    counts = [0] * (n + 1)
    for partition in set_partitions(tuple(range(n))):
        counts[len(partition)] += 1
    return counts


def ordered_partitions(n: int) -> list[tuple[tuple, ...]]:
    """All ordered set partitions of {0..n-1} as tuples of blocks."""
    result = []
    for partition in set_partitions(tuple(range(n))):
        for order in itertools.permutations(partition):
            result.append(tuple(order))
    return result


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
    return cycles


def count_permutations_by_cycles(n: int) -> list[int]:
    """counts[k] = permutations of n elements with exactly k cycles."""
    counts = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        counts[cycle_count(perm)] += 1
    return counts


def pascal_triangle(n_max: int) -> list[list[int]]:
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append(
            [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]
        )
    return rows


def stirling2_explicit(n: int, k: int) -> int:
    """S2(n, k) from k! * S2(n, k) = sum_j (-1)^(k-j) * C(k, j) * j^n."""
    total = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
    quotient, remainder = divmod(total, math.factorial(k))
    assert remainder == 0
    return quotient


def fubini_split_eval_ref(n: int, y) -> Fraction:
    """sum_k S2(n,k) k! y^k [2^(n+1) (y+1) y^k + (-1)^(k+1)] / (2y+1)^(k+1),
    one Fraction operation at a time; singular at y = -1/2."""
    yv = Fraction(y)
    if yv == Fraction(-1, 2):
        raise ValueError("split form is singular at y = -1/2")
    two_y_plus_1 = 2 * yv + 1
    total = Fraction(0)
    for k in range(n + 1):
        s = stirling2_explicit(n, k)
        if s == 0:
            continue
        numer = 2 ** (n + 1) * (yv + 1) * yv**k + (-1) ** (k + 1)
        total += s * math.factorial(k) * yv**k * numer / two_y_plus_1 ** (k + 1)
    return total


def fubini_coeffs_ref(n: int) -> list[int]:
    """Coefficients of F_n(y), lowest power first: S2(n,k) * k!."""
    return [stirling2_explicit(n, k) * math.factorial(k) for k in range(n + 1)]


def fubini_two_var_eval_ref(n: int, x, y) -> Fraction:
    """sum_k C(n,k) F_k(y) x^(n-k), one Fraction operation at a time."""
    xv, yv = Fraction(x), Fraction(y)
    total = Fraction(0)
    for k in range(n + 1):
        total += math.comb(n, k) * poly_eval_ref(fubini_coeffs_ref(k), yv) * xv ** (n - k)
    return total


def fubini_moment_ref(k: int, n: int) -> Fraction:
    """The integral of y^k F_n(y) over [-1, 0], by the schoolbook integral."""
    return poly_integrate_ref([0] * k + fubini_coeffs_ref(n), -1, 0)


def p_bernoulli_ref(n: int, p: int) -> Fraction:
    """((p+1)/p!) sum_j (-1)^j S1u(p,j) B_{n+j}, term by term in Fractions;
    S1u from the rising factorial, B from Akiyama-Tanigawa."""
    s1 = rising_factorial_rows(p)[p]
    b = bernoulli_akiyama_tanigawa(n + p)
    acc = sum(((-1) ** j * s1[j] * b[n + j] for j in range(p + 1)), Fraction(0))
    return Fraction(p + 1, math.factorial(p)) * acc


def stirling_bernoulli_sum_ref(k: int, n: int) -> Fraction:
    """sum_j S1u(k+1, j+1) B_{n+j}, term by term in Fractions."""
    s1 = rising_factorial_rows(k + 1)[k + 1]
    b = bernoulli_akiyama_tanigawa(n + k)
    return sum((s1[j + 1] * b[n + j] for j in range(k + 1)), Fraction(0))


def bernoulli_binomial_sum_ref(m: int, n: int) -> Fraction:
    """(-1)^m sum_j C(m,j) B_{n+j}, term by term in Fractions."""
    b = bernoulli_akiyama_tanigawa(n + m)
    return (-1) ** m * sum((math.comb(m, j) * b[n + j] for j in range(m + 1)), Fraction(0))


def p_bernoulli_shift_lhs_ref(n: int, p: int) -> Fraction:
    """sum_j (-1)^(j+1) S1u(p+1, j+1) B_{n+j}, term by term in Fractions."""
    s1 = rising_factorial_rows(p + 1)[p + 1]
    b = bernoulli_akiyama_tanigawa(n + p)
    return sum(((-1) ** (j + 1) * s1[j + 1] * b[n + j] for j in range(p + 1)), Fraction(0))


def rising_factorial_rows(n_max: int) -> list[list[int]]:
    """rows[n] = coefficients of x(x+1)...(x+n-1), lowest power first."""
    rows = [[1]]
    for j in range(n_max):
        # (x + j) * p(x) = x * p(x) + j * p(x)
        prev = rows[-1]
        rows.append([a + b for a, b in zip([0] + prev, [j * c for c in prev] + [0])])
    return rows


# The Akiyama-Tanigawa work row and the values it has produced so far.
_at_work: list[Fraction] = []
_at_values: list[Fraction] = []


def bernoulli_akiyama_tanigawa(n_max: int) -> list[Fraction]:
    """B_0..B_n_max with B_1 = -1/2, by the Akiyama-Tanigawa transform.

    Step m of the transform touches only work[0..m], so the table is kept
    and a later call runs only the steps it has not seen.
    """
    work, values = _at_work, _at_values
    for m in range(len(values), n_max + 1):
        work.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            work[j - 1] = j * (work[j - 1] - work[j])
        values.append(work[0])
    out = values[: n_max + 1]
    # The transform produces B_1 = +1/2; flip to the convention used here.
    if n_max >= 1:
        out[1] = -out[1]
    return out


def poly_gcd_euclid(a, b) -> tuple[Fraction, ...]:
    """Monic gcd of two coefficient sequences (lowest power first) by
    Euclid's algorithm over Q; ``()`` when both are zero."""

    def trim(coeffs: list[Fraction]) -> list[Fraction]:
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    a = trim([Fraction(c) for c in a])
    b = trim([Fraction(c) for c in b])
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            factor = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
            trim(rem)
        a, b = b, rem
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)


def _exact_quotient(a, b) -> list[Fraction]:
    """a / b by long division over Q, for a trimmed b that divides a."""
    rem = list(_trimmed(a))
    quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while rem:
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = list(_trimmed(rem))
    return quo


def ratfunc_canonical_ref(num, den) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Lowest terms of num/den with a monic denominator: both divided by
    their Euclid gcd, then by the leading coefficient of what is left of
    den.  Zero is ((), (1,))."""
    if not _trimmed(num):
        return (), (Fraction(1),)
    g = poly_gcd_euclid(num, den)
    n, d = _exact_quotient(num, g), _exact_quotient(den, g)
    return tuple(c / d[-1] for c in n), tuple(c / d[-1] for c in d)


# Polynomial arithmetic on plain coefficient lists, lowest power first, one
# Fraction per coefficient.  Univariate results are trimmed tuples; a
# bivariate polynomial is a list of rows, rows[i][j] belonging to x^i y^j.


def _trimmed(coeffs) -> tuple[Fraction, ...]:
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add_ref(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trimmed(Fraction(x) + Fraction(y) for x, y in zip(a, b))


def poly_mul_ref(a, b) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return _trimmed(out)


def poly_pow_ref(a, exponent: int) -> tuple[Fraction, ...]:
    out: tuple = (Fraction(1),)
    for _ in range(exponent):
        out = poly_mul_ref(out, a)
    return out


def poly_eval_ref(a, x) -> Fraction:
    """sum_i a_i x^i, term by term."""
    return sum((Fraction(c) * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def poly_derivative_ref(a) -> tuple[Fraction, ...]:
    return _trimmed(i * Fraction(c) for i, c in enumerate(a) if i)


def poly_antiderivative_ref(a) -> tuple[Fraction, ...]:
    return _trimmed([Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(a)])


def poly_integrate_ref(a, lower, upper) -> Fraction:
    lo, hi = Fraction(lower), Fraction(upper)
    return sum(
        (Fraction(c) * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(a)),
        Fraction(0),
    )


def poly_compose_ref(a, inner) -> tuple[Fraction, ...]:
    """sum_i a_i inner^i, with each power built by repeated multiplication."""
    out: tuple = ()
    for i, c in enumerate(a):
        out = poly_add_ref(out, poly_mul_ref((Fraction(c),), poly_pow_ref(inner, i)))
    return out


def bipoly_trimmed_ref(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Rectangular grid with trailing all-zero rows and columns removed."""
    rows = [[Fraction(c) for c in row] for row in rows]
    while rows and not any(rows[-1]):
        rows.pop()
    width = max((len(_trimmed(row)) for row in rows), default=0)
    return tuple(
        tuple(row[j] if j < len(row) else Fraction(0) for j in range(width)) for row in rows
    )


def bipoly_outer_ref(px, py):
    return bipoly_trimmed_ref([[Fraction(a) * Fraction(b) for b in py] for a in px])


def bipoly_eval_ref(rows, x, y) -> Fraction:
    """sum_ij rows[i][j] x^i y^j, term by term."""
    return sum(
        (
            Fraction(c) * Fraction(x) ** i * Fraction(y) ** j
            for i, row in enumerate(rows)
            for j, c in enumerate(row)
        ),
        Fraction(0),
    )


def bipoly_substitute_x_ref(rows, x) -> tuple[Fraction, ...]:
    """The polynomial in y left by fixing x."""
    out: tuple = ()
    for i, row in enumerate(rows):
        out = poly_add_ref(out, poly_mul_ref((Fraction(x) ** i,), row))
    return out


def bipoly_substitute_y_ref(rows, y) -> tuple[Fraction, ...]:
    """The polynomial in x left by fixing y."""
    return _trimmed(poly_eval_ref(row, y) for row in rows)


def bipoly_substitute_ref(rows, x_image, y_image):
    """sum_ij rows[i][j] x_image(x)^i y_image(y)^j as a grid."""
    grid: dict[tuple[int, int], Fraction] = {}
    for i, row in enumerate(rows):
        x_part = poly_pow_ref(x_image, i)
        for j, c in enumerate(row):
            y_part = poly_mul_ref((Fraction(c),), poly_pow_ref(y_image, j))
            for a, u in enumerate(x_part):
                for b, v in enumerate(y_part):
                    grid[a, b] = grid.get((a, b), Fraction(0)) + u * v
    nr = 1 + max((a for a, _ in grid), default=-1)
    nc = 1 + max((b for _, b in grid), default=-1)
    return bipoly_trimmed_ref(
        [[grid.get((a, b), Fraction(0)) for b in range(nc)] for a in range(nr)]
    )
