"""Independent brute-force oracles used only by the test suite.

Each oracle recomputes a quantity by literal enumeration or by a
classical algorithm that shares no code path with the library: set
partitions are generated as explicit block structures, cycle counts come
from itertools.permutations, binomials from Pascal's triangle, Bernoulli
numbers from the Akiyama-Tanigawa scheme, polynomial gcds from Euclid's
algorithm over Q on plain coefficient lists.
"""

from __future__ import annotations

import itertools
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


def bernoulli_akiyama_tanigawa(n_max: int) -> list[Fraction]:
    """B_0..B_n_max with B_1 = -1/2, by the Akiyama-Tanigawa transform."""
    work = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        work[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            work[j - 1] = j * (work[j - 1] - work[j])
        out.append(work[0])
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
