"""Differential tests against sympy, a computer-algebra system that shares
no code with this package.  Skipped when sympy is not installed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from fubini.apostol import apostol_bernoulli  # noqa: E402
from fubini.bernoulli_numbers import bernoulli  # noqa: E402
from fubini.combinat import stirling1_unsigned, stirling2  # noqa: E402
from fubini.exact import Poly  # noqa: E402

STIRLING_N_MAX = 40
BERNOULLI_N_MAX = 60

X = sympy.Symbol("x")
coefficients = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
small_coefficient_lists = st.lists(coefficients, max_size=5)


def to_fraction(value) -> Fraction:
    q = sympy.Rational(value)
    return Fraction(int(q.p), int(q.q))


def to_sympy(coeffs) -> "sympy.Poly":
    """sympy polynomial over QQ from coefficients listed lowest power first."""
    terms = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, coeffs)]
    return sympy.Poly(list(reversed(terms)) or [0], X, domain="QQ")


def from_sympy(p: "sympy.Poly") -> Poly:
    return Poly([to_fraction(c) for c in reversed(p.all_coeffs())])


def test_stirling_numbers_of_both_kinds_match():
    for n in range(STIRLING_N_MAX + 1):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling(n, k, kind=2), (n, k)
            assert stirling1_unsigned(n, k) == stirling(n, k, kind=1, signed=False), (n, k)


def test_bernoulli_numbers_match():
    # sympy >= 1.12 uses B_1 = +1/2; this package uses B_1 = -1/2.  Every
    # other index agrees between the two conventions.
    for n in range(BERNOULLI_N_MAX + 1):
        expected = to_fraction(sympy.bernoulli(n))
        if n == 1:
            expected = -expected
        assert bernoulli(n) == expected, n


@settings(max_examples=60, deadline=None)
@given(small_coefficient_lists, small_coefficient_lists)
def test_poly_products_match(a, b):
    assert Poly(a) * Poly(b) == from_sympy(to_sympy(a) * to_sympy(b))


@settings(max_examples=60, deadline=None)
@given(small_coefficient_lists, st.lists(coefficients, max_size=3))
def test_poly_compose_matches(a, b):
    assert Poly(a).compose(Poly(b)) == from_sympy(to_sympy(a).compose(to_sympy(b)))


APOSTOL_N_MAX = 12
LAM, T = sympy.symbols("lam t")


def test_apostol_functions_match_the_generating_function():
    # AB_n(lam) = n! [t^n] t / (lam e^t - 1): the series route shares
    # nothing with the direct sum, the Fubini substitution or the
    # alternating form.
    series = sympy.series(T / (LAM * sympy.exp(T) - 1), T, 0, APOSTOL_N_MAX + 1).removeO()
    for n in range(APOSTOL_N_MAX + 1):
        num, den = sympy.fraction(sympy.cancel(sympy.factorial(n) * series.coeff(T, n)))
        num = from_sympy(sympy.Poly(num, LAM, domain="QQ"))
        den = from_sympy(sympy.Poly(den, LAM, domain="QQ"))
        # Cross-multiplied, so the oracle does not go through RatFunc's
        # constructor.
        f = apostol_bernoulli(n)
        assert f.num * den == num * f.den, n
