"""The Gauss-Kronrod quadrature against scipy.integrate.quad and exact integrals.

scipy is only a test oracle here (the package does not depend on it); the
module is skipped where it is not installed.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fubini import quadrature, registry
from fubini.apostol import apostol_bernoulli, improper_quadrature_oracle, lambda_moment_weight
from fubini.exact import Poly
from fubini.quadrature import LIMIT, adaptive_integrate

integrate = pytest.importorskip("scipy.integrate")

TOL = 1e-10
EPSABS = TOL / 2
EPSREL = 1e-12


def scipy_quad(f):
    value, abserr, info = integrate.quad(
        f, 0.0, 1.0, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT, full_output=1
    )[:3]
    return value, abserr, info["last"]


def horner(num: Poly, den: Poly):
    """A float integrand: Horner on the float coefficients of num/den."""
    gnum = [float(c) for c in num.coeffs]
    gden = [float(c) for c in den.coeffs]

    def f(t: float) -> float:
        n = 0.0
        for c in reversed(gnum):
            n = n * t + c
        d = 0.0
        for c in reversed(gden):
            d = d * t + c
        return n / d

    return f


@pytest.fixture
def oracle_calls(monkeypatch):
    """Record each (integrand, epsabs, epsrel, result) the oracle integrates."""
    calls = []

    def spy(f, a, b, epsabs, epsrel):
        result = adaptive_integrate(f, a, b, epsabs, epsrel)
        calls.append((f, epsabs, epsrel, result))
        return result

    monkeypatch.setattr(quadrature, "adaptive_integrate", spy)
    return calls


def test_catalog_spots_are_bit_identical_to_scipy(oracle_calls):
    tol = registry.QUADRATURE_TOL / 2
    for spot in registry._QUAD_SPOTS:
        integrand, exact = spot()
        value = improper_quadrature_oracle(integrand, tol)
        f, epsabs, epsrel, result = oracle_calls.pop()
        assert (epsabs, epsrel) == (float(tol) / 2, 1e-12)
        expected = integrate.quad(f, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=200)
        assert (value, result.abserr) == expected
        assert result.intervals == 1
        assert abs(value - float(exact)) <= tol


small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def positive_denominators(draw) -> Poly:
    """q(t)^2 + c with c > 0: positive on the whole real line."""
    q = Poly(draw(st.lists(small, min_size=1, max_size=4)))
    c = draw(st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000))
    return q * q + Poly.constant(c)


@given(st.lists(small, min_size=1, max_size=8), positive_denominators())
def test_rational_integrands_match_scipy(num, den):
    f = horner(Poly(num), den)
    ours = adaptive_integrate(f, 0.0, 1.0, EPSABS, EPSREL)
    value, abserr, last = scipy_quad(f)
    if last == 1:
        assert ours == (value, abserr, 1)
    else:
        assert ours.intervals > 1
        assert abs(ours.value - value) <= TOL


@pytest.mark.parametrize(
    "f, last",
    [
        # The estimate is between 50 and 100 eps times the rule on |f|
        # and above the bound: dqagse stops on round-off after one rule.
        (lambda t: 1e6 * (t - 0.5) + 0.0006812920690579615 * abs(t - 0.3), 1),
        # The estimate meets the bound but equals resasc: dqagse bisects.
        (lambda t: 1 + 1e-12 * math.sin(1000 * t), 2),
    ],
)
def test_first_rule_is_accepted_exactly_where_scipy_accepts_it(f, last):
    ours = adaptive_integrate(f, 0.0, 1.0, EPSABS, EPSREL)
    value, abserr, scipy_last = scipy_quad(f)
    assert ours.intervals == scipy_last == last
    if last == 1:
        assert ours == (value, abserr, 1)
    else:
        assert abs(ours.value - value) <= TOL


@given(st.lists(small, min_size=1, max_size=32))
def test_polynomials_up_to_degree_31_are_integrated_to_a_few_ulps(coeffs):
    f = horner(Poly(coeffs), Poly.constant(1))
    exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
    # The float integrand rounds each term, so measure against the
    # integral of |terms|, the size of what the rule adds up.
    scale = float(sum(abs(c) / (k + 1) for k, c in enumerate(coeffs)))
    value = adaptive_integrate(f, 0.0, 1.0, EPSABS, EPSREL).value
    assert abs(Fraction(value) - exact) <= 8 * Fraction(math.ulp(scale))


def test_peaked_integrand_is_bisected_to_within_tol():
    result = adaptive_integrate(lambda t: 1 / (1 + 400 * (t - 0.5) ** 2), 0.0, 1.0, EPSABS, EPSREL)
    assert result.intervals > 1
    assert result.abserr <= TOL
    assert abs(result.value - 2 * math.atan(10) / 20) <= TOL


def test_integrand_that_exhausts_the_limit_raises(oracle_calls):
    # The index-21 function times the weight 1/(lambda-1).  On [0, 1] the
    # transformed integrand swings between about -8e9 and 7e9 while the
    # integral is about -1.1e4.  The rule's round-off floor, some 50 eps
    # times the integral of |f| (about 2e9), holds the estimate near 2e-5,
    # so bisection uses every subinterval without reaching tol.
    f = apostol_bernoulli(21) * lambda_moment_weight(0)
    with pytest.raises(ArithmeticError, match="exceeds"):
        improper_quadrature_oracle(f, TOL)
    (_, _, _, result), = oracle_calls
    assert result.intervals == LIMIT
    assert result.abserr > TOL


def test_rejects_tolerances_below_round_off():
    with pytest.raises(ValueError):
        adaptive_integrate(math.exp, 0.0, 1.0, 0.0, 1e-16)
