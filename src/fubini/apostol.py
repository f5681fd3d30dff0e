"""Apostol-Bernoulli functions as exact rational functions of lambda.

Each index n yields a rational function whose only pole sits at
lambda = 1 with order at most n: the one shape a ``RatFunc`` holds.
Every route passes one integer numerator with its pole order n, so the
quotient is canonicalised once and no route adds or multiplies rational
functions.  Three construction routes are kept: the direct
Stirling sum, substitution of lambda/(1-lambda) into the Fubini
polynomial of index n-1, and an alternating power form (valid from
index 2 up; its index-1 instance is a known erratum and is rejected
rather than patched).  The improper integrals over (-inf, 0] reduce
exactly to the finite Fubini integrals over [-1, 0] via the substitution
y = lambda/(1-lambda), so both of their routes are the Fubini integrals
of ``bernoulli_numbers`` times a constant; a numerical quadrature oracle
cross-checks them independently.  The direct sum and the alternating
form read S2(n,k) k! as the coefficients of ``fubini_poly``; the
substitution reads F_{n-1} from the derivative recurrence
``fubini_poly_recurrence``, so that the two routes ``ab_routes``
compares share no Stirling row.  ``apostol_bernoulli`` is a
``combinat.memo_rows`` memo: indices up to MEMO_ROWS are kept, a larger
one is built on each call.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from operator import sub
from typing import Union

from .bernoulli_numbers import (
    fubini_moment_integral,
    fubini_product_integral,
    fubini_product_integral_exact,
)
from .combinat import binomial_convolution, memo_rows
from .exact import Poly, RatFunc, Scalar, _exact, _poly, homogeneous_compose
from .polynomials import fubini_poly, fubini_poly_recurrence

_MINUS_LAMBDA = Poly([0, -1])
_LAMBDA_MINUS_1 = Poly([-1, 1])


@memo_rows
def apostol_bernoulli(n: int) -> RatFunc:
    """Index-n Apostol-Bernoulli function, canonical form.

    (n/(lambda-1)) * sum_{k=0}^{n-1} S2(n-1,k) k! (lambda/(1-lambda))^k,
    with the index-0 function identically zero.  Over (lambda-1)^n the
    numerator is n * sum_k S2(n-1,k) k! (-lambda)^k (lambda-1)^(n-1-k),
    built by Horner's rule in (lambda-1) on the coefficients of F_{n-1}.
    """
    if n == 0:
        return RatFunc.zero()
    total: list[int] = []
    for k, a in enumerate(fubini_poly(n - 1).numerators):
        # Before the step total has k coefficients; times (lambda-1) it
        # has k+1, and the new term is the lambda^k one.
        total = _times_lambda_minus_1(total)
        total[k] += -a if k % 2 else a
    return RatFunc(_poly([n * c for c in total]), order=n)


def apostol_via_fubini(n: int) -> RatFunc:
    """Index-n function by substituting lambda/(1-lambda) into F_{n-1}.

    Requires n >= 1; agrees with apostol_bernoulli(n) as canonical forms.
    F_{n-1} comes from the derivative recurrence, not from the Stirling
    triangle that apostol_bernoulli reads.  It has degree n-1, so
    F_{n-1}(-lambda/(lambda-1)) is its homogenised substitution over
    (lambda-1)^(n-1).
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    composed = homogeneous_compose(fubini_poly_recurrence(n - 1), _MINUS_LAMBDA, _LAMBDA_MINUS_1)
    return RatFunc(n * composed, order=n)


def apostol_alternating_form(n: int) -> RatFunc:
    """Index-(n+1) function from the alternating power sum, for n >= 1:

    (n+1) * (-1)^n * lambda * sum_k S2(n,k) k! (1/(lambda-1))^(k+1),

    whose sum is sum_k S2(n,k) k! (lambda-1)^(n-k) over (lambda-1)^(n+1),
    built by Horner's rule in (lambda-1) on the coefficients of F_n.  The
    n = 0 instance of this sum yields lambda/(lambda-1) instead of the true
    1/(lambda-1), so it is rejected here; see the errata notes.
    """
    if n < 1:
        raise ValueError("alternating form valid for n >= 1 only")
    total: list[int] = []
    for a in fubini_poly(n).numerators:
        total = _times_lambda_minus_1(total)
        total[0] += a
    # Times lambda: the coefficients move up one power.
    scale = (n + 1) * (-1) ** n
    return RatFunc(_poly([0] + [scale * c for c in total]), order=n + 1)


def _times_lambda_minus_1(coeffs: list[int]) -> list[int]:
    """coeffs * (lambda-1) on integer coefficients, lowest power first:
    the list shifted up one power minus itself.  [] stands for 0."""
    return list(map(sub, [0] + coeffs, coeffs + [0]))


def apostol_split_eval(n: int, lam: Scalar) -> Fraction:
    """Split-form value equal to (index n+1 function at lam) / (n+1):

    sum_k S2(n,k) k! (-lam)^k [2^(n+1) lam^k + (lam-1)^(k+1)] / (lam^2-1)^(k+1),

    for rational lam different from 1 and -1.
    """
    lv = Fraction(_exact(lam))
    if lv == 1 or lv == -1:
        raise ValueError("split form is singular at lambda = +/-1")
    total = Fraction(0)
    for k, a in enumerate(fubini_poly(n).numerators):
        if a == 0:
            continue
        bracket = 2 ** (n + 1) * lv**k + (lv - 1) ** (k + 1)
        total += a * (-lv) ** k * bracket / (lv**2 - 1) ** (k + 1)
    return total


def apostol_sum_of_products(n: int, lam: Scalar) -> tuple[Fraction, Fraction]:
    """Both sides of the binomial sum of products, evaluated at rational lam != 1.

    Returns (sum_k C(n,k) A_{k+1} A_{n-k+1} / ((k+1)(n-k+1)),
    -[A_{n+2}/(n+2) + A_{n+1}/(n+1)]) where A_m is the index-m function
    value at lam.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    lv = _exact(lam)
    if lv == 1:
        raise ValueError("functions have their pole at lambda = 1")
    values = [apostol_bernoulli(m)(lv) for m in range(n + 3)]
    scaled = [values[k + 1] / (k + 1) for k in range(n + 1)]
    lhs = binomial_convolution(n, scaled, scaled)
    rhs = -(values[n + 2] / (n + 2) + values[n + 1] / (n + 1))
    return lhs, rhs


def lambda_moment_weight(k: int) -> RatFunc:
    """The weight lambda^k / (lambda-1)^(k+1) used by the moment integral."""
    if k < 0:
        raise ValueError("requires k >= 0")
    return RatFunc(Poly.monomial(k), order=k + 1)


def apostol_moment_integral(k: int, n: int) -> tuple[Fraction, Fraction]:
    """Both routes of the improper moment integral over (-inf, 0]:

    integral of lambda^k/(lambda-1)^(k+1) times the index-(n+1) function.

    The substitution y = lambda/(1-lambda) reduces the integral to
    (-1)^k (n+1) times the finite moment integral of y^k F_n over [-1, 0],
    so both routes are those of fubini_moment_integral(k, n) scaled by
    (-1)^k (n+1); the formula route reads ((n+1)/k!) sum_j S1u(k+1,j+1) B_{n+j}.
    """
    exact, formula = fubini_moment_integral(k, n)
    scale = (-1) ** k * (n + 1)
    return scale * exact, scale * formula


def apostol_product_integral_exact(m: int, n: int) -> Fraction:
    """Exact improper integral of the index-(m+1) and index-(n+1) functions.

    The substitution y = lambda/(1-lambda) turns the product into
    (m+1)(n+1) F_m(y) F_n(y) dy over [-1, 0]; valid for all m, n >= 0.
    """
    return (m + 1) * (n + 1) * fubini_product_integral_exact(m, n)


def apostol_product_integral(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Both routes of the improper product integral over (-inf, 0]:

    integral of the index-(m+1) times the index-(n+1) function equals
    (-1)^m (m+1)(n+1) sum_j C(m,j) B_{n+j}, for m >= 0, n >= 1.  Both
    routes are those of fubini_product_integral(m, n) scaled by (m+1)(n+1).
    """
    exact, formula = fubini_product_integral(m, n)
    scale = (m + 1) * (n + 1)
    return scale * exact, scale * formula


def improper_quadrature_oracle(f: RatFunc, tol: Union[float, Fraction] = 1e-10) -> float:
    """Numerically integrate a rational function over (-inf, 0].

    Requires that f decays at least like 1/lambda^2; its only pole, at
    lambda = 1, lies off the domain because a ``RatFunc`` has no other.
    The domain is compactified by lambda = -t/(1-t) with t in [0, 1).
    With f = N/(lambda-1)^k, k = ``f.order``, the transformed integrand is
    (-1)^k times the homogenised substitution of N times a power of (1-t):
    one integer polynomial in t, since (lambda-1)^k (1-t)^k = (-1)^k.
    Each node is evaluated exactly and rounded once, so the integrand is
    accurate to half an ulp whatever its degree.

    The rule is QUADPACK's 21-point Gauss-Kronrod rule (``dqk21``, in
    ``fubini.quadrature``), asked for absolute error tol/2 or relative
    error 1e-12.  When the first rule on [0, 1] is accepted, as for every
    spot the catalog checks, the value and error estimate are
    bit-identical to ``scipy.integrate.quad`` with the same tolerances.
    Otherwise the subinterval with the largest error estimate is bisected,
    up to 200 subintervals, without scipy's extrapolation; the value then
    agrees with scipy's to within tol.  A tol that is not positive and
    finite raises ``ValueError``.  An error estimate above tol raises
    ``ArithmeticError``, so a returned value carries absolute error at
    most tol.
    """
    tol = float(tol)
    if not (tol > 0 and isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if f.is_zero():
        return 0.0
    k = f.order
    decay = k - f.num.degree
    if decay < 2:
        raise ValueError("integrand must decay at least like 1/lambda^2")
    # lambda = -t/(1-t) turns the integral over (-inf, 0] into the
    # integral over [0, 1] of f(-t/(1-t)) / (1-t)^2 dt, which is
    # (-1)^k (1-t)^(decay-2) times the homogenised substitution of f.num.
    minus_t, one_minus_t = Poly([0, -1]), Poly([1, -1])
    substituted = homogeneous_compose(f.num, minus_t, one_minus_t)
    num_t = (-1) ** k * substituted * one_minus_t ** (decay - 2)

    def integrand(t: float) -> float:
        # A float node is a dyadic rational: evaluate exactly, round once.
        return float(num_t(Fraction(t)))

    # Imported on first use, so that `import fubini` costs nothing more
    # for the many commands that never integrate.
    from . import quadrature

    value, estimate, _ = quadrature.adaptive_integrate(integrand, 0.0, 1.0, tol / 2, 1e-12)
    if estimate > tol:
        raise ArithmeticError(f"quadrature error estimate {estimate} exceeds {tol}")
    return value
