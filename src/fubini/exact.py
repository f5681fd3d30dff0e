"""Exact scalars, dense polynomials and canonical rational functions.

Every value in this package is built from these representations:

* scalars are ``int`` or ``fractions.Fraction`` (arbitrary precision,
  always in lowest terms, denominator >= 1, division by zero raises);
  anything inexact, such as a float, is rejected with ``TypeError``,
* ``Poly`` is a dense univariate polynomial with rational coefficients,
  stored as a tuple of integer ``numerators`` (lowest power first,
  trailing zeros trimmed) over one positive integer ``denominator``,
* ``BiPoly`` is a dense bivariate polynomial stored the same way: a
  rectangular grid ``numerators[i][j]`` for the coefficient of
  ``x^i y^j`` (trailing all-zero rows and columns trimmed) over one
  positive integer ``denominator``,
* ``RatFunc`` is a ``Poly`` numerator over a power (x-1)^k, the one
  pole an Apostol-Bernoulli function has, stored as the numerator and
  the pole order k, in lowest terms: (x-1) does not divide the
  numerator when k > 0.

``Poly`` and ``BiPoly`` are canonical too: the gcd of the denominator and
all numerators is 1, and the zero polynomial is stored as ``((), 1)``.
Most polynomials here have integer coefficients, so the denominator is
usually 1 and every operation (sums, products, powers, composition,
substitution, Horner evaluation at p/q, integration) runs on Python
integers, with one gcd at the end to restore the canonical form.  The
``coeffs`` and ``rows`` properties give the coefficients as ``Fraction``.
Equality of canonical forms is plain structural comparison.

All values are immutable after construction and all operations are
pure, so everything here is safe to share between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/denominator'.

    Accepts e.g. ``"13"``, ``"-3/7"``.  Anything else (floats, whitespace,
    zero denominators) is rejected.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text and int(text.split("/")[1]) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(text)


def format_rational(value: Scalar) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if type(value) is int:
        return str(value)
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _exact(value: Scalar) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


# -- integer coefficient lists ------------------------------------------------
#
# Lists of int, lowest power first.  Ints and Fractions both carry
# ``numerator`` and ``denominator``, which the helpers below rely on.


def _over_lcm(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """Integer numerators of exact scalars over their least common denominator.

    The result is already reduced: some scalar with the largest power of
    each prime in the denominator keeps a numerator that prime does not
    divide.
    """
    vals = list(values)
    if all(type(v) is int for v in vals):
        return vals, 1
    den = math.lcm(*[_exact(v).denominator for v in vals])
    return [v.numerator * (den // v.denominator) for v in vals], den


def _trimmed(nums: list[int]) -> list[int]:
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    return nums if n == len(nums) else nums[:n]


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """Make ``den`` positive and divide out gcd(den, *nums)."""
    if den < 0:
        den, nums = -den, [-c for c in nums]
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    return nums, den


def _add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _horner(nums: Sequence[int], p: int, q: int) -> tuple[int, int]:
    """(sum_i nums[i] * p^i * q^(d-i), q^d) for d = len(nums) - 1 >= 0.

    The first entry is the value at p/q times q^d, computed by Horner's
    rule on the homogenised form, so every step stays in the integers.
    """
    acc = nums[-1]
    scale = 1
    for i in range(len(nums) - 2, -1, -1):
        scale *= q
        acc = acc * p + nums[i] * scale
    return acc, scale


def _homogeneous_powers(v: Sequence[int], e: int, d: int) -> list[list[int]]:
    """[v^k * e^(d-k) for k = 0..d]: the powers of v/e, all over e^d."""
    powers = []
    power: list[int] = [1]
    for k in range(d + 1):
        scale = e ** (d - k)
        powers.append([scale * c for c in power])
        power = _mul(power, v)
    return powers


def _poly(nums: list[int], den: int = 1) -> "Poly":
    """Poly of the integer numerators over a nonzero ``den``, canonicalised."""
    nums = _trimmed(nums)
    if not nums:
        return _raw_poly((), 1)
    nums, den = _reduced(nums, den)
    return _raw_poly(tuple(nums), den)


def _raw_poly(nums: tuple[int, ...], den: int) -> "Poly":
    """Poly of numerators and denominator already in canonical form."""
    p = object.__new__(Poly)
    object.__setattr__(p, "numerators", nums)
    object.__setattr__(p, "denominator", den)
    return p


def _rational_strings(nums: Iterable[int], den: int) -> list[str]:
    """Each ``c/den`` as a rational literal in lowest terms."""
    if den == 1:
        return [str(c) for c in nums]
    out = []
    for c in nums:
        g = math.gcd(c, den)
        d = den // g
        out.append(str(c // g) if d == 1 else f"{c // g}/{d}")
    return out


class Poly:
    """Dense univariate polynomial over exact rationals.

    Stored as integer ``numerators`` over one positive ``denominator``:
    the coefficient of the i-th power is ``numerators[i] / denominator``.
    Canonical form: no trailing zero numerators, gcd(denominator,
    *numerators) == 1, and the zero polynomial is ``((), 1)``.
    ``coeffs`` gives the coefficients as a tuple of ``Fraction``.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        nums, den = _over_lcm(coeffs)
        object.__setattr__(self, "numerators", tuple(_trimmed(nums)))
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls([value])

    @classmethod
    def variable(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Poly":
        return cls([0] * power + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as Fractions, lowest power first."""
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.numerators):
            return Fraction(self.numerators[power], self.denominator)
        return Fraction(0)

    def is_integral(self) -> bool:
        """True when every coefficient has denominator 1."""
        return self.denominator == 1

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.numerators == other.numerators and self.denominator == other.denominator
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.numerators, self.denominator))

    def __neg__(self) -> "Poly":
        return _raw_poly(tuple(-c for c in self.numerators), self.denominator)

    def __add__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, da = self.numerators, self.denominator
        b, db = other.numerators, other.denominator
        if da == db:
            return _poly(_add(a, b), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _poly(_add([fa * c for c in a], [fb * c for c in b]), fa * da)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return _poly([k * c for c in self.numerators], self.denominator * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(_mul(self.numerators, other.numerators), self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result: list[int] = [1]
        base = list(self.numerators)
        e = exponent
        while e:
            if e & 1:
                result = _mul(result, base)
            e >>= 1
            if e:
                base = _mul(base, base)
        return _poly(result, self.denominator**exponent)

    @staticmethod
    def _as_poly(value):
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return _poly([value.numerator], value.denominator)
        return NotImplemented

    def __call__(self, point: Scalar) -> Fraction:
        """Exact value at ``point`` = p/q.

        Horner's rule on sum_i c_i p^i q^(d-i) in the integers, then one
        division by denominator * q^d.
        """
        x = _exact(point)
        if not self.numerators:
            return Fraction(0)
        acc, scale = _horner(self.numerators, x.numerator, x.denominator)
        return Fraction(acc, self.denominator * scale)

    def derivative(self) -> "Poly":
        nums = self.numerators
        return _poly([i * nums[i] for i in range(1, len(nums))], self.denominator)

    def antiderivative(self) -> "Poly":
        """Term-wise antiderivative with zero constant term."""
        nums = self.numerators
        scale = math.lcm(*range(1, len(nums) + 1))
        return _poly(
            [0] + [c * (scale // (i + 1)) for i, c in enumerate(nums)],
            self.denominator * scale,
        )

    def integrate(self, lower: Scalar, upper: Scalar) -> Fraction:
        """Exact definite integral over [lower, upper]."""
        primitive = self.antiderivative()
        return primitive(upper) - primitive(lower)

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute the polynomial ``inner`` for the variable."""
        return homogeneous_compose(self, inner, Poly.constant(1))

    def to_strings(self) -> list[str]:
        """Coefficients as rational literals, lowest power first."""
        return _rational_strings(self.numerators, self.denominator)

    def __repr__(self) -> str:
        return f"Poly({self.to_strings()})"

    def __str__(self) -> str:
        return poly_str(self, "y")


def poly_str(p: Poly, var: str) -> str:
    """Human-readable rendering, highest power first, e.g. ``2y^2 + y``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for power in range(p.degree, -1, -1):
        c = p.coefficient(power)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = format_rational(mag)
        else:
            head = "" if mag == 1 else format_rational(mag)
            body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def homogeneous_compose(p: Poly, num: Poly, den: Poly) -> Poly:
    """Homogenised substitution: sum_i c_i num^i den^(d-i) for p = sum_i c_i x^i.

    Here d is the degree of p.  Wherever den is nonzero this equals
    p(num/den) * den^d, so a rational argument is substituted without
    leaving the polynomials; den may have zeros.  With num = v/nd and
    den = e/ed, Horner's rule runs on the integer lists V = ed*v and
    E = nd*e, and one division by the denominator of p times (nd*ed)^d
    ends it.
    """
    nums = p.numerators
    if not nums:
        return p
    nd, ed = num.denominator, den.denominator
    v = [ed * c for c in num.numerators]
    e = [nd * c for c in den.numerators]
    acc = [nums[-1]]
    scale = [1]
    for i in range(len(nums) - 2, -1, -1):
        scale = _mul(scale, e)
        acc = _add(_mul(acc, v), [nums[i] * c for c in scale])
    return _poly(acc, p.denominator * (nd * ed) ** p.degree)


def _bipoly(grid: list[list[int]], den: int = 1) -> "BiPoly":
    """BiPoly of a grid of integer numerators over a nonzero ``den``, canonicalised."""
    while grid and not any(grid[-1]):
        grid.pop()
    if not grid:
        return _raw_bipoly((), 1)
    width = max(len(_trimmed(row)) for row in grid)
    grid = [row[:width] + [0] * (width - len(row)) for row in grid]
    if den < 0:
        den = -den
        grid = [[-c for c in row] for row in grid]
    if den != 1:
        g = math.gcd(den, *(c for row in grid for c in row))
        if g != 1:
            den //= g
            grid = [[c // g for c in row] for row in grid]
    return _raw_bipoly(tuple(tuple(row) for row in grid), den)


def _raw_bipoly(grid: tuple[tuple[int, ...], ...], den: int) -> "BiPoly":
    """BiPoly of a grid and denominator already in canonical form."""
    p = object.__new__(BiPoly)
    object.__setattr__(p, "numerators", grid)
    object.__setattr__(p, "denominator", den)
    return p


class BiPoly:
    """Dense bivariate polynomial over exact rationals.

    Stored as a rectangular grid of integer ``numerators`` over one
    positive ``denominator``: the coefficient of x^i y^j is
    ``numerators[i][j] / denominator``.  Canonical form: no trailing
    all-zero row or column, gcd(denominator, every numerator) == 1, and
    the zero polynomial is ``((), 1)``.  ``rows`` gives the coefficients
    as a grid of ``Fraction``.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, rows: Iterable[Iterable[Scalar]] = ()):
        grid = [list(row) for row in rows]
        flat, den = _over_lcm(c for row in grid for c in row)
        values = iter(flat)
        canonical = _bipoly([[next(values) for _ in row] for row in grid], den)
        object.__setattr__(self, "numerators", canonical.numerators)
        object.__setattr__(self, "denominator", canonical.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    def __reduce__(self):
        return BiPoly, (self.rows,)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "BiPoly":
        return cls([[value]])

    @classmethod
    def outer(cls, px: Poly, py: Poly) -> "BiPoly":
        """Product px(x) * py(y)."""
        ys = py.numerators
        return _bipoly([[a * b for b in ys] for a in px.numerators], px.denominator * py.denominator)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Coefficients as Fractions: ``rows[i][j]`` belongs to x^i y^j."""
        den = self.denominator
        return tuple(tuple(Fraction(c, den) for c in row) for row in self.numerators)

    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def x_degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def y_degree(self) -> int:
        return len(self.numerators[0]) - 1 if self.numerators else -1

    def coefficient(self, i: int, j: int) -> Fraction:
        if 0 <= i < len(self.numerators) and 0 <= j < len(self.numerators[i]):
            return Fraction(self.numerators[i][j], self.denominator)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __hash__(self) -> int:
        return hash(("BiPoly", self.numerators, self.denominator))

    def __neg__(self) -> "BiPoly":
        grid = tuple(tuple(-c for c in row) for row in self.numerators)
        return _raw_bipoly(grid, self.denominator)

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        da, db = self.denominator, other.denominator
        g = math.gcd(da, db)
        nr = max(len(self.numerators), len(other.numerators))
        nc = max(self.y_degree, other.y_degree) + 1
        out = [[0] * nc for _ in range(nr)]
        for grid, factor in ((self.numerators, db // g), (other.numerators, da // g)):
            for out_row, row in zip(out, grid):
                for j, c in enumerate(row):
                    out_row[j] += factor * c
        return _bipoly(out, da // g * db)

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            grid = [[k * c for c in row] for row in self.numerators]
            return _bipoly(grid, self.denominator * other.denominator)
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPoly()
        nr = len(self.numerators) + len(other.numerators) - 1
        nc = self.y_degree + other.y_degree + 1
        out = [[0] * nc for _ in range(nr)]
        for i, row in enumerate(self.numerators):
            for j, a in enumerate(row):
                if a:
                    for k, orow in enumerate(other.numerators):
                        target = out[i + k]
                        for l, b in enumerate(orow):
                            if b:
                                target[j + l] += a * b
        return _bipoly(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __call__(self, x: Scalar, y: Scalar) -> Fraction:
        """Exact value at a rational point (x, y) = (p/q, r/s).

        Each row is evaluated at y over s^dy, then the row values at x
        over q^dx, all in the integers; one division at the end.
        """
        xv, yv = _exact(x), _exact(y)
        if not self.numerators:
            return Fraction(0)
        r, s = yv.numerator, yv.denominator
        row_values = [_horner(row, r, s)[0] for row in self.numerators]
        y_scale = s**self.y_degree
        total, x_scale = _horner(row_values, xv.numerator, xv.denominator)
        return Fraction(total, self.denominator * x_scale * y_scale)

    def substitute_x(self, x: Scalar) -> Poly:
        """Fix x at a rational value, leaving a polynomial in y."""
        xv = _exact(x)
        grid = self.numerators
        if not grid:
            return Poly()
        p, q = xv.numerator, xv.denominator
        acc = list(grid[-1])
        scale = 1
        for i in range(len(grid) - 2, -1, -1):
            scale *= q
            acc = [a * p + c * scale for a, c in zip(acc, grid[i])]
        return _poly(acc, self.denominator * scale)

    def substitute_y(self, y: Scalar) -> Poly:
        """Fix y at a rational value, leaving a polynomial in x."""
        yv = _exact(y)
        if not self.numerators:
            return Poly()
        r, s = yv.numerator, yv.denominator
        values = [_horner(row, r, s)[0] for row in self.numerators]
        return _poly(values, self.denominator * s**self.y_degree)

    def substitute(self, x_image: Poly, y_image: Poly) -> "BiPoly":
        """Replace x by a polynomial in x and y by a polynomial in y.

        With x_image = w/f and y_image = v/e, the term c x^i y^j becomes
        c (w^i f^(dx-i)) (v^j e^(dy-j)) over f^dx e^dy: integer lists
        throughout, and one canonicalisation at the end.
        """
        grid = self.numerators
        if not grid:
            return BiPoly()
        dx, dy = self.x_degree, self.y_degree
        xs = _homogeneous_powers(x_image.numerators, x_image.denominator, dx)
        ys = _homogeneous_powers(y_image.numerators, y_image.denominator, dy)
        nc = max(len(p) for p in ys)
        out = [[0] * nc for _ in range(max(len(p) for p in xs))]
        for row, x_power in zip(grid, xs):
            in_y = [0] * nc
            for c, y_power in zip(row, ys):
                if c:
                    for j, b in enumerate(y_power):
                        in_y[j] += c * b
            for out_row, a in zip(out, x_power):
                if a:
                    for j, b in enumerate(in_y):
                        out_row[j] += a * b
        scale = x_image.denominator**dx * y_image.denominator**dy
        return _bipoly(out, self.denominator * scale)

    def to_strings(self) -> list[list[str]]:
        """Nested coefficient arrays, x power outer, y power inner, lowest first."""
        return [_rational_strings(row, self.denominator) for row in self.numerators]

    def __repr__(self) -> str:
        return f"BiPoly({self.to_strings()})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.numerators)):
            for j in range(len(self.numerators[i])):
                c = self.coefficient(i, j)
                if c == 0:
                    continue
                factors = []
                if abs(c) != 1 or (i == 0 and j == 0):
                    factors.append(format_rational(abs(c)))
                if i:
                    factors.append("x" if i == 1 else f"x^{i}")
                if j:
                    factors.append("y" if j == 1 else f"y^{j}")
                term = "".join(factors) if factors else "1"
                if not parts:
                    parts.append(term if c > 0 else f"-{term}")
                else:
                    parts.append(f" + {term}" if c > 0 else f" - {term}")
        return "".join(parts)


def _divide_by_x_minus_1(nums: Sequence[int], limit: int) -> tuple[Sequence[int], int]:
    """(q, m) with nums = q * (x-1)^m, m as large as possible up to ``limit``.

    ``nums`` is an integer list, nonzero unless ``limit`` is 0.  Synthetic
    division by (x-1) leaves the remainder sum(nums) and the quotient whose
    entry i is sum(nums[i+1:]), so (x-1) divides exactly while the sum is 0.
    """
    m = 0
    while m < limit and sum(nums) == 0:
        nums = list(accumulate(reversed(nums[1:])))[::-1]
        m += 1
    return nums, m


def _pole_power(k: int) -> Poly:
    """(x-1)^k from its signed binomial coefficients."""
    return _raw_poly(tuple((-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)), 1)


class RatFunc:
    """Rational function num / (x-1)^order, whose only possible pole is x = 1.

    Every rational function in this package has this shape: an
    Apostol-Bernoulli function has its one pole at 1.  Construction takes
    the numerator and the keyword-only pole ``order`` k and divides (x-1)
    out of the numerator by synthetic division, at most k times.  Canonical
    means: (x-1) does not divide the numerator when k > 0, and the zero
    function has order 0.  Two RatFunc values are equal exactly when
    ``(num, order)`` are equal; ``den`` builds (x-1)^k from its binomial
    coefficients on each read, and a sum is built over the larger order.
    Evaluation at p/q uses this pole form: one Horner pass over the
    numerator and one division by its denominator times q^deg (p-q)^k;
    x = 1 raises ``ZeroDivisionError`` when k > 0.
    """

    __slots__ = ("num", "order")

    def __init__(self, num: Poly, *, order: int = 0):
        if not isinstance(num, Poly):
            raise TypeError("RatFunc takes a Poly numerator")
        if type(order) is not int or order < 0:
            raise ValueError(f"pole order must be a non-negative int, got {order!r}")
        if num.is_zero():
            order = 0
        nums, m = _divide_by_x_minus_1(num.numerators, order)
        if m:
            num, order = _poly(nums, num.denominator), order - m
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        return partial(RatFunc, order=self.order), (self.num,)

    @property
    def den(self) -> Poly:
        return _pole_power(self.order)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.order == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.order == other.order
        if isinstance(other, (int, Fraction, Poly)):
            return self == RatFunc(Poly._as_poly(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.order))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, order=self.order)

    def __add__(self, other) -> "RatFunc":
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        k = max(self.order, other.order)
        num = self.num * _pole_power(k - self.order) + other.num * _pole_power(k - other.order)
        return RatFunc(num, order=k)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, order=self.order + other.order)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RatFunc":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("rational function powers must be non-negative integers")
        return RatFunc(self.num**exponent, order=self.order * exponent)

    @staticmethod
    def _as_ratfunc(value):
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Poly):
            return RatFunc(value)
        if isinstance(value, (int, Fraction)):
            return RatFunc(Poly.constant(value))
        return NotImplemented

    def __call__(self, point: Scalar) -> Fraction:
        """Exact value at ``point`` = p/q.

        For num = (sum_i c_i x^i) / den of degree d, one Horner pass gives
        H = sum_i c_i p^i q^(d-i), and the value is H q^k / (den q^d (p-q)^k).
        p = q is the pole when k > 0 and raises ``ZeroDivisionError``.
        """
        x = _exact(point)
        nums = self.num.numerators
        if not nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        k = self.order
        if k and p == q:
            raise ZeroDivisionError(f"pole at {format_rational(x)}")
        h, scale = _horner(nums, p, q)
        return Fraction(h * q**k, self.num.denominator * scale * (p - q) ** k)

    def to_strings(self) -> dict[str, list[str]]:
        return {"num": self.num.to_strings(), "den": self.den.to_strings()}

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, order={self.order})"

    def __str__(self) -> str:
        return ratfunc_str(self, "x")


def ratfunc_str(f: RatFunc, var: str) -> str:
    """Render as ``num/den``, the denominator written as a power of (var-1)."""
    num = poly_str(f.num, var)
    if f.is_polynomial():
        return num
    d = f.order
    den = f"({var}-1)" if d == 1 else f"({var}-1)^{d}"
    return f"({num})/{den}"
