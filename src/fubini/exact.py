"""Exact scalars, dense polynomials and canonical rational functions.

Every value in this package is built from three representations:

* scalars are ``fractions.Fraction`` (arbitrary precision, always in
  lowest terms, denominator >= 1, division by zero raises),
* ``Poly`` is a dense univariate polynomial with exact coefficients,
  stored lowest power first with trailing zeros trimmed; the zero
  polynomial is the empty coefficient tuple and has degree -1,
* ``BiPoly`` is a dense bivariate polynomial stored as a rectangular
  grid ``c[i][j]`` of coefficients of ``x^i y^j`` with trailing all-zero
  rows and columns trimmed,
* ``RatFunc`` is a quotient of two ``Poly`` values kept in canonical
  form: numerator and denominator coprime, denominator monic.  Equality
  of canonical forms is plain structural comparison.

All values are immutable after construction and all operations are
pure, so everything here is safe to share between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
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
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Dense univariate polynomial over exact rationals.

    ``coeffs[i]`` is the coefficient of the i-th power.  Canonical form:
    no trailing zero coefficients, the zero polynomial is ``()``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _trim([_coerce(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def is_integral(self) -> bool:
        """True when every coefficient has denominator 1."""
        return all(c.denominator == 1 for c in self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

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
            f = _coerce(other)
            return Poly([c * f for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @staticmethod
    def _as_poly(value):
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.constant(value)
        return NotImplemented

    def __call__(self, point: Scalar) -> Fraction:
        """Exact Horner evaluation."""
        x = _coerce(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly":
        """Term-wise antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def integrate(self, lower: Scalar, upper: Scalar) -> Fraction:
        """Exact definite integral over [lower, upper]."""
        lo, hi = _coerce(lower), _coerce(upper)
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        return total

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute ``inner`` for the variable (Horner form)."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(c)
        return acc

    def to_strings(self) -> list[str]:
        """Coefficients as rational literals, lowest power first."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"Poly({[format_rational(c) for c in self.coeffs]})"

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


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Polynomial long division over the rationals: num = q*den + r, deg r < deg den."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.degree < den.degree:
        return Poly(), num
    rem = list(num.coeffs)
    dc = den.coeffs
    lead = dc[-1]
    qlen = len(rem) - len(dc) + 1
    quo = [Fraction(0)] * qlen
    for k in range(qlen - 1, -1, -1):
        coeff = rem[k + len(dc) - 1] / lead
        if coeff:
            quo[k] = coeff
            for i, d in enumerate(dc):
                rem[k + i] -= coeff * d
    return Poly(quo), Poly(rem)


# Canonicalisation works on integer coefficient lists (lowest power first,
# no trailing zeros).  The Fraction coefficients of a Euclidean remainder
# sequence over Q grow far beyond the size of its inputs; the primitive
# remainder sequence over Z keeps every remainder content-free instead.


def _primitive_part(ints: list[int]) -> list[int]:
    """Divide out the gcd of the entries and make the leading entry positive."""
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    if content == 1:
        return ints
    return [c // content for c in ints]


def _split_content(coeffs: Sequence[Fraction]) -> tuple[Fraction, list[int]]:
    """Write a nonzero polynomial as content * primitive integer list.

    The integer list has coprime entries and a positive leading entry.
    """
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    prim = _primitive_part(ints)
    return Fraction(ints[-1], scale * prim[-1]), prim


def _pseudo_remainder(u: list[int], v: list[int]) -> list[int]:
    """A nonzero integer multiple of (u mod v), trailing zeros trimmed.

    Each step cancels the top term of the running remainder r with the
    smallest integer multiples a*r - b*x^k*v, so the result differs from
    the remainder over Q by an integer factor that the caller's primitive
    part removes.  Requires deg u >= deg v >= 1.
    """
    lead = v[-1]
    dv = len(v) - 1
    r = list(u)
    for k in range(len(u) - len(v), -1, -1):
        top = r.pop()
        if top:
            g = math.gcd(top, lead)
            a, b = lead // g, top // g
            if a != 1:
                r = [a * c for c in r]
            for i in range(dv):
                r[k + i] -= b * v[i]
    while r and not r[-1]:
        r.pop()
    return r


def _int_gcd(u: list[int], v: list[int]) -> list[int]:
    """Primitive gcd of two primitive integer lists, by the primitive PRS.

    The primitive polynomial remainder sequence (Knuth, TAOCP vol. 2
    §4.6.1; Collins 1967) replaces each Euclidean remainder by the
    primitive part of a pseudo-remainder.  Both inputs must be nonzero,
    primitive and have positive leading entries; so has the result.
    """
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_remainder(u, v)
        if not r:
            return v
        u, v = v, _primitive_part(r)
    return [1]


def _exact_quotient(u: list[int], v: list[int]) -> list[int]:
    """u / v for integer lists when v divides u in Z[x]."""
    if v == [1]:
        return u
    lead = v[-1]
    dv = len(v) - 1
    r = list(u)
    quo = [0] * (len(u) - dv)
    for k in range(len(quo) - 1, -1, -1):
        c = r[k + dv] // lead
        if c:
            quo[k] = c
            for i in range(dv):
                r[k + i] -= c * v[i]
    return quo


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; zero only when both inputs are zero.

    Computed over the integers by the primitive remainder sequence.
    """
    if a.is_zero() and b.is_zero():
        return Poly()
    if a.is_zero() or b.is_zero():
        g = _split_content((a or b).coeffs)[1]
    else:
        g = _int_gcd(_split_content(a.coeffs)[1], _split_content(b.coeffs)[1])
    return Poly([Fraction(c, g[-1]) for c in g])


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(signs: Sequence[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for u, v in zip(seq, seq[1:]) if u != v)


def count_real_roots_nonpositive(p: Poly) -> int:
    """Number of distinct real roots of ``p`` in (-inf, 0], by Sturm chains.

    Exact over rational arithmetic; multiple roots are counted once.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    if p.degree == 0:
        return 0
    square_free, _ = poly_divmod(p, poly_gcd(p, p.derivative()))
    at_zero = 0
    if square_free(0) == 0:
        # Pull out the (simple, after square-free reduction) root at the
        # endpoint so the Sturm endpoints are non-roots.
        at_zero = 1
        square_free, _ = poly_divmod(square_free, Poly.variable())
    if square_free.degree == 0:
        return at_zero
    chain = [square_free, square_free.derivative()]
    while not chain[-1].is_zero():
        _, r = poly_divmod(chain[-2], chain[-1])
        chain.append(-r)
    chain.pop()
    # Signs at -inf come from the leading coefficients and degree parity.
    at_minus_inf = [_sign(q.leading_coefficient()) * (-1) ** q.degree for q in chain]
    at_origin = [_sign(q(0)) for q in chain]
    negatives = _sign_variations(at_minus_inf) - _sign_variations(at_origin)
    return negatives + at_zero


class BiPoly:
    """Dense bivariate polynomial: ``rows[i][j]`` is the coefficient of x^i y^j."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]] = ()):
        grid = [[_coerce(c) for c in row] for row in rows]
        while grid and all(c == 0 for c in grid[-1]):
            grid.pop()
        width = 0
        for row in grid:
            top = len(row)
            while top and row[top - 1] == 0:
                top -= 1
            width = max(width, top)
        trimmed = tuple(
            tuple(row[j] if j < len(row) else Fraction(0) for j in range(width))
            for row in grid
        )
        object.__setattr__(self, "rows", trimmed)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "BiPoly":
        return cls([[value]])

    @classmethod
    def from_y_poly(cls, p: Poly) -> "BiPoly":
        return cls([list(p.coeffs)])

    @classmethod
    def from_x_poly(cls, p: Poly) -> "BiPoly":
        return cls([[c] for c in p.coeffs])

    @classmethod
    def outer(cls, px: Poly, py: Poly) -> "BiPoly":
        """Product px(x) * py(y)."""
        return cls([[a * b for b in py.coeffs] for a in px.coeffs])

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def x_degree(self) -> int:
        return len(self.rows) - 1

    @property
    def y_degree(self) -> int:
        return max((len(r) for r in self.rows), default=0) - 1

    def coefficient(self, i: int, j: int) -> Fraction:
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(("BiPoly", self.rows))

    def __neg__(self) -> "BiPoly":
        return BiPoly([[-c for c in row] for row in self.rows])

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        nr = max(len(self.rows), len(other.rows))
        nc = max(self.y_degree, other.y_degree) + 1
        return BiPoly(
            [
                [self.coefficient(i, j) + other.coefficient(i, j) for j in range(nc)]
                for i in range(nr)
            ]
        )

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            f = _coerce(other)
            return BiPoly([[c * f for c in row] for row in self.rows])
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return BiPoly()
        nr = len(self.rows) + len(other.rows) - 1
        nc = self.y_degree + other.y_degree + 1
        out = [[Fraction(0)] * nc for _ in range(nr)]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a:
                    for k, orow in enumerate(other.rows):
                        for l, b in enumerate(orow):
                            if b:
                                out[i + k][j + l] += a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: Scalar, y: Scalar) -> Fraction:
        """Exact evaluation at a rational point (x, y)."""
        xv, yv = _coerce(x), _coerce(y)
        total = Fraction(0)
        for row in reversed(self.rows):
            acc = Fraction(0)
            for c in reversed(row):
                acc = acc * yv + c
            total = total * xv + acc
        return total

    def substitute_x(self, x: Scalar) -> Poly:
        """Fix x at a rational value, leaving a polynomial in y."""
        xv = _coerce(x)
        acc = Poly()
        for row in reversed(self.rows):
            acc = acc * Poly.constant(xv) + Poly(row)
        return acc

    def substitute_y(self, y: Scalar) -> Poly:
        """Fix y at a rational value, leaving a polynomial in x."""
        yv = _coerce(y)
        return Poly([Poly(row)(yv) for row in self.rows])

    def substitute(self, x_image: Poly, y_image: Poly) -> "BiPoly":
        """Replace x by a polynomial in x and y by a polynomial in y."""
        result = BiPoly()
        x_power = Poly.constant(1)
        for row in self.rows:
            row_in_y = Poly(row).compose(y_image)
            result = result + BiPoly.outer(x_power, row_in_y)
            x_power = x_power * x_image
        return result

    def to_strings(self) -> list[list[str]]:
        """Nested coefficient arrays, x power outer, y power inner, lowest first."""
        return [[format_rational(c) for c in row] for row in self.rows]

    def __repr__(self) -> str:
        return f"BiPoly({self.to_strings()})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.rows)):
            for j in range(len(self.rows[i])):
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


class RatFunc:
    """Quotient of two polynomials in canonical form.

    Canonical means: the denominator is monic and nonzero, numerator and
    denominator are coprime, and the zero function is 0/1.  Two RatFunc
    values are equal exactly when their canonical fields are equal.
    Construction cancels the common factor on integer coefficient lists:
    primitive gcd, then exact integer division.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly([1])):
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise TypeError("RatFunc takes Poly numerator and denominator")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly([1])
        else:
            # num/den = (cn/cd) * pn/pd with pn, pd primitive integer lists;
            # dividing both by their primitive gcd leaves them coprime.
            cn, pn = _split_content(num.coeffs)
            cd, pd = _split_content(den.coeffs)
            g = _int_gcd(pn, pd)
            pn, pd = _exact_quotient(pn, g), _exact_quotient(pd, g)
            lead = pd[-1]
            scale = cn / (cd * lead)
            num = Poly([scale * c for c in pn])
            den = Poly([Fraction(c, lead) for c in pd])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly())

    @classmethod
    def from_scalar(cls, value: Scalar) -> "RatFunc":
        return cls(Poly.constant(value))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Poly)):
            return self == RatFunc(Poly._as_poly(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

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
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return self._as_ratfunc(other) / self

    def __pow__(self, exponent: int) -> "RatFunc":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("rational function powers must be non-negative integers")
        return RatFunc(self.num**exponent, self.den**exponent)

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
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {format_rational(_coerce(point))}")
        return self.num(point) / d

    def to_strings(self) -> dict[str, list[str]]:
        return {"num": self.num.to_strings(), "den": self.den.to_strings()}

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return ratfunc_str(self, "x")


def ratfunc_str(f: RatFunc, var: str) -> str:
    """Render as ``num/den``, collapsing denominators that are powers of (var-1)."""
    num = poly_str(f.num, var)
    if f.is_polynomial():
        return num
    d = f.den.degree
    if f.den == Poly([-1, 1]) ** d:
        den = f"({var}-1)" if d == 1 else f"({var}-1)^{d}"
    else:
        den = f"({poly_str(f.den, var)})"
    return f"({num})/{den}"


def compose_poly_rational(p: Poly, arg: RatFunc) -> RatFunc:
    """Exact substitution of a rational function into a polynomial.

    Computes sum_k c_k * num^k * den^(d-k) over den^d, then canonicalizes.
    """
    if p.is_zero():
        return RatFunc.zero()
    d = p.degree
    total = Poly()
    num_power = Poly.constant(1)
    for k, c in enumerate(p.coeffs):
        if c:
            total = total + c * num_power * arg.den ** (d - k)
        num_power = num_power * arg.num
    return RatFunc(total, arg.den**d)
