"""Identity catalog and verification runner.

Every identity the package implements is registered here under a stable
id as a ``RegistryEntry``, which states its structure as data:

* ``statement``: a one-line statement of the identity.
* ``quick`` and ``full``: the ``Bounds`` of the two profiles.  Zero means
  unused: the non-zero fields are the bounds the entry reads (the same set
  in both profiles), and an override of any other field is rejected.
* ``grids``: one or more sub-grids, each a case generator (bounds to a
  list of parameter dicts) paired with the evaluator that returns both
  sides of the identity for one of those cases.  Sub-identities, such as
  the symmetry of a sum or a second special value, are sub-grids of their
  own; their cases carry a fixed marker key (``sym``, ``neg2``,
  ``blocks``) so that reports stay distinct.
* ``witnesses``: ``(params, evaluate)`` pairs.  An entry with witnesses is
  ``corrected``: it implements a repaired form of a formula whose commonly
  printed variant fails machine verification.  Each witness evaluates the
  uncorrected variant at one point and passes exactly when it disagrees
  with the true value, freezing the erratum as an executable fact; its
  reported params carry ``printed: 1``.
* ``erratum``: the note on the printed variant, which the catalog
  document states.  An entry has one exactly when it has witnesses.
* ``aux_label``: what the ``aux_max`` bound counts, for the catalog
  document.  An entry has one exactly when it reads ``aux_max``.

Reports are deterministic: cases are emitted in sorted order of
(identity id, parameter binding) and all values serialize exactly.
"""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import apostol as ap
from . import bernoulli_numbers as bn
from . import combinat as cb
from . import polynomials as fp
from .exact import BiPoly, Poly, RatFunc, format_rational

# 25 rational sample points +/- p/q with p, q <= 7, used by every identity
# that is checked pointwise.  Singular points of a particular identity are
# not removed here; the evaluators skip them so the reports show where a
# precondition excluded a point.
SAMPLE_GRID: tuple[Fraction, ...] = tuple(
    Fraction(num, den)
    for num, den in [
        (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1),
        (1, 2), (-1, 2), (3, 2), (-3, 2), (5, 2), (-5, 2),
        (1, 3), (-1, 3), (2, 3), (-2, 3), (4, 3), (-4, 3),
        (1, 5), (-1, 5), (2, 5), (-2, 5), (3, 7), (-3, 7),
        (5, 7),
    ]
)

SERIES_TOL = Fraction(1, 10**12)
QUADRATURE_TOL = Fraction(1, 10**9)

PASS = "pass"
FAIL = "fail"
SKIP = "skipped-precondition"


class Bounds(NamedTuple):
    """Grid bounds for one entry; zero fields are unused by that entry."""

    n_max: int = 0
    m_max: int = 0
    k_max: int = 0
    p_max: int = 0
    samples: int = 0
    terms: int = 0
    aux_max: int = 0

    def used(self) -> frozenset[str]:
        """Names of the non-zero fields."""
        return frozenset(name for name, value in zip(self._fields, self) if value)


class Check(NamedTuple):
    """Outcome of evaluating one case: both sides plus the comparison mode."""

    mode: str  # "eq", "ne", "abs", "rel" or "skip"
    lhs: object = None
    rhs: object = None
    tol: Fraction = Fraction(0)

    @staticmethod
    def skip() -> "Check":
        return Check("skip")


Evaluator = Callable[[dict], Check]


class _EntryFields(NamedTuple):
    identity_id: str
    statement: str
    quick: Bounds
    full: Bounds
    grids: tuple[tuple[Callable[[Bounds], list[dict]], Evaluator], ...]
    witnesses: tuple[tuple[dict, Evaluator], ...] = ()
    erratum: str = ""
    aux_label: str = ""


class RegistryEntry(_EntryFields):
    __slots__ = ()  # no instance dict, so an entry stays as immutable as its fields

    def __new__(cls, *args, **kwargs) -> RegistryEntry:
        self = super().__new__(cls, *args, **kwargs)
        if bool(self.witnesses) != bool(self.erratum):
            raise ValueError(f"{self.identity_id}: witnesses and an erratum go together")
        if ("aux_max" in self.bounds_used) != bool(self.aux_label):
            raise ValueError(f"{self.identity_id}: an aux_max bound and its label go together")
        return self

    @property
    def corrected(self) -> bool:
        return bool(self.witnesses)

    @property
    def bounds_used(self) -> frozenset[str]:
        """The bound fields this entry reads."""
        return self.full.used()

    def checks(self, bounds: Bounds) -> list[tuple[dict, Evaluator]]:
        """Every case the bounds select, with its evaluator, in report order."""
        pairs = [(params, ev) for cases, ev in self.grids for params in cases(bounds)]
        pairs += [({**params, "printed": 1}, ev) for params, ev in self.witnesses]
        return sorted(pairs, key=lambda pair: _case_sort_key(pair[0]))

    def cases(self, bounds: Bounds) -> list[dict]:
        """The parameter dicts of ``checks``."""
        return [params for params, _ in self.checks(bounds)]


class IdentityReport(NamedTuple):
    """One evaluated case.  ``check`` is the ``Check`` it was judged on;
    ``lhs`` and ``rhs`` render its sides exactly when read, so output
    that prints only failed cases renders only those."""

    identity: str
    params: dict
    status: str
    check: Check
    elapsed_us: int

    @property
    def lhs(self) -> str:
        return serialize_value(self.check.lhs)

    @property
    def rhs(self) -> str:
        return serialize_value(self.check.rhs)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": params_json(self.params),
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "elapsed_us": self.elapsed_us,
        }


def params_json(params: dict) -> dict:
    """JSON form of a parameter binding, keys sorted: ints as they are,
    rationals as strings."""
    return {
        k: v if isinstance(v, int) else format_rational(v) for k, v in sorted(params.items())
    }


def value_json(value):
    """JSON-ready exact form of a computed value: a rational string for a
    scalar, nested lists of them for a polynomial, ``{"num", "den"}`` for a
    rational function."""
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, (Poly, BiPoly, RatFunc)):
        return value.to_strings()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def serialize_value(value) -> str:
    """Exact string form of any value a check can produce."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    cell = value_json(value)
    if isinstance(cell, str):
        return cell
    return json.dumps(cell, separators=(",", ":"), sort_keys=True)


def _case_sort_key(params: dict):
    return sorted(params.items())


def run_check(check: Check) -> str:
    """The status of one evaluated case: PASS, FAIL or SKIP."""
    if check.mode == "skip":
        return SKIP
    if check.mode == "eq":
        return PASS if check.lhs == check.rhs else FAIL
    if check.mode == "ne":
        return PASS if check.lhs != check.rhs else FAIL
    lhs = Fraction(check.lhs) if not isinstance(check.lhs, Fraction) else check.lhs
    rhs = Fraction(check.rhs) if not isinstance(check.rhs, Fraction) else check.rhs
    diff = abs(lhs - rhs)
    if check.mode == "abs":
        return PASS if diff <= check.tol else FAIL
    if check.mode == "rel":
        return PASS if diff <= check.tol * max(Fraction(1), abs(rhs)) else FAIL
    raise ValueError(f"unknown check mode {check.mode!r}")


# ---------------------------------------------------------------------------
# case generators
# ---------------------------------------------------------------------------


def _box(tags: Optional[dict] = None, /, **starts: int) -> Callable[[Bounds], list[dict]]:
    """Cases over every index from its start up to its bound (index ``n``
    reads ``n_max``, ``m`` reads ``m_max`` and so on), each carrying the
    fixed ``tags`` as well."""

    def cases(b: Bounds) -> list[dict]:
        ranges = [range(start, getattr(b, f"{name}_max") + 1) for name, start in starts.items()]
        return [
            {**dict(zip(starts, values)), **(tags or {})}
            for values in itertools.product(*ranges)
        ]

    return cases


def _sampled(var: str, start: int = 0) -> Callable[[Bounds], list[dict]]:
    """Cases n = start..n_max, with ``var`` over the first ``samples`` grid points."""

    def cases(b: Bounds) -> list[dict]:
        return [
            {"n": n, var: v} for n in range(start, b.n_max + 1) for v in SAMPLE_GRID[: b.samples]
        ]

    return cases


def _at_points(names: tuple[str, ...], points: tuple) -> Callable[[Bounds], list[dict]]:
    """Cases n = 0..n_max at each fixed point, its coordinates keyed by ``names``."""

    def cases(b: Bounds) -> list[dict]:
        return [
            {"n": n, **dict(zip(names, point))} for n in range(b.n_max + 1) for point in points
        ]

    return cases


def _cases_eq23_pairs(b: Bounds) -> list[dict]:
    grid = SAMPLE_GRID[: b.samples]
    return [
        {"n": n, "y1": grid[i], "y2": grid[i + 1]}
        for n in range(b.n_max + 1)
        for i in range(0, len(grid) - 1, 2)
    ]


def _cases_eq33(b: Bounds) -> list[dict]:
    return [{"m": m, "j": j} for m in range(b.m_max + 1) for j in range(m + 1)]


def _cases_stirling_cross(b: Bounds) -> list[dict]:
    return [{"i": i, "j": j} for i in range(b.n_max + 1) for j in range(b.m_max + 1)]


_XY_TRIPLES = (
    (Fraction(1), Fraction(-1, 2), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(-2), Fraction(3, 7)),
    (Fraction(-1), Fraction(3), Fraction(1, 2)),
    (Fraction(1, 7), Fraction(2, 5), Fraction(-2, 3)),
)

_XY_QUADS = (
    (Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(1, 5), Fraction(-1), Fraction(3, 2)),
    (Fraction(-2), Fraction(1, 2), Fraction(3, 7), Fraction(-5, 2)),
)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def _eval_eq1(p: dict) -> Check:
    partial = fp.geometric_moment_partial_sum(p["n"], Fraction(1, 2), p["terms"])
    return Check("rel", partial, 2 * fp.fubini_number(p["n"]), SERIES_TOL)


def _eval_eq3(p: dict) -> Check:
    n = p["n"]
    return Check("eq", fp.fubini_two_var(n).substitute_x(0), fp.fubini_poly(n))


_Y_IN_BIPOLY = BiPoly([[0, 1]])
_ONE_PLUS_Y = BiPoly([[1, 1]])


def _eval_eq4(p: dict) -> Check:
    n = p["n"]
    two_var = fp.fubini_two_var(n)
    shifted = two_var.substitute(Poly([1, 1]), Poly.variable())
    lhs = _Y_IN_BIPOLY * shifted
    rhs = _ONE_PLUS_Y * two_var - BiPoly.outer(Poly.monomial(n), Poly.constant(1))
    return Check("eq", lhs, rhs)


def _eval_eq5(p: dict) -> Check:
    n = p["n"]
    numbers = [fp.fubini_number(k) for k in range(n + 1)]
    lhs = cb.binomial_convolution(n, numbers, (1,) * (n + 1))
    return Check("eq", lhs, 2 * numbers[n])


def _eval_eq6(p: dict) -> Check:
    n = p["n"]
    signed = [(-1) ** k * fp.fubini_number(k) for k in range(n + 1)]
    lhs = 2 * cb.binomial_convolution(n, signed, (1,) * (n + 1))
    return Check("eq", lhs, signed[n] + 1)


def _eval_eq7(p: dict) -> Check:
    n = p["n"]
    lhs = Poly([0, 1]) * fp.fubini_two_var(n).substitute_x(1)
    rhs = Poly([1, 1]) * fp.fubini_poly(n)
    return Check("eq", lhs, rhs)


def _eval_eq9(p: dict) -> Check:
    n = p["n"]
    lhs = Poly([1, 1]) * fp.fubini_two_var(n).substitute_x(-1)
    rhs = Poly([0, 1]) * fp.fubini_poly(n) + Poly.constant((-1) ** n)
    return Check("eq", lhs, rhs)


def _eval_eq11(p: dict) -> Check:
    n = p["n"]
    return Check("eq", fp.fubini_poly(n), fp.fubini_poly_recurrence(n))


def _eval_eq12(p: dict) -> Check:
    n = p["n"]
    numbers = [fp.fubini_number(k) for k in range(n + 2)]
    lhs = 2 * cb.binomial_convolution(n, numbers, numbers)
    return Check("eq", lhs, numbers[n + 1] + numbers[n])


def _eval_eq13(p: dict) -> Check:
    n = p["n"]
    polys = [fp.fubini_poly(k) for k in range(n + 2)]
    lhs = Poly([1, 1]) * cb.binomial_convolution(n, polys, polys)
    return Check("eq", lhs, polys[n + 1] + polys[n])


def _eval_eq13_general(p: dict) -> Check:
    n, x1, x2, y = p["n"], p["x1"], p["x2"], p["y"]
    lhs = y * cb.binomial_convolution(
        n,
        [fp.fubini_two_var_eval(k, x1, y) for k in range(n + 1)],
        [fp.fubini_two_var_eval(k, x2, y) for k in range(n + 1)],
    )
    s = x1 + x2 - 1
    # The BiPoly route, so that the two sides share no formula.
    rhs = fp.fubini_two_var(n + 1)(s, y) - s * fp.fubini_two_var(n)(s, y)
    return Check("eq", lhs, rhs)


def _eval_eq14(p: dict) -> Check:
    n = p["n"]
    if n > fp.BRUTEFORCE_CAP:
        return Check.skip()
    return Check("eq", fp.fubini_number(n), fp.fubini_number_bruteforce(n))


def _eval_eq14_blocks(p: dict) -> Check:
    n = p["n"]
    if n > fp.BRUTEFORCE_CAP:
        return Check.skip()
    return Check("eq", fp.fubini_poly(n), Poly(fp.ordered_partition_block_counts(n)))


def _eval_eq15(p: dict) -> Check:
    return Check("eq", fp.fubini_poly(p["n"])(Fraction(-1, 2)), Fraction(0))


def _eval_eq15_neg2(p: dict) -> Check:
    n = p["n"]
    lhs = fp.fubini_poly(n)(-2)
    return Check("eq", lhs, Fraction((-1) ** n * 2 * fp.fubini_number(n)))


def _eval_eq17(p: dict) -> Check:
    n = p["n"]
    numbers = [fp.fubini_number(k) for k in range(n + 1)]
    signed = [(-1) ** k * f for k, f in enumerate(numbers)]
    lhs = cb.binomial_convolution(n, signed, numbers)
    rhs = Fraction(0) if n % 2 == 1 else Fraction(4, 3) * numbers[n]
    return Check("eq", Fraction(lhs), rhs)


def _eval_eq18(p: dict) -> Check:
    n = p["n"]
    two_var = fp.fubini_two_var(n)
    lhs = two_var.substitute(Poly.variable(), Poly([-1, 1]))
    rhs = (-1) ** n * two_var.substitute(Poly([1, -1]), Poly([0, -1]))
    return Check("eq", lhs, rhs)


def _eval_eq19(p: dict) -> Check:
    n, y = p["n"], p["y"]
    if y == -1 or y == 0:
        return Check.skip()
    poly = fp.fubini_poly(n)
    rhs = (-1) ** n * (y / (y + 1)) * poly(-y - 1)
    return Check("eq", poly(y), rhs)


def _eval_eq21(p: dict) -> Check:
    n = p["n"]
    return Check("eq", fp.fubini_reflection_form(n), fp.fubini_poly(n))


def _eval_eq23(p: dict) -> Check:
    n, y1, y2 = p["n"], p["y1"], p["y2"]
    if y1 == y2:
        return Check.skip()
    polys = [fp.fubini_poly(k) for k in range(n + 1)]
    lhs = cb.binomial_convolution(n, [f(y1) for f in polys], [f(y2) for f in polys])
    f_n = polys[n]
    rhs = (y2 * f_n(y2) - y1 * f_n(y1)) / (y2 - y1)
    return Check("eq", lhs, rhs)


def _eval_eq23_xy(p: dict) -> Check:
    n, x1, x2, y1, y2 = p["n"], p["x1"], p["x2"], p["y1"], p["y2"]
    lhs = cb.binomial_convolution(
        n,
        [fp.fubini_two_var_eval(k, x1, y1) for k in range(n + 1)],
        [fp.fubini_two_var_eval(k, x2, y2) for k in range(n + 1)],
    )
    s = x1 + x2
    rhs = (
        y2 * fp.fubini_two_var_eval(n, s, y2) - y1 * fp.fubini_two_var_eval(n, s, y1)
    ) / (y2 - y1)
    return Check("eq", lhs, rhs)


def _eval_eq24(p: dict) -> Check:
    n, y = p["n"], p["y"]
    if y == Fraction(-1, 2) or y == -1:
        return Check.skip()
    poly = fp.fubini_poly(n)
    lhs = 2 ** (n + 1) * (1 + y) * poly(y**2 / (1 + 2 * y))
    rhs = (1 + 2 * y) * poly(y) + poly(-y / (1 + 2 * y))
    return Check("eq", lhs, rhs)


def _printed_eq24(p: dict) -> Check:
    # Uncorrected variant: F_n(y) = 2^(n+1)(1+y) F_n(y^2/(1+2y)) - (1+2y) F_n(-y).
    n, y = p["n"], p["y"]
    poly = fp.fubini_poly(n)
    claimed = 2 ** (n + 1) * (1 + y) * poly(y**2 / (1 + 2 * y)) - (1 + 2 * y) * poly(-y)
    return Check("ne", claimed, poly(y))


def _eval_eq26(p: dict) -> Check:
    return Check("eq", bn.bernoulli_via_integral(p["n"]), bn.bernoulli(p["n"]))


def _eval_eq30_sym(p: dict) -> Check:
    m, n = p["m"], p["n"]
    return Check("eq", bn.bernoulli_binomial_sum(m, n), bn.bernoulli_binomial_sum(n, m))


def _eval_eq32(p: dict) -> Check:
    # The Stirling sum of the printed statement is the integral of F_n over
    # [-1, 0]; ``bernoulli`` reads tangent numbers or zeta(n) instead.
    n = p["n"]
    return Check("eq", fp.fubini_poly(n).integrate(-1, 0), bn.bernoulli_recurrence(n))


def _eval_eq33(p: dict) -> Check:
    m, j = p["m"], p["j"]
    lhs = cb.alternating_stirling_convolution(m, j)
    return Check("eq", lhs, (-1) ** m * cb.binomial(m, j))


def _eval_eq84(p: dict) -> Check:
    n, y = p["n"], p["y"]
    if y == Fraction(-1, 2):
        return Check.skip()
    return Check("eq", fp.fubini_split_eval(n, y), fp.fubini_poly(n)(y))


def _eval_eq85(p: dict) -> Check:
    n = p["n"]
    return Check("eq", fp.fubini_number_split_sum(n), Fraction(fp.fubini_number(n)))


def _eval_eq86(p: dict) -> Check:
    n = p["n"]
    return Check(
        "eq", fp.fubini_number_split_sum_neg2(n), Fraction(fp.fubini_number(n))
    )


def _eval_pb_zero(p: dict) -> Check:
    return Check("eq", bn.p_bernoulli(p["n"], 0), bn.bernoulli(p["n"]))


def _eval_pb_odd(p: dict) -> Check:
    n, q = p["n"], p["p"]
    return Check("eq", bn.p_bernoulli_odd_explicit(n, q), bn.p_bernoulli(2 * n - 1, q))


def _printed_pb_odd(p: dict) -> Check:
    # Uncorrected variant: upper Stirling index 2n-1 and sign (-1)^(k+1).
    n, q = p["n"], p["p"]
    printed = bn.p_bernoulli_stirling_sum(2 * n - 1, q, -1)
    return Check("ne", printed, bn.p_bernoulli(2 * n - 1, q))


def _eval_pb_even(p: dict) -> Check:
    n, q = p["n"], p["p"]
    return Check("eq", bn.p_bernoulli_even_explicit(n, q), bn.p_bernoulli(2 * n, q))


def _printed_pb_even(p: dict) -> Check:
    # Uncorrected variant: sign (-1)^k instead of (-1)^(k+1).
    n, q = p["n"], p["p"]
    printed = bn.p_bernoulli_stirling_sum(2 * n + 1, q, 1)
    return Check("ne", printed, bn.p_bernoulli(2 * n, q))


def _eval_ab_routes(p: dict) -> Check:
    n = p["n"]
    return Check("eq", ap.apostol_via_fubini(n), ap.apostol_bernoulli(n))


def _eval_ab_guoqi(p: dict) -> Check:
    n = p["n"]
    return Check("eq", ap.apostol_alternating_form(n - 1), ap.apostol_bernoulli(n))


def _printed_ab_guoqi(p: dict) -> Check:
    # The alternating power sum read literally at its lowest index
    # produces lam/(lam-1); the true index-1 function is 1/(lam-1).
    printed = RatFunc(Poly([0, 1]), order=1)
    return Check("ne", printed, ap.apostol_bernoulli(1))


def _eval_ab_split(p: dict) -> Check:
    n, lam = p["n"], p["lam"]
    if lam == 1 or lam == -1:
        return Check.skip()
    lhs = ap.apostol_split_eval(n, lam)
    rhs = ap.apostol_bernoulli(n + 1)(lam) / (n + 1)
    return Check("eq", lhs, rhs)


def _eval_ab_sum_products(p: dict) -> Check:
    n, lam = p["n"], p["lam"]
    if lam == 1:
        return Check.skip()
    lhs, rhs = ap.apostol_sum_of_products(n, lam)
    return Check("eq", lhs, rhs)


def _printed_ab_product(p: dict) -> Check:
    # Uncorrected variant pairs indices m and n with the prefactor
    # (m+1)(n+1); the true integral of the index-m and index-n
    # functions is the (m-1, n-1) exact reduction.
    m, n = p["m"], p["n"]
    printed = (m + 1) * (n + 1) * bn.bernoulli_binomial_sum(m, n)
    return Check("ne", printed, ap.apostol_product_integral_exact(m - 1, n - 1))


_QUAD_SPOTS: tuple[Callable[[], tuple[RatFunc, Fraction]], ...] = (
    lambda: (ap.apostol_bernoulli(1) * ap.apostol_bernoulli(2),
             ap.apostol_product_integral_exact(0, 1)),
    lambda: (ap.apostol_bernoulli(2) * ap.apostol_bernoulli(2),
             ap.apostol_product_integral_exact(1, 1)),
    lambda: (ap.apostol_bernoulli(1) * ap.apostol_bernoulli(1),
             ap.apostol_product_integral_exact(0, 0)),
    lambda: (ap.lambda_moment_weight(0) * ap.apostol_bernoulli(2),
             ap.apostol_moment_integral(0, 1)[0]),
    lambda: (ap.lambda_moment_weight(1) * ap.apostol_bernoulli(2),
             ap.apostol_moment_integral(1, 1)[0]),
    lambda: (ap.lambda_moment_weight(0) * ap.apostol_bernoulli(3),
             ap.apostol_moment_integral(0, 2)[0]),
)


def _eval_quadrature(p: dict) -> Check:
    integrand, exact = _QUAD_SPOTS[p["spot"]]()
    approx = ap.improper_quadrature_oracle(integrand, QUADRATURE_TOL / 2)
    return Check("abs", exact, approx, QUADRATURE_TOL)


def _eval_stirling_inverse(p: dict) -> Check:
    n, m = p["n"], p["m"]
    return Check("eq", cb.stirling_inverse_sum(n, m), int(n == m))


def _printed_stirling_cross(p: dict) -> Check:
    # Transposed variant: sum_k S2(i,k) C(k,j); at (2,0) it produces a
    # Bell number instead of S2(3,1).
    i, j = p["i"], p["j"]
    transposed = sum(cb.stirling2(i, k) * cb.binomial(k, j) for k in range(i + 1))
    return Check("ne", transposed, cb.stirling2(i + 1, j + 1))


# ---------------------------------------------------------------------------
# the registry itself
# ---------------------------------------------------------------------------


_ENTRY_LIST: list[RegistryEntry] = [
    RegistryEntry(
        "eq1_series",
        "sum_{k=0..N} k^n / 2^k -> 2 F_n as N grows (checked at relative error 1e-12)",
        quick=Bounds(n_max=5, terms=70),
        full=Bounds(n_max=10, terms=80),
        grids=((lambda b: [{"n": n, "terms": b.terms} for n in range(b.n_max + 1)], _eval_eq1),),
    ),
    RegistryEntry(
        "eq3_two_var",
        "F_n(0;y) = F_n(y): the two-variable family restricts to the one-variable one",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        grids=((_box(n=0), _eval_eq3),),
    ),
    RegistryEntry(
        "eq4_shift",
        "y F_n(x+1;y) = (1+y) F_n(x;y) - x^n",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        grids=((_box(n=0), _eval_eq4),),
    ),
    RegistryEntry(
        "eq5_binomial",
        "sum_k C(n,k) F_k = 2 F_n  (n >= 1)",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
        grids=((_box(n=1), _eval_eq5),),
    ),
    RegistryEntry(
        "eq6_alt_binomial",
        "2 sum_k C(n,k) (-1)^k F_k = (-1)^n F_n + 1",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
        grids=((_box(n=0), _eval_eq6),),
    ),
    RegistryEntry(
        "eq7_x1",
        "y F_n(1;y) = (1+y) F_n(y)  (n >= 1)",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        grids=((_box(n=1), _eval_eq7),),
    ),
    RegistryEntry(
        "eq9_xneg1",
        "(1+y) F_n(-1;y) = y F_n(y) + (-1)^n",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        grids=((_box(n=0), _eval_eq9),),
    ),
    RegistryEntry(
        "eq11_recurrence",
        "F_{n+1}(y) = y d/dy[(1+y) F_n(y)] rebuilds the Stirling-sum construction",
        quick=Bounds(n_max=15),
        full=Bounds(n_max=40),
        grids=((_box(n=0), _eval_eq11),),
    ),
    RegistryEntry(
        "eq12_products_numbers",
        "2 sum_k C(n,k) F_k F_{n-k} = F_{n+1} + F_n",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
        grids=((_box(n=0), _eval_eq12),),
    ),
    RegistryEntry(
        "eq13_products_poly",
        "(y+1) sum_k C(n,k) F_k(y) F_{n-k}(y) = F_{n+1}(y) + F_n(y)",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        grids=((_box(n=0), _eval_eq13),),
    ),
    RegistryEntry(
        "eq13_general_xy",
        "y sum_k C(n,k) F_k(x1;y) F_{n-k}(x2;y) = F_{n+1}(s;y) - s F_n(s;y), s = x1+x2-1",
        quick=Bounds(n_max=5),
        full=Bounds(n_max=15),
        grids=((_at_points(("x1", "x2", "y"), _XY_TRIPLES), _eval_eq13_general),),
    ),
    RegistryEntry(
        "eq14_enumeration",
        "F_n and the coefficients of F_n(y) count ordered set partitions (by block count)",
        quick=Bounds(n_max=7, aux_max=6),
        full=Bounds(n_max=10, aux_max=8),
        aux_label="per-block counts n",
        grids=(
            (_box(n=0), _eval_eq14),
            (lambda b: [{"n": n, "blocks": 1} for n in range(b.aux_max + 1)], _eval_eq14_blocks),
        ),
    ),
    RegistryEntry(
        "eq15_special_values",
        "F_{2k}(-1/2) = 0 (k >= 1) and F_n(-2) = (-1)^n 2 F_n (n >= 1)",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
        grids=(
            (lambda b: [{"n": 2 * k} for k in range(1, b.n_max // 2 + 1)], _eval_eq15),
            (_box({"neg2": 1}, n=1), _eval_eq15_neg2),
        ),
    ),
    RegistryEntry(
        "eq17_alt_products",
        "sum_k C(n,k) (-1)^k F_k F_{n-k} = 0 for odd n, (4/3) F_n for even n >= 2",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
        grids=((_box(n=1), _eval_eq17),),
    ),
    RegistryEntry(
        "eq18_two_var_reflection",
        "F_n(x; y-1) = (-1)^n F_n(1-x; -y)",
        quick=Bounds(n_max=6),
        full=Bounds(n_max=15),
        grids=((_box(n=0), _eval_eq18),),
    ),
    RegistryEntry(
        "eq19_reflection",
        "F_n(y) = (-1)^n (y/(y+1)) F_n(-y-1)  (n >= 1; y not in {-1, 0})",
        quick=Bounds(n_max=6, samples=10),
        full=Bounds(n_max=15, samples=25),
        grids=((_sampled("y", start=1), _eval_eq19),),
    ),
    RegistryEntry(
        "eq21_explicit",
        "F_n(y) = y sum_{k=1..n} S2(n,k) (-1)^(n+k) k! (y+1)^(k-1)  (n >= 1)",
        quick=Bounds(n_max=10),
        full=Bounds(n_max=25),
        grids=((_box(n=1), _eval_eq21),),
    ),
    RegistryEntry(
        "eq23_two_y",
        "sum_k C(n,k) F_k(y1) F_{n-k}(y2) = [y2 F_n(y2) - y1 F_n(y1)]/(y2-y1), "
        "including the two-variable form at x1, x2",
        quick=Bounds(n_max=6, samples=10),
        full=Bounds(n_max=15, samples=25),
        grids=(
            (_cases_eq23_pairs, _eval_eq23),
            (_at_points(("x1", "x2", "y1", "y2"), _XY_QUADS), _eval_eq23_xy),
        ),
    ),
    RegistryEntry(
        "eq24_corrected_split",
        "2^(n+1) (1+y) F_n(y^2/(1+2y)) = (1+2y) F_n(y) + F_n(-y/(1+2y))  "
        "(corrected form; y not in {-1/2, -1})",
        quick=Bounds(n_max=6, samples=10),
        full=Bounds(n_max=15, samples=25),
        grids=((_sampled("y"), _eval_eq24),),
        witnesses=(({"n": 1, "y": Fraction(1)}, _printed_eq24),),
        erratum=(
            "The variant F_n(y) = 2^(n+1)(1+y) F_n(y^2/(1+2y)) - (1+2y) F_n(-y) "
            "fails already at n = 1, y = 1 (it claims 17/3 for F_1(1) = 1); the "
            "partial-fraction derivation it comes from drops a factor. The "
            "corrected identity verified here moves F_n(-y/(1+2y)) to the right "
            "side with prefactor (1+2y) on F_n(y); the split forms eq84/eq85/eq86 "
            "that follow from it are sound as stated and are verified unchanged."
        ),
    ),
    RegistryEntry(
        "eq25_moment",
        "int_{-1}^{0} y^k F_n(y) dy = ((-1)^k / k!) sum_j S1u(k+1,j+1) B_{n+j}  (n >= 1)",
        quick=Bounds(k_max=4, n_max=8),
        full=Bounds(k_max=10, n_max=20),
        grids=(
            (_box(k=0, n=1), lambda p: Check("eq", *bn.fubini_moment_integral(p["k"], p["n"]))),
        ),
    ),
    RegistryEntry(
        "eq26_integral",
        "int_{-1}^{0} F_n(y) dy = B_n  (n >= 1)",
        quick=Bounds(n_max=10),
        full=Bounds(n_max=30),
        grids=((_box(n=1), _eval_eq26),),
    ),
    RegistryEntry(
        "eq28_parity",
        "int_{-1}^{0} y^p F_n(y) dy = -/+ ((p+1)/(p+2)) B_{n-1,p+1}, "
        "sign fixed by the parities of n and p  (n >= 2)",
        quick=Bounds(p_max=4, n_max=8),
        full=Bounds(p_max=8, n_max=15),
        grids=(
            (_box(p=0, n=2), lambda p: Check("eq", *bn.fubini_moment_parity(p["p"], p["n"]))),
        ),
    ),
    RegistryEntry(
        "eq30_product_integral",
        "int_{-1}^{0} F_m F_n dy = (-1)^m sum_j C(m,j) B_{n+j}  (n >= 1), "
        "and the sum is symmetric under m <-> n",
        quick=Bounds(m_max=6, n_max=6),
        full=Bounds(m_max=12, n_max=12),
        grids=(
            (_box(m=0, n=1), lambda p: Check("eq", *bn.fubini_product_integral(p["m"], p["n"]))),
            (_box({"sym": 1}, m=1, n=1), _eval_eq30_sym),
        ),
    ),
    RegistryEntry(
        "eq32_bernoulli",
        "B_n = sum_k S2(n,k) (-1)^k k!/(k+1) agrees with the binomial recurrence",
        quick=Bounds(n_max=12),
        full=Bounds(n_max=30),
        grids=((_box(n=0), _eval_eq32),),
    ),
    RegistryEntry(
        "eq33_lemma2",
        "sum_{k=j..m} S2(m,k) S1u(k+1,j+1) (-1)^k = (-1)^m C(m,j)",
        quick=Bounds(m_max=12),
        full=Bounds(m_max=40),
        grids=((_cases_eq33, _eval_eq33),),
    ),
    RegistryEntry(
        "eq84_split",
        "F_n(y) = sum_k S2(n,k) k! y^k [2^(n+1)(y+1) y^k + (-1)^(k+1)]/(2y+1)^(k+1)  "
        "(y != -1/2; cases without y clear (2y+1)^(n+1) and compare polynomials)",
        quick=Bounds(n_max=6, samples=10, aux_max=5),
        full=Bounds(n_max=15, samples=25, aux_max=10),
        aux_label="symbolic collapse n",
        grids=(
            (_sampled("y"), _eval_eq84),
            (
                lambda b: [{"n": n} for n in range(b.aux_max + 1)],
                lambda p: Check("eq", *fp.fubini_split_collapse(p["n"])),
            ),
        ),
    ),
    RegistryEntry(
        "eq85_number_split",
        "F_n = sum_k S2(n,k) k! [2^(n+2) + (-1)^(k+1)] / 3^(k+1)",
        quick=Bounds(n_max=10),
        full=Bounds(n_max=20),
        grids=((_box(n=0), _eval_eq85),),
    ),
    RegistryEntry(
        "eq86_number_split_neg2",
        "F_n = sum_k (-1)^(n-k) S2(n,k) k! 2^(k-1) [2^(n+k+1) + 1] / 3^(k+1)  (n >= 1)",
        quick=Bounds(n_max=10),
        full=Bounds(n_max=20),
        grids=((_box(n=1), _eval_eq86),),
    ),
    RegistryEntry(
        "double_sum",
        "sum_{k,j} S2(n,k) S2(m,j) (-1)^(k+j) k! j! / (k+j+1) = "
        "(-1)^m sum_j C(m,j) B_{n+j}  (n >= 1)",
        quick=Bounds(n_max=6, m_max=6),
        full=Bounds(n_max=12, m_max=12),
        grids=(
            (_box(n=1, m=0), lambda p: Check("eq", *bn.double_sum_identity(p["n"], p["m"]))),
        ),
    ),
    RegistryEntry(
        "pb_relation",
        "B_{n,0} = B_n, and sum_j (-1)^(j+1) S1u(p+1,j+1) B_{n+j} = "
        "((p+1)!/(p+2)) B_{n-1,p+1}  (n >= 1)",
        quick=Bounds(n_max=10, p_max=5),
        full=Bounds(n_max=20, p_max=8),
        grids=(
            (_box(n=0), _eval_pb_zero),
            (
                _box(n=1, p=0),
                lambda p: Check("eq", *bn.p_bernoulli_shift_relation(p["n"], p["p"])),
            ),
        ),
    ),
    RegistryEntry(
        "pb_odd_explicit",
        "B_{2n-1,p} = ((p+1)/p) sum_k S2(2n,k+1) (-1)^k (k+1)!/(k+p+1)  "
        "(corrected form; n >= 1, p >= 1)",
        quick=Bounds(n_max=4, p_max=5),
        full=Bounds(n_max=10, p_max=10),
        grids=((_box(n=1, p=1), _eval_pb_odd),),
        witnesses=(({"n": 1, "p": 1}, _printed_pb_odd),),
        erratum=(
            "The variant with upper Stirling index 2n-1 and sign (-1)^(k+1) gives "
            "-1 at (n,p) = (1,1); the Stirling-relation oracle gives -1/3. The "
            "corrected form uses upper index 2n and sign (-1)^k."
        ),
    ),
    RegistryEntry(
        "pb_even_explicit",
        "B_{2n,p} = ((p+1)/p) sum_k S2(2n+1,k+1) (-1)^(k+1) (k+1)!/(k+p+1)  "
        "(corrected form; n >= 1, p >= 1)",
        quick=Bounds(n_max=4, p_max=5),
        full=Bounds(n_max=10, p_max=10),
        grids=((_box(n=1, p=1), _eval_pb_even),),
        witnesses=(({"n": 1, "p": 2}, _printed_pb_even),),
        erratum=(
            "The variant with sign (-1)^k gives +1/20 at (n,p) = (1,2); the "
            "oracle gives -1/20. The corrected form uses sign (-1)^(k+1)."
        ),
    ),
    RegistryEntry(
        "ab_routes",
        "AB_n(lam) = (n/(lam-1)) F_{n-1}(lam/(1-lam)) matches the direct "
        "Stirling-sum construction, as canonical rational functions  (n >= 1)",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        grids=((_box(n=1), _eval_ab_routes),),
    ),
    RegistryEntry(
        "ab_guoqi",
        "AB_{n+1}(lam)/(n+1) = (-1)^n lam sum_k S2(n,k) k! (1/(lam-1))^(k+1)  "
        "(restricted to n >= 1; the n = 0 instance is a known erratum)",
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        grids=((_box(n=2), _eval_ab_guoqi),),
        witnesses=(({"n": 1}, _printed_ab_guoqi),),
        erratum=(
            "Read literally at n = 0 the alternating power sum yields "
            "lam/(lam-1), but the true index-1 function is 1/(lam-1). The "
            "derivation passes through a reflection form that is only stated for "
            "n >= 1, so the n = 0 instance was never covered; the operation is "
            "restricted to n >= 1 instead of patching the formula."
        ),
    ),
    RegistryEntry(
        "ab_split",
        "AB_{n+1}(lam)/(n+1) = sum_k S2(n,k) k! (-lam)^k "
        "[2^(n+1) lam^k + (lam-1)^(k+1)] / (lam^2-1)^(k+1)  (lam != +/-1)",
        quick=Bounds(n_max=5, samples=10),
        full=Bounds(n_max=12, samples=25),
        grids=((_sampled("lam"), _eval_ab_split),),
    ),
    RegistryEntry(
        "ab_sum_products",
        "sum_k C(n,k) AB_{k+1} AB_{n-k+1} / ((k+1)(n-k+1)) = "
        "-[AB_{n+2}/(n+2) + AB_{n+1}/(n+1)]  (lam != 1)",
        quick=Bounds(n_max=5, samples=10),
        full=Bounds(n_max=10, samples=25),
        grids=((_sampled("lam"), _eval_ab_sum_products),),
    ),
    RegistryEntry(
        "ab_moment_integral",
        "int_{-inf}^{0} lam^k/(lam-1)^(k+1) AB_{n+1}(lam) dlam = "
        "((n+1)/k!) sum_j S1u(k+1,j+1) B_{n+j}  (n >= 1)",
        quick=Bounds(k_max=3, n_max=4),
        full=Bounds(k_max=6, n_max=8),
        grids=(
            (_box(k=0, n=1), lambda p: Check("eq", *ap.apostol_moment_integral(p["k"], p["n"]))),
        ),
    ),
    RegistryEntry(
        "ab_product_integral",
        "int_{-inf}^{0} AB_{m+1} AB_{n+1} dlam = (-1)^m (m+1)(n+1) "
        "sum_j C(m,j) B_{n+j}  (corrected indices; m >= 0, n >= 1)",
        quick=Bounds(m_max=4, n_max=4),
        full=Bounds(m_max=8, n_max=8),
        grids=(
            (_box(m=0, n=1), lambda p: Check("eq", *ap.apostol_product_integral(p["m"], p["n"]))),
        ),
        witnesses=(({"m": 1, "n": 1}, _printed_ab_product),),
        erratum=(
            "Pairing the integrand indices as (m, n) with prefactor (m+1)(n+1) "
            "fails at m = n = 1: the integral of the square of the index-1 "
            "function is 1, while that variant claims 4/3. The corrected "
            "statement integrates the index-(m+1) and index-(n+1) functions."
        ),
    ),
    RegistryEntry(
        "ab_quadrature_oracle",
        "adaptive quadrature over the compactified half-line reproduces the "
        "exact improper integrals within 1e-9",
        quick=Bounds(),
        full=Bounds(),
        grids=((lambda b: [{"spot": i} for i in range(len(_QUAD_SPOTS))], _eval_quadrature),),
    ),
    RegistryEntry(
        "stirling_inverse",
        "sum_k s1(n,k) S2(k,m) = [n = m], with s1(n,k) = (-1)^(n+k) S1u(n,k)",
        quick=Bounds(n_max=12, m_max=12),
        full=Bounds(n_max=40, m_max=40),
        grids=((_box(n=0, m=0), _eval_stirling_inverse),),
    ),
    RegistryEntry(
        "stirling_cross",
        "sum_k C(i,k) S2(k,j) = S2(i+1,j+1)  (corrected order; the transposed "
        "variant fails at i=2, j=0)",
        quick=Bounds(n_max=8, m_max=8),
        full=Bounds(n_max=20, m_max=20),
        grids=(
            (
                _cases_stirling_cross,
                lambda p: Check("eq", *cb.stirling_binomial_convolution(p["i"], p["j"])),
            ),
        ),
        witnesses=(({"i": 2, "j": 0}, _printed_stirling_cross),),
        erratum=(
            "The transposed convolution sum_k S2(i,k) C(k,j) fails at "
            "(i,j) = (2,0), where it sums a Stirling row to the Bell number 2 "
            "while S2(3,1) = 1. The classical identity puts the binomial on the "
            "outer index: sum_k C(i,k) S2(k,j) = S2(i+1,j+1)."
        ),
    ),
]

REGISTRY: dict[str, RegistryEntry] = {e.identity_id: e for e in _ENTRY_LIST}

PROFILES = ("quick", "full")


def list_identities() -> list[RegistryEntry]:
    """All registry entries, sorted by identity id."""
    return sorted(REGISTRY.values(), key=lambda e: e.identity_id)


def _apply_overrides(entry: RegistryEntry, bounds: Bounds, overrides: Optional[dict]) -> Bounds:
    valid = {k: v for k, v in (overrides or {}).items() if v is not None}
    unused = sorted(set(valid) - entry.bounds_used)
    if unused:
        raise ValueError(f"{', '.join(unused)} does not apply to {entry.identity_id}")
    samples = valid.get("samples", 1)
    if not 1 <= samples <= len(SAMPLE_GRID):
        raise ValueError(
            f"samples must be between 1 and {len(SAMPLE_GRID)}, got {samples}"
        )
    return bounds._replace(**valid)


def verify(
    identity_id: str,
    profile: str = "full",
    overrides: Optional[dict] = None,
) -> list[IdentityReport]:
    """Run one identity over its parameter grid; reports in sorted order.

    Each report keeps the ``Check`` its case was judged on and renders
    ``lhs`` and ``rhs`` only when they are read.

    Raises ValueError when an override names a bound the entry does not
    read, when the bounds select no case, or when every case they select
    is skipped by a precondition, so that a run can never pass without
    checking anything.
    """
    if identity_id not in REGISTRY:
        raise KeyError(identity_id)
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    entry = REGISTRY[identity_id]
    bounds = _apply_overrides(
        entry, entry.quick if profile == "quick" else entry.full, overrides
    )
    checks = entry.checks(bounds)
    if not checks:
        raise ValueError(f"the bounds select no case of {identity_id}")
    reports = []
    for params, evaluate in checks:
        start = time.perf_counter_ns()
        check = evaluate(params)
        status = run_check(check)
        elapsed_us = (time.perf_counter_ns() - start) // 1000
        reports.append(IdentityReport(identity_id, params, status, check, elapsed_us))
    if all(r.status == SKIP for r in reports):
        raise ValueError(f"the bounds select only skipped cases of {identity_id}")
    return reports


class VerificationRun(NamedTuple):
    profile: str
    reports: tuple[IdentityReport, ...]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.reports if r.status == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reports if r.status == FAIL)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.reports if r.status == SKIP)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def counts(self) -> dict:
        """Case totals by status, in report order."""
        return {
            "total": len(self.reports),
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
        }

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile,
            "identities": len({r.identity for r in self.reports}),
            **self.counts(),
            "reports": [r.to_json_dict() for r in self.reports],
        }


def verify_all(profile: str) -> VerificationRun:
    """Run every registry entry on its default grid for the given profile;
    reports in sorted order of (identity, params)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    reports: list[IdentityReport] = []
    for entry in list_identities():
        reports.extend(verify(entry.identity_id, profile=profile))
    return VerificationRun(profile=profile, reports=tuple(reports))
