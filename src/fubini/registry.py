"""Identity catalog and verification runner.

Every identity the package implements is registered here under a stable
id, together with a one-line statement, default parameter grids for the
``quick`` and ``full`` profiles, and an evaluator that returns both sides
of the identity for one parameter binding.  Entries flagged ``corrected``
implement a repaired form of a formula whose commonly printed variant
fails machine verification; each such entry carries witness cases
(params include ``printed: 1``) that evaluate the uncorrected variant and
pass exactly when it disagrees with the true value, freezing the erratum
as an executable fact.

Reports are deterministic: cases are emitted in sorted order of
(identity id, parameter binding) and all values serialize exactly.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

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


@dataclass(frozen=True)
class Bounds:
    """Grid bounds for one entry; zero fields are unused by that entry."""

    n_max: int = 0
    m_max: int = 0
    k_max: int = 0
    p_max: int = 0
    samples: int = 25
    terms: int = 80
    aux_max: int = 0


@dataclass(frozen=True)
class Check:
    """Outcome of evaluating one case: both sides plus the comparison mode."""

    mode: str  # "eq", "ne", "abs", "rel" or "skip"
    lhs: object = None
    rhs: object = None
    tol: Fraction = Fraction(0)

    @staticmethod
    def skip() -> "Check":
        return Check("skip")


@dataclass(frozen=True)
class RegistryEntry:
    identity_id: str
    statement: str
    corrected: bool
    quick: Bounds
    full: Bounds
    cases: Callable[[Bounds], list[dict]]
    evaluate: Callable[[dict], Check]


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: dict
    status: str
    lhs: str
    rhs: str
    elapsed_us: int

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": {k: _param_json(v) for k, v in sorted(self.params.items())},
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "elapsed_us": self.elapsed_us,
        }


def _param_json(value):
    if isinstance(value, int):
        return value
    return format_rational(value)


def serialize_value(value) -> str:
    """Exact string form of any value a check can produce."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Poly):
        return json.dumps(value.to_strings(), separators=(",", ":"))
    if isinstance(value, BiPoly):
        return json.dumps(value.to_strings(), separators=(",", ":"))
    if isinstance(value, RatFunc):
        return json.dumps(value.to_strings(), separators=(",", ":"), sort_keys=True)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _case_sort_key(params: dict):
    return tuple((k, Fraction(v)) for k, v in sorted(params.items()))


def _grid(bounds: Bounds) -> tuple[Fraction, ...]:
    return SAMPLE_GRID[: bounds.samples]


def _values_equal(lhs, rhs) -> bool:
    return lhs == rhs


def _run_check(check: Check) -> str:
    if check.mode == "skip":
        return SKIP
    if check.mode == "eq":
        return PASS if _values_equal(check.lhs, check.rhs) else FAIL
    if check.mode == "ne":
        return PASS if not _values_equal(check.lhs, check.rhs) else FAIL
    lhs = Fraction(check.lhs) if not isinstance(check.lhs, Fraction) else check.lhs
    rhs = Fraction(check.rhs) if not isinstance(check.rhs, Fraction) else check.rhs
    diff = abs(lhs - rhs)
    if check.mode == "abs":
        return PASS if diff <= check.tol else FAIL
    if check.mode == "rel":
        return PASS if diff <= check.tol * max(Fraction(1), abs(rhs)) else FAIL
    raise ValueError(f"unknown check mode {check.mode!r}")


# ---------------------------------------------------------------------------
# case generators and evaluators
# ---------------------------------------------------------------------------


def _ns(limit: int, start: int = 0) -> list[dict]:
    return [{"n": n} for n in range(start, limit + 1)]


def _cases_eq1(b: Bounds) -> list[dict]:
    return [{"n": n, "terms": b.terms} for n in range(b.n_max + 1)]


def _eval_eq1(p: dict) -> Check:
    partial = fp.geometric_moment_partial_sum(p["n"], Fraction(1, 2), p["terms"])
    return Check("rel", partial, 2 * fp.fubini_number(p["n"]), SERIES_TOL)


def _eval_eq3(p: dict) -> Check:
    n = p["n"]
    return Check("eq", fp.fubini_two_var(n).substitute_x(0), fp.fubini_poly(n))


_X = Poly.variable()
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
    lhs = sum(cb.binomial(n, k) * fp.fubini_number(k) for k in range(n + 1))
    return Check("eq", lhs, 2 * fp.fubini_number(n))


def _eval_eq6(p: dict) -> Check:
    n = p["n"]
    lhs = 2 * sum(
        cb.binomial(n, k) * (-1) ** k * fp.fubini_number(k) for k in range(n + 1)
    )
    return Check("eq", lhs, (-1) ** n * fp.fubini_number(n) + 1)


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
    lhs = 2 * sum(
        cb.binomial(n, k) * fp.fubini_number(k) * fp.fubini_number(n - k)
        for k in range(n + 1)
    )
    return Check("eq", lhs, fp.fubini_number(n + 1) + fp.fubini_number(n))


def _eval_eq13(p: dict) -> Check:
    n = p["n"]
    conv = Poly.zero()
    for k in range(n + 1):
        conv = conv + cb.binomial(n, k) * (fp.fubini_poly(k) * fp.fubini_poly(n - k))
    lhs = Poly([1, 1]) * conv
    rhs = fp.fubini_poly(n + 1) + fp.fubini_poly(n)
    return Check("eq", lhs, rhs)


_XY_TRIPLES = (
    (Fraction(1), Fraction(-1, 2), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(-2), Fraction(3, 7)),
    (Fraction(-1), Fraction(3), Fraction(1, 2)),
    (Fraction(1, 7), Fraction(2, 5), Fraction(-2, 3)),
)


def _cases_eq13_general(b: Bounds) -> list[dict]:
    return [
        {"n": n, "x1": x1, "x2": x2, "y": y}
        for n in range(b.n_max + 1)
        for x1, x2, y in _XY_TRIPLES
    ]


def _eval_eq13_general(p: dict) -> Check:
    n, x1, x2, y = p["n"], p["x1"], p["x2"], p["y"]
    lhs = y * sum(
        cb.binomial(n, k)
        * fp.fubini_two_var_eval(k, x1, y)
        * fp.fubini_two_var_eval(n - k, x2, y)
        for k in range(n + 1)
    )
    s = x1 + x2 - 1
    rhs = fp.fubini_two_var_eval(n + 1, s, y) - s * fp.fubini_two_var_eval(n, s, y)
    return Check("eq", lhs, rhs)


def _cases_eq14(b: Bounds) -> list[dict]:
    cases = [{"n": n} for n in range(b.n_max + 1)]
    cases += [{"n": n, "blocks": 1} for n in range(b.aux_max + 1)]
    return cases


def _eval_eq14(p: dict) -> Check:
    n = p["n"]
    if n > fp.BRUTEFORCE_CAP:
        return Check.skip()
    if "blocks" in p:
        counts = Poly(fp.ordered_partition_block_counts(n))
        return Check("eq", fp.fubini_poly(n), counts)
    return Check("eq", fp.fubini_number(n), fp.fubini_number_bruteforce(n))


def _cases_eq15(b: Bounds) -> list[dict]:
    cases = [{"n": 2 * k} for k in range(1, b.n_max // 2 + 1)]
    cases += [{"n": n, "neg2": 1} for n in range(1, b.n_max + 1)]
    return cases


def _eval_eq15(p: dict) -> Check:
    n = p["n"]
    if "neg2" in p:
        lhs = fp.fubini_poly(n)(-2)
        return Check("eq", lhs, Fraction((-1) ** n * 2 * fp.fubini_number(n)))
    return Check("eq", fp.fubini_poly(n)(Fraction(-1, 2)), Fraction(0))


def _eval_eq17(p: dict) -> Check:
    n = p["n"]
    lhs = sum(
        cb.binomial(n, k) * (-1) ** k * fp.fubini_number(k) * fp.fubini_number(n - k)
        for k in range(n + 1)
    )
    rhs = Fraction(0) if n % 2 == 1 else Fraction(4, 3) * fp.fubini_number(n)
    return Check("eq", Fraction(lhs), rhs)


def _eval_eq18(p: dict) -> Check:
    n = p["n"]
    two_var = fp.fubini_two_var(n)
    lhs = two_var.substitute(Poly.variable(), Poly([-1, 1]))
    rhs = (-1) ** n * two_var.substitute(Poly([1, -1]), Poly([0, -1]))
    return Check("eq", lhs, rhs)


def _cases_grid_n(start: int):
    def cases(b: Bounds) -> list[dict]:
        return [
            {"n": n, "y": y} for n in range(start, b.n_max + 1) for y in _grid(b)
        ]

    return cases


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


_XY_QUADS = (
    (Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(1, 5), Fraction(-1), Fraction(3, 2)),
    (Fraction(-2), Fraction(1, 2), Fraction(3, 7), Fraction(-5, 2)),
)


def _cases_eq23(b: Bounds) -> list[dict]:
    grid = _grid(b)
    pairs = [(grid[i], grid[i + 1]) for i in range(0, len(grid) - 1, 2)]
    cases = [
        {"n": n, "y1": y1, "y2": y2}
        for n in range(b.n_max + 1)
        for y1, y2 in pairs
    ]
    cases += [
        {"n": n, "x1": x1, "x2": x2, "y1": y1, "y2": y2}
        for n in range(b.n_max + 1)
        for x1, x2, y1, y2 in _XY_QUADS
    ]
    return cases


def _eval_eq23(p: dict) -> Check:
    n, y1, y2 = p["n"], p["y1"], p["y2"]
    if y1 == y2:
        return Check.skip()
    if "x1" in p:
        x1, x2 = p["x1"], p["x2"]
        lhs = sum(
            cb.binomial(n, k)
            * fp.fubini_two_var_eval(k, x1, y1)
            * fp.fubini_two_var_eval(n - k, x2, y2)
            for k in range(n + 1)
        )
        s = x1 + x2
        rhs = (
            y2 * fp.fubini_two_var_eval(n, s, y2) - y1 * fp.fubini_two_var_eval(n, s, y1)
        ) / (y2 - y1)
        return Check("eq", lhs, rhs)
    f_n = fp.fubini_poly(n)
    lhs = sum(
        cb.binomial(n, k) * fp.fubini_poly(k)(y1) * fp.fubini_poly(n - k)(y2)
        for k in range(n + 1)
    )
    rhs = (y2 * f_n(y2) - y1 * f_n(y1)) / (y2 - y1)
    return Check("eq", lhs, rhs)


def _cases_eq24(b: Bounds) -> list[dict]:
    cases = _cases_grid_n(0)(b)
    cases.append({"n": 1, "y": Fraction(1), "printed": 1})
    return cases


def _eval_eq24(p: dict) -> Check:
    n, y = p["n"], p["y"]
    poly = fp.fubini_poly(n)
    if "printed" in p:
        # Uncorrected variant: F_n(y) = 2^(n+1)(1+y) F_n(y^2/(1+2y)) - (1+2y) F_n(-y).
        # It fails at the witness point, which is exactly what this case asserts.
        claimed = 2 ** (n + 1) * (1 + y) * poly(y**2 / (1 + 2 * y)) - (1 + 2 * y) * poly(-y)
        return Check("ne", claimed, poly(y))
    if y == Fraction(-1, 2) or y == -1:
        return Check.skip()
    lhs = 2 ** (n + 1) * (1 + y) * poly(y**2 / (1 + 2 * y))
    rhs = (1 + 2 * y) * poly(y) + poly(-y / (1 + 2 * y))
    return Check("eq", lhs, rhs)


def _cases_km(b: Bounds) -> list[dict]:
    return [
        {"k": k, "n": n} for k in range(b.k_max + 1) for n in range(1, b.n_max + 1)
    ]


def _eval_eq25(p: dict) -> Check:
    exact, formula = bn.fubini_moment_integral(p["k"], p["n"])
    return Check("eq", exact, formula)


def _eval_eq26(p: dict) -> Check:
    return Check("eq", bn.bernoulli_via_integral(p["n"]), bn.bernoulli(p["n"]))


def _cases_eq28(b: Bounds) -> list[dict]:
    return [
        {"p": q, "n": n} for q in range(b.p_max + 1) for n in range(2, b.n_max + 1)
    ]


def _eval_eq28(p: dict) -> Check:
    exact, parity = bn.fubini_moment_parity(p["p"], p["n"])
    return Check("eq", exact, parity)


def _cases_eq30(b: Bounds) -> list[dict]:
    cases = [
        {"m": m, "n": n} for m in range(b.m_max + 1) for n in range(1, b.n_max + 1)
    ]
    cases += [
        {"m": m, "n": n, "sym": 1}
        for m in range(1, b.m_max + 1)
        for n in range(1, b.n_max + 1)
    ]
    return cases


def _bernoulli_binomial_sum(m: int, n: int) -> Fraction:
    return (-1) ** m * sum(
        (cb.binomial(m, j) * bn.bernoulli(n + j) for j in range(m + 1)), Fraction(0)
    )


def _eval_eq30(p: dict) -> Check:
    m, n = p["m"], p["n"]
    if "sym" in p:
        return Check("eq", _bernoulli_binomial_sum(m, n), _bernoulli_binomial_sum(n, m))
    exact, formula = bn.fubini_product_integral(m, n)
    return Check("eq", exact, formula)


def _eval_eq32(p: dict) -> Check:
    return Check("eq", bn.bernoulli(p["n"]), bn.bernoulli_recurrence(p["n"]))


def _cases_eq33(b: Bounds) -> list[dict]:
    return [{"m": m, "j": j} for m in range(b.m_max + 1) for j in range(m + 1)]


def _eval_eq33(p: dict) -> Check:
    m, j = p["m"], p["j"]
    lhs = cb.alternating_stirling_convolution(m, j)
    return Check("eq", lhs, (-1) ** m * cb.binomial(m, j))


def _cases_eq84(b: Bounds) -> list[dict]:
    cases = _cases_grid_n(0)(b)
    cases += [{"n": n} for n in range(b.aux_max + 1)]
    return cases


def _eval_eq84(p: dict) -> Check:
    n = p["n"]
    if "y" not in p:
        lhs, rhs = fp.fubini_split_collapse(n)
        return Check("eq", lhs, rhs)
    y = p["y"]
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


def _cases_double_sum(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m} for n in range(1, b.n_max + 1) for m in range(b.m_max + 1)
    ]


def _eval_double_sum(p: dict) -> Check:
    lhs, rhs = bn.double_sum_identity(p["n"], p["m"])
    return Check("eq", lhs, rhs)


def _cases_pb_relation(b: Bounds) -> list[dict]:
    cases = [{"n": n} for n in range(b.n_max + 1)]
    cases += [
        {"n": n, "p": q} for n in range(1, b.n_max + 1) for q in range(b.p_max + 1)
    ]
    return cases


def _eval_pb_relation(p: dict) -> Check:
    n = p["n"]
    if "p" in p:
        lhs, rhs = bn.p_bernoulli_shift_relation(n, p["p"])
        return Check("eq", lhs, rhs)
    return Check("eq", bn.p_bernoulli(n, 0), bn.bernoulli(n))


def _cases_pb_explicit(b: Bounds) -> list[dict]:
    return [
        {"n": n, "p": q}
        for n in range(1, b.n_max + 1)
        for q in range(1, b.p_max + 1)
    ]


def _printed_pb_odd(n: int, p: int) -> Fraction:
    # Uncorrected variant: upper Stirling index 2n-1 and sign (-1)^(k+1).
    acc = sum(
        (
            Fraction(
                cb.stirling2(2 * n - 1, k + 1) * (-1) ** (k + 1) * cb.factorial(k + 1),
                k + p + 1,
            )
            for k in range(2 * n)
        ),
        Fraction(0),
    )
    return Fraction(p + 1, p) * acc


def _printed_pb_even(n: int, p: int) -> Fraction:
    # Uncorrected variant: sign (-1)^k instead of (-1)^(k+1).
    acc = sum(
        (
            Fraction(
                cb.stirling2(2 * n + 1, k + 1) * (-1) ** k * cb.factorial(k + 1),
                k + p + 1,
            )
            for k in range(2 * n + 1)
        ),
        Fraction(0),
    )
    return Fraction(p + 1, p) * acc


def _cases_pb_odd(b: Bounds) -> list[dict]:
    cases = _cases_pb_explicit(b)
    cases.append({"n": 1, "p": 1, "printed": 1})
    return cases


def _eval_pb_odd(p: dict) -> Check:
    n, q = p["n"], p["p"]
    if "printed" in p:
        return Check("ne", _printed_pb_odd(n, q), bn.p_bernoulli(2 * n - 1, q))
    return Check("eq", bn.p_bernoulli_odd_explicit(n, q), bn.p_bernoulli(2 * n - 1, q))


def _cases_pb_even(b: Bounds) -> list[dict]:
    cases = _cases_pb_explicit(b)
    cases.append({"n": 1, "p": 2, "printed": 1})
    return cases


def _eval_pb_even(p: dict) -> Check:
    n, q = p["n"], p["p"]
    if "printed" in p:
        return Check("ne", _printed_pb_even(n, q), bn.p_bernoulli(2 * n, q))
    return Check("eq", bn.p_bernoulli_even_explicit(n, q), bn.p_bernoulli(2 * n, q))


def _eval_ab_routes(p: dict) -> Check:
    n = p["n"]
    return Check("eq", ap.apostol_via_fubini(n), ap.apostol_bernoulli(n))


def _cases_ab_guoqi(b: Bounds) -> list[dict]:
    cases = [{"n": n} for n in range(2, b.n_max + 1)]
    cases.append({"n": 1, "printed": 1})
    return cases


def _eval_ab_guoqi(p: dict) -> Check:
    n = p["n"]
    if "printed" in p:
        # The alternating power sum read literally at its lowest index
        # produces lam/(lam-1); the true index-1 function is 1/(lam-1).
        printed = RatFunc(Poly([0, 1]), Poly([-1, 1]))
        return Check("ne", printed, ap.apostol_bernoulli(1))
    return Check("eq", ap.apostol_alternating_form(n - 1), ap.apostol_bernoulli(n))


def _cases_lam_grid(b: Bounds) -> list[dict]:
    return [
        {"n": n, "lam": lam} for n in range(b.n_max + 1) for lam in _grid(b)
    ]


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


def _eval_ab_moment(p: dict) -> Check:
    exact, formula = ap.apostol_moment_integral(p["k"], p["n"])
    return Check("eq", exact, formula)


def _cases_ab_product(b: Bounds) -> list[dict]:
    cases = [
        {"m": m, "n": n} for m in range(b.m_max + 1) for n in range(1, b.n_max + 1)
    ]
    cases.append({"m": 1, "n": 1, "printed": 1})
    return cases


def _eval_ab_product(p: dict) -> Check:
    m, n = p["m"], p["n"]
    if "printed" in p:
        # Uncorrected variant pairs indices m and n with the prefactor
        # (m+1)(n+1); the true integral of the index-m and index-n
        # functions is the (m-1, n-1) exact reduction.
        printed = (
            (-1) ** m
            * (m + 1)
            * (n + 1)
            * sum(
                (cb.binomial(m, j) * bn.bernoulli(n + j) for j in range(m + 1)),
                Fraction(0),
            )
        )
        return Check("ne", printed, ap.apostol_product_integral_exact(m - 1, n - 1))
    exact, formula = ap.apostol_product_integral(m, n)
    return Check("eq", exact, formula)


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


def _cases_quadrature(b: Bounds) -> list[dict]:
    return [{"spot": i} for i in range(len(_QUAD_SPOTS))]


def _eval_quadrature(p: dict) -> Check:
    integrand, exact = _QUAD_SPOTS[p["spot"]]()
    approx = ap.improper_quadrature_oracle(integrand, QUADRATURE_TOL / 2)
    return Check("abs", exact, approx, QUADRATURE_TOL)


def _cases_stirling_inverse(b: Bounds) -> list[dict]:
    return [
        {"n": n, "m": m} for n in range(b.n_max + 1) for m in range(b.m_max + 1)
    ]


def _eval_stirling_inverse(p: dict) -> Check:
    n, m = p["n"], p["m"]
    return Check("eq", cb.stirling_inverse_sum(n, m), int(n == m))


def _cases_stirling_cross(b: Bounds) -> list[dict]:
    cases = [
        {"i": i, "j": j} for i in range(b.n_max + 1) for j in range(b.m_max + 1)
    ]
    cases.append({"i": 2, "j": 0, "printed": 1})
    return cases


def _eval_stirling_cross(p: dict) -> Check:
    i, j = p["i"], p["j"]
    if "printed" in p:
        # Transposed variant: sum_k S2(i,k) C(k,j); at (2,0) it produces a
        # Bell number instead of S2(3,1).
        transposed = sum(cb.stirling2(i, k) * cb.binomial(k, j) for k in range(i + 1))
        return Check("ne", transposed, cb.stirling2(i + 1, j + 1))
    lhs, rhs = cb.stirling_binomial_convolution(i, j)
    return Check("eq", lhs, rhs)


# ---------------------------------------------------------------------------
# the registry itself
# ---------------------------------------------------------------------------


def _entry(
    identity_id: str,
    statement: str,
    cases: Callable[[Bounds], list[dict]],
    evaluate: Callable[[dict], Check],
    quick: Bounds,
    full: Bounds,
    corrected: bool = False,
) -> RegistryEntry:
    return RegistryEntry(identity_id, statement, corrected, quick, full, cases, evaluate)


_ENTRY_LIST: list[RegistryEntry] = [
    _entry(
        "eq1_series",
        "sum_{k=0..N} k^n / 2^k -> 2 F_n as N grows (checked at relative error 1e-12)",
        _cases_eq1,
        _eval_eq1,
        quick=Bounds(n_max=5, terms=70),
        full=Bounds(n_max=10, terms=80),
    ),
    _entry(
        "eq3_two_var",
        "F_n(0;y) = F_n(y): the two-variable family restricts to the one-variable one",
        lambda b: _ns(b.n_max),
        _eval_eq3,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
    ),
    _entry(
        "eq4_shift",
        "y F_n(x+1;y) = (1+y) F_n(x;y) - x^n",
        lambda b: _ns(b.n_max),
        _eval_eq4,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
    ),
    _entry(
        "eq5_binomial",
        "sum_k C(n,k) F_k = 2 F_n  (n >= 1)",
        lambda b: _ns(b.n_max, start=1),
        _eval_eq5,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
    ),
    _entry(
        "eq6_alt_binomial",
        "2 sum_k C(n,k) (-1)^k F_k = (-1)^n F_n + 1",
        lambda b: _ns(b.n_max),
        _eval_eq6,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
    ),
    _entry(
        "eq7_x1",
        "y F_n(1;y) = (1+y) F_n(y)  (n >= 1)",
        lambda b: _ns(b.n_max, start=1),
        _eval_eq7,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
    ),
    _entry(
        "eq9_xneg1",
        "(1+y) F_n(-1;y) = y F_n(y) + (-1)^n",
        lambda b: _ns(b.n_max),
        _eval_eq9,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
    ),
    _entry(
        "eq11_recurrence",
        "F_{n+1}(y) = y d/dy[(1+y) F_n(y)] rebuilds the Stirling-sum construction",
        lambda b: _ns(b.n_max),
        _eval_eq11,
        quick=Bounds(n_max=15),
        full=Bounds(n_max=40),
    ),
    _entry(
        "eq12_products_numbers",
        "2 sum_k C(n,k) F_k F_{n-k} = F_{n+1} + F_n",
        lambda b: _ns(b.n_max),
        _eval_eq12,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
    ),
    _entry(
        "eq13_products_poly",
        "(y+1) sum_k C(n,k) F_k(y) F_{n-k}(y) = F_{n+1}(y) + F_n(y)",
        lambda b: _ns(b.n_max),
        _eval_eq13,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
    ),
    _entry(
        "eq13_general_xy",
        "y sum_k C(n,k) F_k(x1;y) F_{n-k}(x2;y) = F_{n+1}(s;y) - s F_n(s;y), s = x1+x2-1",
        _cases_eq13_general,
        _eval_eq13_general,
        quick=Bounds(n_max=5),
        full=Bounds(n_max=15),
    ),
    _entry(
        "eq14_enumeration",
        "F_n and the coefficients of F_n(y) count ordered set partitions (by block count)",
        _cases_eq14,
        _eval_eq14,
        quick=Bounds(n_max=7, aux_max=6),
        full=Bounds(n_max=10, aux_max=8),
    ),
    _entry(
        "eq15_special_values",
        "F_{2k}(-1/2) = 0 (k >= 1) and F_n(-2) = (-1)^n 2 F_n (n >= 1)",
        _cases_eq15,
        _eval_eq15,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
    ),
    _entry(
        "eq17_alt_products",
        "sum_k C(n,k) (-1)^k F_k F_{n-k} = 0 for odd n, (4/3) F_n for even n >= 2",
        lambda b: _ns(b.n_max, start=1),
        _eval_eq17,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=15),
    ),
    _entry(
        "eq18_two_var_reflection",
        "F_n(x; y-1) = (-1)^n F_n(1-x; -y)",
        lambda b: _ns(b.n_max),
        _eval_eq18,
        quick=Bounds(n_max=6),
        full=Bounds(n_max=15),
    ),
    _entry(
        "eq19_reflection",
        "F_n(y) = (-1)^n (y/(y+1)) F_n(-y-1)  (n >= 1; y not in {-1, 0})",
        _cases_grid_n(1),
        _eval_eq19,
        quick=Bounds(n_max=6, samples=10),
        full=Bounds(n_max=15, samples=25),
    ),
    _entry(
        "eq21_explicit",
        "F_n(y) = y sum_{k=1..n} S2(n,k) (-1)^(n+k) k! (y+1)^(k-1)  (n >= 1)",
        lambda b: _ns(b.n_max, start=1),
        _eval_eq21,
        quick=Bounds(n_max=10),
        full=Bounds(n_max=25),
    ),
    _entry(
        "eq23_two_y",
        "sum_k C(n,k) F_k(y1) F_{n-k}(y2) = [y2 F_n(y2) - y1 F_n(y1)]/(y2-y1), "
        "including the two-variable form at x1, x2",
        _cases_eq23,
        _eval_eq23,
        quick=Bounds(n_max=6, samples=10),
        full=Bounds(n_max=15, samples=25),
    ),
    _entry(
        "eq24_corrected_split",
        "2^(n+1) (1+y) F_n(y^2/(1+2y)) = (1+2y) F_n(y) + F_n(-y/(1+2y))  "
        "(corrected form; y not in {-1/2, -1})",
        _cases_eq24,
        _eval_eq24,
        quick=Bounds(n_max=6, samples=10),
        full=Bounds(n_max=15, samples=25),
        corrected=True,
    ),
    _entry(
        "eq25_moment",
        "int_{-1}^{0} y^k F_n(y) dy = ((-1)^k / k!) sum_j S1u(k+1,j+1) B_{n+j}  (n >= 1)",
        _cases_km,
        _eval_eq25,
        quick=Bounds(k_max=4, n_max=8),
        full=Bounds(k_max=10, n_max=20),
    ),
    _entry(
        "eq26_integral",
        "int_{-1}^{0} F_n(y) dy = B_n  (n >= 1)",
        lambda b: _ns(b.n_max, start=1),
        _eval_eq26,
        quick=Bounds(n_max=10),
        full=Bounds(n_max=30),
    ),
    _entry(
        "eq28_parity",
        "int_{-1}^{0} y^p F_n(y) dy = -/+ ((p+1)/(p+2)) B_{n-1,p+1}, "
        "sign fixed by the parities of n and p  (n >= 2)",
        _cases_eq28,
        _eval_eq28,
        quick=Bounds(p_max=4, n_max=8),
        full=Bounds(p_max=8, n_max=15),
    ),
    _entry(
        "eq30_product_integral",
        "int_{-1}^{0} F_m F_n dy = (-1)^m sum_j C(m,j) B_{n+j}  (n >= 1), "
        "and the sum is symmetric under m <-> n",
        _cases_eq30,
        _eval_eq30,
        quick=Bounds(m_max=6, n_max=6),
        full=Bounds(m_max=12, n_max=12),
    ),
    _entry(
        "eq32_bernoulli",
        "B_n = sum_k S2(n,k) (-1)^k k!/(k+1) agrees with the binomial recurrence",
        lambda b: _ns(b.n_max),
        _eval_eq32,
        quick=Bounds(n_max=12),
        full=Bounds(n_max=30),
    ),
    _entry(
        "eq33_lemma2",
        "sum_{k=j..m} S2(m,k) S1u(k+1,j+1) (-1)^k = (-1)^m C(m,j)",
        _cases_eq33,
        _eval_eq33,
        quick=Bounds(m_max=12),
        full=Bounds(m_max=40),
    ),
    _entry(
        "eq84_split",
        "F_n(y) = sum_k S2(n,k) k! y^k [2^(n+1)(y+1) y^k + (-1)^(k+1)]/(2y+1)^(k+1)  "
        "(y != -1/2; cases without y clear (2y+1)^(n+1) and compare polynomials)",
        _cases_eq84,
        _eval_eq84,
        quick=Bounds(n_max=6, samples=10, aux_max=5),
        full=Bounds(n_max=15, samples=25, aux_max=10),
    ),
    _entry(
        "eq85_number_split",
        "F_n = sum_k S2(n,k) k! [2^(n+2) + (-1)^(k+1)] / 3^(k+1)",
        lambda b: _ns(b.n_max),
        _eval_eq85,
        quick=Bounds(n_max=10),
        full=Bounds(n_max=20),
    ),
    _entry(
        "eq86_number_split_neg2",
        "F_n = sum_k (-1)^(n-k) S2(n,k) k! 2^(k-1) [2^(n+k+1) + 1] / 3^(k+1)  (n >= 1)",
        lambda b: _ns(b.n_max, start=1),
        _eval_eq86,
        quick=Bounds(n_max=10),
        full=Bounds(n_max=20),
    ),
    _entry(
        "double_sum",
        "sum_{k,j} S2(n,k) S2(m,j) (-1)^(k+j) k! j! / (k+j+1) = "
        "(-1)^m sum_j C(m,j) B_{n+j}  (n >= 1)",
        _cases_double_sum,
        _eval_double_sum,
        quick=Bounds(n_max=6, m_max=6),
        full=Bounds(n_max=12, m_max=12),
    ),
    _entry(
        "pb_relation",
        "B_{n,0} = B_n, and sum_j (-1)^(j+1) S1u(p+1,j+1) B_{n+j} = "
        "((p+1)!/(p+2)) B_{n-1,p+1}  (n >= 1)",
        _cases_pb_relation,
        _eval_pb_relation,
        quick=Bounds(n_max=10, p_max=5),
        full=Bounds(n_max=20, p_max=8),
    ),
    _entry(
        "pb_odd_explicit",
        "B_{2n-1,p} = ((p+1)/p) sum_k S2(2n,k+1) (-1)^k (k+1)!/(k+p+1)  "
        "(corrected form; n >= 1, p >= 1)",
        _cases_pb_odd,
        _eval_pb_odd,
        quick=Bounds(n_max=4, p_max=5),
        full=Bounds(n_max=10, p_max=10),
        corrected=True,
    ),
    _entry(
        "pb_even_explicit",
        "B_{2n,p} = ((p+1)/p) sum_k S2(2n+1,k+1) (-1)^(k+1) (k+1)!/(k+p+1)  "
        "(corrected form; n >= 1, p >= 1)",
        _cases_pb_even,
        _eval_pb_even,
        quick=Bounds(n_max=4, p_max=5),
        full=Bounds(n_max=10, p_max=10),
        corrected=True,
    ),
    _entry(
        "ab_routes",
        "AB_n(lam) = (n/(lam-1)) F_{n-1}(lam/(1-lam)) matches the direct "
        "Stirling-sum construction, as canonical rational functions  (n >= 1)",
        lambda b: _ns(b.n_max, start=1),
        _eval_ab_routes,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
    ),
    _entry(
        "ab_guoqi",
        "AB_{n+1}(lam)/(n+1) = (-1)^n lam sum_k S2(n,k) k! (1/(lam-1))^(k+1)  "
        "(restricted to n >= 1; the n = 0 instance is a known erratum)",
        _cases_ab_guoqi,
        _eval_ab_guoqi,
        quick=Bounds(n_max=8),
        full=Bounds(n_max=20),
        corrected=True,
    ),
    _entry(
        "ab_split",
        "AB_{n+1}(lam)/(n+1) = sum_k S2(n,k) k! (-lam)^k "
        "[2^(n+1) lam^k + (lam-1)^(k+1)] / (lam^2-1)^(k+1)  (lam != +/-1)",
        _cases_lam_grid,
        _eval_ab_split,
        quick=Bounds(n_max=5, samples=10),
        full=Bounds(n_max=12, samples=25),
    ),
    _entry(
        "ab_sum_products",
        "sum_k C(n,k) AB_{k+1} AB_{n-k+1} / ((k+1)(n-k+1)) = "
        "-[AB_{n+2}/(n+2) + AB_{n+1}/(n+1)]  (lam != 1)",
        _cases_lam_grid,
        _eval_ab_sum_products,
        quick=Bounds(n_max=5, samples=10),
        full=Bounds(n_max=10, samples=25),
    ),
    _entry(
        "ab_moment_integral",
        "int_{-inf}^{0} lam^k/(lam-1)^(k+1) AB_{n+1}(lam) dlam = "
        "((n+1)/k!) sum_j S1u(k+1,j+1) B_{n+j}  (n >= 1)",
        _cases_km,
        _eval_ab_moment,
        quick=Bounds(k_max=3, n_max=4),
        full=Bounds(k_max=6, n_max=8),
    ),
    _entry(
        "ab_product_integral",
        "int_{-inf}^{0} AB_{m+1} AB_{n+1} dlam = (-1)^m (m+1)(n+1) "
        "sum_j C(m,j) B_{n+j}  (corrected indices; m >= 0, n >= 1)",
        _cases_ab_product,
        _eval_ab_product,
        quick=Bounds(m_max=4, n_max=4),
        full=Bounds(m_max=8, n_max=8),
        corrected=True,
    ),
    _entry(
        "ab_quadrature_oracle",
        "adaptive quadrature over the compactified half-line reproduces the "
        "exact improper integrals within 1e-9",
        _cases_quadrature,
        _eval_quadrature,
        quick=Bounds(),
        full=Bounds(),
    ),
    _entry(
        "stirling_inverse",
        "sum_k s1(n,k) S2(k,m) = [n = m], with s1(n,k) = (-1)^(n+k) S1u(n,k)",
        _cases_stirling_inverse,
        _eval_stirling_inverse,
        quick=Bounds(n_max=12, m_max=12),
        full=Bounds(n_max=40, m_max=40),
    ),
    _entry(
        "stirling_cross",
        "sum_k C(i,k) S2(k,j) = S2(i+1,j+1)  (corrected order; the transposed "
        "variant fails at i=2, j=0)",
        _cases_stirling_cross,
        _eval_stirling_cross,
        quick=Bounds(n_max=8, m_max=8),
        full=Bounds(n_max=20, m_max=20),
        corrected=True,
    ),
]

REGISTRY: dict[str, RegistryEntry] = {e.identity_id: e for e in _ENTRY_LIST}

PROFILES = ("quick", "full")


def list_identities() -> list[RegistryEntry]:
    """All registry entries, sorted by identity id."""
    return sorted(REGISTRY.values(), key=lambda e: e.identity_id)


def _apply_overrides(bounds: Bounds, overrides: Optional[dict]) -> Bounds:
    if not overrides:
        return bounds
    valid = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(valid) - {f.name for f in dataclasses.fields(Bounds)}
    if unknown:
        raise ValueError(f"unknown bound overrides: {sorted(unknown)}")
    samples = valid.get("samples", bounds.samples)
    if not 1 <= samples <= len(SAMPLE_GRID):
        raise ValueError(
            f"samples must be between 1 and {len(SAMPLE_GRID)}, got {samples}"
        )
    return dataclasses.replace(bounds, **valid)


def verify(
    identity_id: str,
    profile: str = "full",
    overrides: Optional[dict] = None,
) -> list[IdentityReport]:
    """Run one identity over its parameter grid; reports in sorted order.

    Raises ValueError when the bounds select no case, so that a run can
    never pass without checking anything.
    """
    if identity_id not in REGISTRY:
        raise KeyError(identity_id)
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    entry = REGISTRY[identity_id]
    bounds = _apply_overrides(
        entry.quick if profile == "quick" else entry.full, overrides
    )
    cases = entry.cases(bounds)
    if not cases:
        raise ValueError(f"the bounds select no case of {identity_id}")
    reports = []
    for params in sorted(cases, key=_case_sort_key):
        start = time.perf_counter_ns()
        check = entry.evaluate(params)
        status = _run_check(check)
        elapsed_us = (time.perf_counter_ns() - start) // 1000
        reports.append(
            IdentityReport(
                identity=identity_id,
                params=params,
                status=status,
                lhs=serialize_value(check.lhs),
                rhs=serialize_value(check.rhs),
                elapsed_us=elapsed_us,
            )
        )
    return reports


@dataclass(frozen=True)
class VerificationRun:
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

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile,
            "identities": len({r.identity for r in self.reports}),
            "total": len(self.reports),
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "reports": [r.to_json_dict() for r in self.reports],
        }


def verify_all(profile: str, overrides: Optional[dict] = None) -> VerificationRun:
    """Run every registry entry on its default grid for the given profile."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    reports: list[IdentityReport] = []
    for entry in list_identities():
        reports.extend(verify(entry.identity_id, profile=profile, overrides=overrides))
    return VerificationRun(profile=profile, reports=tuple(reports))
