"""Output checks, computed by routes independent of the package.

Nothing here imports fubini.  Each check returns a list of problems; an
empty list means the output is correct.

* Ordered-partition numbers a(n, k) = k! S2(n, k) come from the k-th forward
  difference of j**n at j = 0, not from the Stirling recurrence the package
  uses.
* Stirling numbers S2(n, k) use the explicit alternating sum.
* Bernoulli numbers are checked against invariants: zero odd values from
  B_3 on, the denominator von Staudt-Clausen predicts, the sign, and the
  magnitude 2 n! zeta(n) / (2 pi)^n.
* F_n(y) is the direct sum of a(n, k) y^k; F_n(x; y), Apostol-Bernoulli
  values, p-Bernoulli numbers and moment integrals are rebuilt from it.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def ordered_row(n: int) -> tuple[int, ...]:
    """a(n, k) = k! S2(n, k) for k = 0..n, by forward differences of j**n."""
    seq = [j**n for j in range(n + 1)]
    row = []
    for _ in range(n + 1):
        row.append(seq[0])
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return tuple(row)


def stirling2_explicit(n: int, k: int) -> int:
    total = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
    value, rem = divmod(total, math.factorial(k))
    if rem:
        raise ArithmeticError("explicit Stirling sum not divisible by k!")
    return value


@lru_cache(maxsize=None)
def fubini_value(n: int, y: Fraction) -> Fraction:
    """F_n(y) = sum_k a(n, k) y^k, summed term by term."""
    return sum((a * y**k for k, a in enumerate(ordered_row(n))), Fraction(0))


def two_var_value(n: int, x: Fraction, y: Fraction) -> Fraction:
    return sum(
        (math.comb(n, k) * x ** (n - k) * fubini_value(k, y) for k in range(n + 1)),
        Fraction(0),
    )


def apostol_value(n: int, lam: Fraction) -> Fraction:
    """The defining Stirling sum of the index-n Apostol-Bernoulli function at lam != 1."""
    if n == 0:
        return Fraction(0)
    arg = lam / (1 - lam)
    return n / (lam - 1) * sum(
        (a * arg**k for k, a in enumerate(ordered_row(n - 1))), Fraction(0)
    )


def p_bernoulli_value(n: int, p: int) -> Fraction:
    """B_{n,p} = (-1)^(n+1) ((p+1)/p) sum_k (-1)^k a(n+1, k+1) / (k+p+1), n, p >= 1."""
    if n < 1 or p < 1:
        raise ValueError("the explicit route needs n >= 1 and p >= 1")
    row = ordered_row(n + 1)
    acc = sum((Fraction((-1) ** k * row[k + 1], k + p + 1) for k in range(n + 1)), Fraction(0))
    return (-1) ** (n + 1) * Fraction(p + 1, p) * acc


def moment_value(k: int, n: int) -> Fraction:
    """Integral of y^k F_n(y) over [-1, 0], term by term."""
    return sum(
        (Fraction((-1) ** (j + k) * a, j + k + 1) for j, a in enumerate(ordered_row(n))),
        Fraction(0),
    )


def _primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def bernoulli_problems(n: int, value: Fraction) -> list[str]:
    """Invariants of B_n (convention B_1 = -1/2)."""
    if n == 0:
        return [] if value == 1 else [f"B_0 = {value}"]
    if n == 1:
        return [] if value == Fraction(-1, 2) else [f"B_1 = {value}"]
    if n % 2:
        return [] if value == 0 else [f"odd B_{n} = {value} is not 0"]
    problems = []
    denominator = math.prod(p for p in _primes_upto(n + 1) if n % (p - 1) == 0)
    if value.denominator != denominator:
        problems.append(f"B_{n} denominator {value.denominator}, von Staudt-Clausen gives {denominator}")
    if (value > 0) != (n % 4 == 2):
        problems.append(f"B_{n} has the wrong sign")
    if n >= 10:  # 63 terms give zeta(n) to double precision from here on
        zeta = math.fsum(k ** (-n) for k in range(1, 64))
        expected = math.log(2 * zeta) + math.lgamma(n + 1) - n * math.log(2 * math.pi)
        got = math.log(abs(value.numerator)) - math.log(value.denominator) if value else -math.inf
        if not abs(got - expected) <= 1e-9 * max(1.0, abs(expected)):
            problems.append(f"|B_{n}| does not match 2 n! zeta(n) / (2 pi)^n")
    return problems


# ---------------------------------------------------------------------------
# compute_cold: one `fubini compute ... --format json` result


def _rationals(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def compute_problems(obj: str, params: dict, rc, out: str) -> list[str]:
    """Check the output of `fubini compute <obj> --format json` for params."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    if payload.get("object") != obj or payload.get("params") != params:
        return [f"object/params echo {payload.get('object')!r} {payload.get('params')!r}"]
    value = payload.get("value")
    n = params["n"]
    try:
        if obj == "stirling2":
            ok = Fraction(value) == stirling2_explicit(n, params["k"])
            return [] if ok else [f"S2({n},{params['k']}) differs from the explicit sum"]
        if obj == "bernoulli":
            return bernoulli_problems(n, Fraction(value))
        if obj == "p-bernoulli":
            ok = Fraction(value) == p_bernoulli_value(n, params["p"])
            return [] if ok else [f"B_({n},{params['p']}) differs from the explicit sum"]
        if obj == "fubini-poly":
            ok = _rationals(value) == list(ordered_row(n))
            return [] if ok else [f"F_{n} coefficients differ from k! S2({n},k)"]
        if obj == "fubini-two-var":
            return _two_var_grid_problems(n, value)
        if obj == "apostol":
            return _apostol_problems(n, value)
    except (TypeError, ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
        return [f"malformed value: {exc}"]
    return [f"no check for object {obj!r}"]


def _two_var_grid_problems(n: int, rows) -> list[str]:
    # rows[i][j] is the coefficient of x^i y^j: C(n, n-i) a(n-i, j).
    expected = [
        [math.comb(n, n - i) * a for a in ordered_row(n - i)] for i in range(n + 1)
    ]
    width = max(len(r) for r in expected)
    if len(rows) != n + 1 or any(len(r) != width for r in rows):
        return [f"F_{n}(x;y) grid has the wrong shape"]
    for i, row in enumerate(rows):
        want = expected[i] + [0] * (width - len(expected[i]))
        if _rationals(row) != want:
            return [f"F_{n}(x;y) row x^{i} differs"]
    return []


def _poly_at(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _apostol_problems(n: int, value: dict) -> list[str]:
    num, den = _rationals(value["num"]), _rationals(value["den"])
    d = len(den) - 1
    if d > n or len(num) - 1 > n:
        return [f"A_{n} has degree above {n}"]
    if den != [math.comb(d, i) * (-1) ** (d - i) for i in range(d + 1)]:
        return [f"A_{n} denominator is not (lambda-1)^{d}"]
    if n and _poly_at(num, Fraction(1)) == 0:
        return [f"A_{n} is not in lowest terms"]
    # Both sides are ratios of polynomials of degree <= n, so agreement at
    # 2n + 1 points other than 1 proves they are the same function.
    for i in range(2 * n + 1):
        lam = Fraction(i + 2) if i % 2 else Fraction(-i - 1, 2)
        if _poly_at(num, lam) / _poly_at(den, lam) != apostol_value(n, lam):
            return [f"A_{n}({lam}) differs from the defining sum"]
    return []


# ---------------------------------------------------------------------------
# eval_warm: one library call


def eval_expected(name: str, args: list) -> object:
    """The value a library call of the eval_warm workload must return, as text."""
    a = [Fraction(v) if isinstance(v, str) else v for v in args]
    if name == "fubini_poly_at":
        return str(fubini_value(a[0], a[1]))
    if name == "fubini_two_var_eval":
        return str(two_var_value(*a))
    if name == "apostol_at":
        return str(apostol_value(a[0], a[1]))
    if name == "p_bernoulli":
        return str(p_bernoulli_value(a[0], a[1]))
    if name == "fubini_moment_integral":
        value = str(moment_value(a[0], a[1]))
        return [value, value]
    if name == "fubini_split_eval":
        return str(fubini_value(a[0], a[1]))
    raise ValueError(f"no check for call {name!r}")


# ---------------------------------------------------------------------------
# catalog_full: the whole `verify-all --profile full --format json` report


def report_digest(report: dict) -> str:
    """sha256 of the report with every elapsed_us removed."""
    stripped = dict(report)
    stripped["reports"] = [
        {k: v for k, v in r.items() if k != "elapsed_us"} for r in report["reports"]
    ]
    return hashlib.sha256(json.dumps(stripped).encode()).hexdigest()


def catalog_failures(rc, out: str, reference: dict) -> tuple[int, list[str]]:
    """Failed cases of one catalog run and the problems found.

    A case fails when its status is ``fail`` or it is missing from the
    report.  A report that cannot be read, or that differs from the
    reference (counts, digest, exit status) with no failed or missing case
    to blame, fails every expected case.
    """
    expected = reference["cases_per_identity"]
    total = sum(expected.values())
    seen: dict[str, int] = {}
    failed = 0
    try:
        report = json.loads(out)
        for r in report["reports"]:
            seen[r["identity"]] = seen.get(r["identity"], 0) + 1
            failed += r["status"] == "fail"
        digest = report_digest(report)
    except (ValueError, KeyError, TypeError, AttributeError):
        return total, [f"unreadable report (exit status {rc})"]
    problems = []
    missing = sum(max(0, count - seen.get(ident, 0)) for ident, count in expected.items())
    if failed or missing:
        problems.append(f"{failed} failed and {missing} missing cases")
    counts = {k: report.get(k) for k in ("identities", "total", "passed", "failed", "skipped")}
    if counts != reference["counts"]:
        problems.append(f"counts {counts} differ from {reference['counts']}")
    if rc != 0:
        problems.append(f"exit status {rc}")
    if digest != reference["report_sha256"]:
        problems.append("report digest differs from the reference")
    if problems and not (failed or missing):
        return total, problems
    return failed + missing, problems
