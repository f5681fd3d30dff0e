#!/usr/bin/env python3
"""Render the identity catalog document from the live registry.

Usage:
    python scripts/render_catalog.py > docs/identities.md

The committed docs/identities.md must match this script's output; the
test suite enforces that, so regenerate the file whenever the registry
changes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fubini.registry import REGISTRY, SAMPLE_GRID, Bounds, list_identities
from fubini.exact import format_rational

ERRATA = {
    "eq24_corrected_split": (
        "The variant F_n(y) = 2^(n+1)(1+y) F_n(y^2/(1+2y)) - (1+2y) F_n(-y) "
        "fails already at n = 1, y = 1 (it claims 17/3 for F_1(1) = 1); the "
        "partial-fraction derivation it comes from drops a factor. The "
        "corrected identity verified here moves F_n(-y/(1+2y)) to the right "
        "side with prefactor (1+2y) on F_n(y); the split forms eq84/eq85/eq86 "
        "that follow from it are sound as stated and are verified unchanged."
    ),
    "pb_odd_explicit": (
        "The variant with upper Stirling index 2n-1 and sign (-1)^(k+1) gives "
        "-1 at (n,p) = (1,1); the Stirling-relation oracle gives -1/3. The "
        "corrected form uses upper index 2n and sign (-1)^k."
    ),
    "pb_even_explicit": (
        "The variant with sign (-1)^k gives +1/20 at (n,p) = (1,2); the "
        "oracle gives -1/20. The corrected form uses sign (-1)^(k+1)."
    ),
    "ab_guoqi": (
        "Read literally at n = 0 the alternating power sum yields "
        "lam/(lam-1), but the true index-1 function is 1/(lam-1). The "
        "derivation passes through a reflection form that is only stated for "
        "n >= 1, so the n = 0 instance was never covered; the operation is "
        "restricted to n >= 1 instead of patching the formula."
    ),
    "ab_product_integral": (
        "Pairing the integrand indices as (m, n) with prefactor (m+1)(n+1) "
        "fails at m = n = 1: the integral of the square of the index-1 "
        "function is 1, while that variant claims 4/3. The corrected "
        "statement integrates the index-(m+1) and index-(n+1) functions."
    ),
    "stirling_cross": (
        "The transposed convolution sum_k S2(i,k) C(k,j) fails at "
        "(i,j) = (2,0), where it sums a Stirling row to the Bell number 2 "
        "while S2(3,1) = 1. The classical identity puts the binomial on the "
        "outer index: sum_k C(i,k) S2(k,j) = S2(i+1,j+1)."
    ),
}

HEADER = """\
# Identity catalog

Every identity this package verifies is registered under a stable id in
`fubini.registry`.  `fubini verify <id>` runs one entry over its
parameter grid; `fubini verify-all --profile quick|full` runs the whole
catalog.  This document is generated by `scripts/render_catalog.py` and
is kept in sync with the registry by the test suite.

Notation: `F_n(y)` is the Fubini polynomial, `F_n` the Fubini number
`F_n(1)`, `F_n(x;y)` the two-variable polynomial, `S2`/`S1u` the
Stirling numbers of the second and (unsigned) first kind, `C(n,k)` the
binomial coefficient, `B_n` the Bernoulli numbers (convention
`B_1 = -1/2`), `B_{n,p}` the two-index Bernoulli family, and `AB_n(lam)`
the index-n Apostol-Bernoulli rational function.

Pointwise entries evaluate both sides on a fixed grid of 25 rational
sample points (all `+/- p/q` with `p, q <= 7`), skipping an identity's
singular points; those show up in reports as `skipped-precondition`.

Corrected entries (marked below) implement a repaired form of an
identity whose commonly printed variant fails machine verification.
Each carries witness cases, reported with `printed: 1` in their
parameters, that evaluate the uncorrected variant (`lhs`) against the
true value (`rhs`) and pass exactly when the two differ, freezing the
erratum as an executable fact.

## Entries
"""

FOOTER = """\
## Errata detail

{errata}

## How much the grid proves

For a pointwise entry with index bound `n`, clearing denominators turns
the identity into a polynomial identity of degree at most `2n + 2`.  A
polynomial of degree `d` that vanishes at more than `d` points is zero,
so for `n <= 11` the 25-point grid is a proof, not a sample.  For
`12 <= n <= 15` the cleared degree can exceed 25 and the grid check is
(extremely strong) evidence rather than a proof; the symbolic entries
(`eq84_split` collapse cases, `eq4_shift`, `eq7_x1`, `eq9_xneg1`,
`eq13_products_poly`, `eq18_two_var_reflection`, `eq21_explicit`) carry
the coefficientwise proof burden where one exists.

## Sample grid

{grid}
"""


def bounds_str(identity_id: str, bounds: Bounds) -> str:
    parts = []
    for field, label in (("n_max", "n"), ("m_max", "m"), ("k_max", "k"), ("p_max", "p")):
        value = getattr(bounds, field)
        if value:
            parts.append(f"{label} <= {value}")
    if bounds.samples:
        parts.append(f"{bounds.samples} grid points")
    if bounds.terms:
        parts.append(f"{bounds.terms} terms")
    if identity_id == "eq84_split" and bounds.aux_max:
        parts.append(f"symbolic collapse n <= {bounds.aux_max}")
    if identity_id == "eq14_enumeration" and bounds.aux_max:
        parts.append(f"per-block counts n <= {bounds.aux_max}")
    return ", ".join(parts) if parts else "fixed case list"


def render() -> str:
    out = [HEADER]
    for entry in list_identities():
        flag = " *(corrected)*" if entry.corrected else ""
        out.append(f"### `{entry.identity_id}`{flag}\n")
        out.append(f"{entry.statement}\n")
        out.append(
            f"- quick: {bounds_str(entry.identity_id, entry.quick)}\n"
            f"- full: {bounds_str(entry.identity_id, entry.full)}\n"
        )
    errata = "\n\n".join(
        f"- **`{identity}`** - {text}" for identity, text in sorted(ERRATA.items())
    )
    grid = ", ".join(format_rational(q) for q in SAMPLE_GRID)
    out.append(FOOTER.format(errata=errata, grid=grid))
    return "\n".join(out)


if __name__ == "__main__":
    missing = set(ERRATA) ^ {e.identity_id for e in REGISTRY.values() if e.corrected}
    if missing:
        raise SystemExit(f"errata notes out of sync with registry: {sorted(missing)}")
    sys.stdout.write(render())
