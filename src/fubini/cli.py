"""Command-line interface.

Subcommands:

* ``compute <object>`` evaluates one quantity (Stirling/Fubini/Bernoulli
  numbers, Fubini and Apostol-Bernoulli polynomials), optionally at a
  rational point via ``--at``.
* ``table <family>`` streams a value table.
* ``verify <identity-id>`` runs one catalog entry over its grid.
* ``verify-all --profile quick|full`` runs the whole catalog.
* ``list-identities`` prints the catalog.
* ``catalog`` prints the catalog document, ``docs/identities.md``.

One table, ``COMMANDS``, declares every subcommand: its handler, help
line, positional argument and options.  ``parse_args`` reads the command
line against it: options are matched by their exact ``--name`` (no
abbreviations) and take ``--name value`` or ``--name=value``, the value
always being the next token, so ``--at -3/7`` works.  ``-h``/``--help``
prints help rendered from the same table.  The CLI does not use argparse,
whose import (with gettext and locale) costs more than a small query.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error (unknown object/identity, missing or invalid parameters), 141 the
reader of stdout closed it early (128 + SIGPIPE, as for `| head`).  Output
is deterministic for a fixed command line except for the elapsed_us
field of verification reports.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn, Optional, Union

from . import apostol as ap
from . import bernoulli_numbers as bn
from . import combinat as cb
from . import polynomials as fp
from . import registry as rg
from .exact import RatFunc, format_rational, parse_rational, ratfunc_str

FORMATS = ("plain", "json", "csv")


class UsageError(Exception):
    pass


# Each compute object: the parameters it reads, whether --at applies, and
# the library call (looked up at call time).  Any other option given to an
# object is a usage error, so a flag is never silently ignored.
COMPUTE = {
    "stirling1": (("n", "k"), False, lambda n, k: cb.stirling1_unsigned(n, k)),
    "stirling2": (("n", "k"), False, lambda n, k: cb.stirling2(n, k)),
    "binomial": (("n", "k"), False, lambda n, k: cb.binomial(n, k)),
    "fubini-number": (("n",), False, lambda n: fp.fubini_number(n)),
    "fubini-poly": (("n",), True, lambda n: fp.fubini_poly(n)),
    "fubini-two-var": (("n",), False, lambda n: fp.fubini_two_var(n)),
    "bernoulli": (("n",), False, lambda n: bn.bernoulli(n)),
    "p-bernoulli": (("n", "p"), False, lambda n, p: bn.p_bernoulli(n, p)),
    "apostol": (("n",), True, lambda n: ap.apostol_bernoulli(n)),
}

# The bound flags of `verify`, by Bounds field name.
BOUND_FLAGS = ("n_max", "m_max", "k_max", "p_max", "samples")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(args, *names: str) -> list:
    values = []
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise UsageError(f"{_flag(name)} is required here")
        values.append(value)
    return values


def _plain_value(value) -> str:
    return ratfunc_str(value, "λ") if isinstance(value, RatFunc) else str(value)


def _emit_compute(obj: str, params: dict, value, fmt: str) -> None:
    if fmt == "plain":
        print(_plain_value(value))
    elif fmt == "json":
        payload = {"object": obj, "params": rg.params_json(params), "value": rg.value_json(value)}
        print(json.dumps(payload))
    else:
        cell = rg.value_json(value)
        if not isinstance(cell, str):
            cell = json.dumps(cell, separators=(",", ":"))
        columns = rg.params_json(params)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([*columns, "value"])
        writer.writerow([*map(str, columns.values()), cell])


def cmd_compute(args) -> int:
    names, takes_at, call = COMPUTE[args.object]
    accepted = names + ("at",) * takes_at
    for name in ("k", "p", "at"):
        if getattr(args, name) is not None and name not in accepted:
            raise UsageError(f"--{name} does not apply to {args.object}")
    params = dict(zip(names, _require(args, *names)))
    value = call(*params.values())
    if args.at is not None:
        params["at"] = args.at
        value = value(args.at)
    _emit_compute(args.object, params, value, args.format)
    return 0


def cmd_table(args) -> int:
    family = args.family
    if family == "p-bernoulli":
        n_max, p_max = _require(args, "n_max", "p_max")
        columns = ["n", "p", "value"]
        rows = [
            [str(n), str(p), format_rational(bn.p_bernoulli(n, p))]
            for n in range(n_max + 1)
            for p in range(p_max + 1)
        ]
    else:
        if args.p_max is not None:
            raise UsageError(f"--p-max does not apply to {family}")
        (n_max,) = _require(args, "n_max")
        # An ascending table extends one column per index: the Fubini table
        # rolls one Stirling row per index through F_n(1), and the Bernoulli
        # table one tangent column.  Above MEMO_ROWS, fubini_number's power
        # sum would redo n powers and bernoulli's zeta route a whole Euler
        # product at every index.
        value = bn.bernoulli_tangent if family == "bernoulli" else lambda n: fp.fubini_poly(n)(1)
        columns = ["n", "value"]
        rows = [[str(n), format_rational(value(n))] for n in range(n_max + 1)]
    if not rows:
        raise UsageError(f"the bounds select no case of {family}")
    _emit_table(family, columns, rows, args.format)
    return 0


def _emit_table(family: str, columns: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({
            "object": family,
            "columns": columns,
            "rows": rows,
        }))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        width = max(len(c) for c in columns) + 2
        for row in rows:
            print("".join(cell.ljust(width) for cell in row).rstrip())


def _emit_reports_csv(reports) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["identity", "params", "status", "lhs", "rhs", "elapsed_us"])
    for r in reports:
        params = json.dumps(rg.params_json(r.params), separators=(",", ":"))
        writer.writerow([r.identity, params, r.status, r.lhs, r.rhs, str(r.elapsed_us)])


def _params_plain(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in rg.params_json(params).items())


def _emit_reports_plain(reports) -> None:
    for r in reports:
        line = f"{r.status:<21} {r.identity} {_params_plain(r.params)}"
        if r.status == rg.FAIL:
            line += f"  lhs={r.lhs} rhs={r.rhs}"
        print(line)


def cmd_verify(args) -> int:
    identity = args.identity_id
    if identity not in rg.REGISTRY:
        raise UsageError(f"unknown identity {identity!r}; see list-identities")
    overrides = {name: getattr(args, name) for name in BOUND_FLAGS}
    for name in BOUND_FLAGS:
        if overrides[name] is not None and name not in rg.REGISTRY[identity].bounds_used:
            raise UsageError(f"{_flag(name)} does not apply to {identity}")
    reports = rg.verify(identity, profile=args.profile, overrides=overrides)
    run = rg.VerificationRun(args.profile, tuple(reports))
    if args.format == "json":
        payload = {
            "identity": identity,
            **run.counts(),
            "reports": [r.to_json_dict() for r in reports],
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        _emit_reports_csv(reports)
    else:
        _emit_reports_plain(reports)
        print(f"{identity}: {len(reports)} cases, {run.failed} failed")
    return 0 if run.ok else 1


def cmd_verify_all(args) -> int:
    run = rg.verify_all(args.profile)
    if args.format == "json":
        print(json.dumps(run.to_json_dict()))
    elif args.format == "csv":
        _emit_reports_csv(run.reports)
    else:
        for identity, group in itertools.groupby(run.reports, key=lambda r: r.identity):
            counts = rg.VerificationRun(run.profile, tuple(group))
            print(
                f"{identity:<26} pass={counts.passed:>5}"
                f" fail={counts.failed:>3} skip={counts.skipped:>3}"
            )
            for r in counts.reports:
                if r.status == rg.FAIL:
                    print(f"  FAIL {_params_plain(r.params)} lhs={r.lhs} rhs={r.rhs}")
        print(
            f"total={len(run.reports)} passed={run.passed}"
            f" failed={run.failed} skipped={run.skipped}"
        )
        print("RESULT " + ("PASS" if run.ok else "FAIL"))
    return 0 if run.ok else 1


def cmd_list_identities(args) -> int:
    entries = rg.list_identities()
    if args.format == "json":
        payload = [
            {
                "identity": e.identity_id,
                "corrected": e.corrected,
                "statement": e.statement,
            }
            for e in entries
        ]
        print(json.dumps(payload))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["identity", "corrected", "statement"])
        for e in entries:
            writer.writerow([e.identity_id, str(e.corrected).lower(), e.statement])
    else:
        for e in entries:
            flag = " [corrected]" if e.corrected else ""
            print(f"{e.identity_id:<26}{flag}")
            print(f"    {e.statement}")
    return 0


CATALOG_HEADER = """\
# Identity catalog

Every identity this package verifies is registered under a stable id in
`fubini.registry`.  `fubini verify <id>` runs one entry over its
parameter grid; `fubini verify-all --profile quick|full` runs the whole
catalog.  This document is generated by `fubini catalog` and
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

CATALOG_FOOTER = """\
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


def _bounds_plain(entry: rg.RegistryEntry, bounds: rg.Bounds) -> str:
    parts = [
        f"{name.removesuffix('_max')} <= {getattr(bounds, name)}"
        for name in ("n_max", "m_max", "k_max", "p_max")
        if getattr(bounds, name)
    ]
    if bounds.samples:
        parts.append(f"{bounds.samples} grid points")
    if bounds.terms:
        parts.append(f"{bounds.terms} terms")
    if bounds.aux_max:
        parts.append(f"{entry.aux_label} <= {bounds.aux_max}")
    return ", ".join(parts) if parts else "fixed case list"


def cmd_catalog(args) -> int:
    entries = rg.list_identities()
    # The document states each erratum; refuse to print it if a printed
    # variant has come to agree with the true value.
    agreeing = [
        f"{e.identity_id} at {_params_plain(params)}"
        for e in entries
        for params, evaluate in e.witnesses
        if rg.run_check(evaluate(params)) != rg.PASS
    ]
    if agreeing:
        for case in agreeing:
            print(f"fubini: uncorrected variant agrees: {case}", file=sys.stderr)
        return 1
    out = [CATALOG_HEADER]
    for e in entries:
        flag = " *(corrected)*" if e.corrected else ""
        out.append(f"### `{e.identity_id}`{flag}\n")
        out.append(f"{e.statement}\n")
        out.append(f"- quick: {_bounds_plain(e, e.quick)}\n- full: {_bounds_plain(e, e.full)}\n")
    errata = "\n\n".join(f"- **`{e.identity_id}`** - {e.erratum}" for e in entries if e.corrected)
    grid = ", ".join(format_rational(q) for q in rg.SAMPLE_GRID)
    out.append(CATALOG_FOOTER.format(errata=errata, grid=grid))
    sys.stdout.write("\n".join(out))
    return 0


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


class Option(NamedTuple):
    """One ``--name`` option: ``parse`` reads its value's text, or is the
    tuple of allowed values."""

    parse: Union[Callable[[str], object], tuple[str, ...]]
    default: object = None
    required: bool = False
    help: str = ""


class Command(NamedTuple):
    """One subcommand: its handler and help line, its positional argument
    as (name, allowed values or ``str`` for any value), and its options
    by exact ``--name``."""

    run: Callable[[SimpleNamespace], int]
    help: str
    positional: Optional[tuple[str, Union[type, tuple[str, ...]]]]
    options: dict[str, Option]


# The whole command line.  Parsing, usage lines and help all read this table.
COMMANDS = {
    "compute": Command(
        cmd_compute, "compute one value", ("object", tuple(COMPUTE)),
        {
            "--n": Option(_integer),
            "--k": Option(_integer),
            "--p": Option(_integer),
            "--at": Option(parse_rational, help="evaluate at a rational point, e.g. -3/7"),
            "--format": Option(FORMATS, "plain"),
        },
    ),
    "table": Command(
        cmd_table, "stream a value table", ("family", ("bernoulli", "fubini", "p-bernoulli")),
        {
            "--n-max": Option(_integer),
            "--p-max": Option(_integer),
            "--format": Option(FORMATS, "csv"),
        },
    ),
    "verify": Command(
        cmd_verify, "verify one identity over its grid", ("identity_id", str),
        {
            "--profile": Option(rg.PROFILES, "full"),
            "--n-max": Option(_integer),
            "--m-max": Option(_integer),
            "--k-max": Option(_integer),
            "--p-max": Option(_integer),
            "--samples": Option(
                _integer, help="number of rational grid points to use (the fixed grid has 25)"
            ),
            "--format": Option(FORMATS, "plain"),
        },
    ),
    "verify-all": Command(
        cmd_verify_all, "verify the whole catalog", None,
        {"--profile": Option(rg.PROFILES, required=True), "--format": Option(FORMATS, "plain")},
    ),
    "list-identities": Command(
        cmd_list_identities, "print the identity catalog", None,
        {"--format": Option(FORMATS, "plain")},
    ),
    "catalog": Command(
        cmd_catalog, "print the catalog document; exit 1 if an erratum no longer holds", None, {}
    ),
}

HELP_FLAGS = ("-h", "--help")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _value(label: str, parse, text: str):
    if isinstance(parse, tuple):
        if text not in parse:
            listed = ", ".join(map(repr, parse))
            raise UsageError(f"argument {label}: invalid choice: {text!r} (choose from {listed})")
        return text
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"argument {label}: {exc}") from None


def parse_args(argv: list[str]) -> tuple[Optional[str], Optional[SimpleNamespace]]:
    """Parse a command line against ``COMMANDS``.

    Returns the subcommand and its arguments: one attribute per option,
    holding its default when not given, and one for the positional.  An
    option reads ``--name value`` or ``--name=value``; the value is always
    the next token, so it may start with ``-``.  On ``-h``/``--help`` the
    arguments are None, and so is the subcommand for the top-level help.
    Anything else raises ``UsageError``.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] in HELP_FLAGS:
        return None, None
    name = _value("command", tuple(COMMANDS), argv[0])
    command = COMMANDS[name]
    values = {_dest(flag): option.default for flag, option in command.options.items()}
    positional = None
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP_FLAGS:
            return name, None
        if token.startswith("-"):
            flag, eq, text = token.partition("=")
            if flag not in command.options:
                raise UsageError(f"unrecognized arguments: {token}")
            if not eq:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"argument {flag}: expected one argument")
            values[_dest(flag)] = _value(flag, command.options[flag].parse, text)
        elif command.positional is None or positional is not None:
            raise UsageError(f"unrecognized arguments: {token}")
        else:
            positional = _value(*command.positional, token)
    missing = [command.positional[0]] if command.positional and positional is None else []
    missing += [
        flag
        for flag, option in command.options.items()
        if option.required and values[_dest(flag)] is None
    ]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if command.positional:
        values[command.positional[0]] = positional
    return name, SimpleNamespace(**values)


def _metavar(flag: str, option: Option) -> str:
    if isinstance(option.parse, tuple):
        return "{" + ",".join(option.parse) + "}"
    return "RAT" if option.parse is parse_rational else _dest(flag).upper()


def _usage(name: Optional[str]) -> str:
    if name is None:
        return "usage: fubini <command> [options]"
    command = COMMANDS[name]
    words = [f"usage: fubini {name}"]
    if command.positional:
        words.append(f"<{command.positional[0]}>")
    words += [
        f"{flag} {_metavar(flag, option)}"
        for flag, option in command.options.items()
        if option.required
    ]
    return " ".join([*words, "[options]"])


def _help(name: Optional[str]) -> str:
    """The ``--help`` text of one subcommand, or of the whole CLI for None."""
    lines = [_usage(name), ""]
    if name is None:
        width = max(map(len, COMMANDS)) + 2
        lines += [
            "Exact Fubini/Bernoulli/Apostol-Bernoulli calculator and identity verifier.",
            "",
            "commands:",
            *(f"  {other:<{width}}{command.help}" for other, command in COMMANDS.items()),
            "",
            "`fubini <command> --help` lists the options of one command.",
        ]
        return "\n".join(lines)
    command = COMMANDS[name]
    lines += [command.help, ""]
    if command.positional and isinstance(command.positional[1], tuple):
        positional, choices = command.positional
        lines += [f"<{positional}> is one of: {', '.join(choices)}", ""]
    rows = [("-h, --help", "print this help and exit")]
    for flag, option in command.options.items():
        notes = [option.help] if option.help else []
        if option.required:
            notes.append("required")
        elif option.default is not None:
            notes.append(f"default: {option.default}")
        rows.append((f"{flag} {_metavar(flag, option)}", "; ".join(notes)))
    width = max(len(left) for left, _ in rows) + 2
    lines.append("options:")
    lines += [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
    return "\n".join(lines)


@contextlib.contextmanager
def _unlimited_int_digits():
    # Exact values may have more digits than Python's default int <-> str
    # limit (4300) allows; lift it while the CLI runs, and only then.
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _exit_usage(message: str) -> NoReturn:
    sys.stderr.write(message + "\n")
    raise SystemExit(2)


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    with _unlimited_int_digits():
        try:
            name, args = parse_args(argv)
        except UsageError as exc:
            name = argv[0] if argv and argv[0] in COMMANDS else None
            prog = "fubini" if name is None else f"fubini {name}"
            _exit_usage(f"{_usage(name)}\n{prog}: error: {exc}")
        try:
            if args is None:
                print(_help(name))
                code = 0
            else:
                code = COMMANDS[name].run(args)
            sys.stdout.flush()  # a closed pipe shows up here, not at exit
            return code
        except BrokenPipeError:
            # Silence the flush at interpreter exit, which would fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except (UsageError, ValueError, ZeroDivisionError) as exc:
            _exit_usage(f"fubini: error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
