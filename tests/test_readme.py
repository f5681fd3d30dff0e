"""The values README.md shows are the values the package computes.

Each ``fubini compute ...  # value`` line of the CLI block is run, and its
output must equal the comment, where ``...`` stands for any text.  Each
line of the library block whose comment starts with a literal value is
evaluated: a ``Fraction(p, q)``, ``True`` or ``False`` comment must equal
the value's ``repr``, and a ``Poly: ...`` comment its ``str``.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from fubini import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> list[str]:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0].splitlines()


def _commented(lines: list[str]) -> list[tuple[str, str]]:
    """(code, comment) for each line with a trailing comment."""
    pairs = [line.split("  # ", 1) for line in lines if "  # " in line]
    return [(code.strip(), comment.strip()) for code, comment in pairs]


CLI_LINES = [
    (cmd, value)
    for cmd, value in _commented(_block("CLI", "sh"))
    if cmd.startswith("fubini compute ")
]

LIBRARY_BLOCK = _block("Library", "python")
LITERAL = re.compile(r"(Fraction\(-?\d+, \d+\)|True|False)(?!\w)|Poly: (.+)")


def test_cli_block_values():
    assert len(CLI_LINES) == 9
    for cmd, value in CLI_LINES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(shlex.split(cmd)[1:]) == 0, cmd
        pattern = ".*".join(re.escape(part) for part in value.split("..."))
        assert re.fullmatch(pattern, buf.getvalue().rstrip("\n")), (cmd, buf.getvalue())


def test_library_block_values():
    namespace: dict = {}
    # The block's imports: its "from" lines and the continuation of the
    # parenthesised one.
    imports = [line for line in LIBRARY_BLOCK if line.startswith(("from", " ", ")"))]
    exec("\n".join(imports), namespace)
    checked = 0
    for expr, comment in _commented(LIBRARY_BLOCK):
        match = LITERAL.match(comment)
        if match is None:
            continue
        value = eval(expr, namespace)
        if match.group(2) is not None:
            assert str(value) == match.group(2), expr
        else:
            assert repr(value) == match.group(1), expr
        checked += 1
    assert checked == 5
