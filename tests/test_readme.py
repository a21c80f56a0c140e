"""The README as a contract: what it promises, checked against the code."""

import pathlib
import re

from narrfunc import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_exit_codes_match_cli():
    # The paragraph that opens "Exit codes:" lists each code once, in order,
    # as a backquoted number; cli.EXIT_* hold exactly those values.
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    [exit_codes] = [p for p in paragraphs if p.startswith("Exit codes:")]
    listed = [int(code) for code in re.findall(r"`(\d+)` ", exit_codes)]
    defined = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert listed == defined
