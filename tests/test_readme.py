"""The README's examples run against the code: its library example executes
and every line of its CLI block parses with the command's own parser."""

import re
import shlex
from pathlib import Path

from induniv.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str = "") -> str:
    """The first fenced block of language ``lang`` under ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^```{lang}\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert match, f"no ```{lang} block under '## {heading}'"
    return match.group(1)


def test_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


def test_cli_block_parses():
    parser = build_parser()
    lines = [line for line in _block("CLI").splitlines() if line.strip()]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "induniv", line
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1], line
