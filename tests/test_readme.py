"""README's library example, run as written, and its command lines, parsed,
so the documented API and the code cannot drift apart."""

import re
import shlex
from pathlib import Path

import pytest

from gradefactor.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # it prints one line per factor, its extent and intent as values
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(namespace["factors"]) >= 1


def test_every_documented_command_line_parses():
    # a removed command or option must not stay in the docs
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    lines = [shlex.split(line) for block in blocks for line in block.splitlines()
             if line.startswith("gradefactor ")]
    assert lines, "README shows no gradefactor command line"
    for argv in lines:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README's `{shlex.join(argv)}` does not parse")
