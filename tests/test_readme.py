"""The README's examples run as written: its Python block, and each
``fibspec`` line of its command-line blocks through ``cli.main``."""

import re
import shlex
from pathlib import Path

import pytest

from fibspec import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, re.S)
COMMANDS = [shlex.split(line, comments=True)
            for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("fibspec ")]


def test_python_example_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_command_line_examples_found():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_exits_zero(argv, capsys):
    assert cli.main(argv[1:]) == 0
    capsys.readouterr()
