"""Every `lacspec ...` example of README's Command line section runs."""

import shlex
from pathlib import Path

import pytest

from lacspec import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("lacspec ")]


def test_examples_found():
    assert len(command_lines()) >= 14


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_line_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
