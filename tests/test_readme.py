"""README's Quick start block and every `lacspec ...` example of its Command
line section run."""

import shlex
from pathlib import Path

import pytest

from lacspec import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(heading, fence):
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return section.split(fence, 1)[1].split("```", 1)[0]


def test_quick_start_runs():
    exec(compile(first_block("## Quick start", "```python"), "README Quick start", "exec"), {})


def command_lines():
    lines = first_block("## Command line", "```sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("lacspec ")]


def test_examples_found():
    assert len(command_lines()) >= 14


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_line_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
