"""The README's CLI examples, run in order: each exits 0 and prints strict JSON."""
import json
import shlex
from pathlib import Path

import pytest

from bernlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The `bernlab ...` lines of the README's ```sh blocks, as argv lists."""
    commands, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh" and not in_sh
            continue
        if in_sh and line.startswith("bernlab "):
            commands.append(shlex.split(line)[1:])
    return commands


def reject(name):
    raise ValueError(f"{name} is not JSON")


def test_readme_examples(capsys, monkeypatch, tmp_path):
    # one working directory for all: `build` writes the z.json that
    # `spec validate` reads
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        json.loads(out, parse_constant=reject)
