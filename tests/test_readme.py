"""The README's examples run as written: its library session as a doctest,
its ``derive -`` example prints what it shows, and its collision command
prints the table below it."""

import doctest
import io
import re
import sys
import shlex
from pathlib import Path

from epc_ipv6.cli import EXIT_OK, main

from conftest import ONS_TEXT

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_session_runs():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted > 0
    assert result.failed == 0


def test_derive_lines_example_prints_what_it_shows(capsys, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n")[1].split("\n## ")[0]
    block = next(block for block in re.findall(r"```sh\n(.*?)```", section, re.S)
                 if " derive - " in block)
    shown = re.findall(r"^# (->|stderr:|exit) (.*)$", block, re.M)
    command = " ".join(line for line in block.replace("\\\n", " ").splitlines()
                       if not line.startswith("#"))
    feed, invocation = command.split(" | ")
    printf, template, *lines = shlex.split(feed)
    assert (printf, template) == ("printf", "%s\\n")
    program, *argv = shlex.split(invocation)
    assert program == "epc-ipv6"

    stdin = io.TextIOWrapper(io.BytesIO("".join(line + "\n" for line in lines).encode()))
    monkeypatch.setattr(sys, "stdin", stdin)
    code = main(argv)
    captured = capsys.readouterr()
    # the README shows stdout's lines, then stderr's, then the exit status
    assert shown == (
        [("->", line) for line in captured.out.splitlines()]
        + [("stderr:", line) for line in captured.err.splitlines()]
        + [("exit", str(code))]
    )


def test_collision_table_is_what_its_command_prints(capsys, wildcard_registry_path):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Collision semantics\n")[1].split("\n## ")[0]
    # the documented registry is the fixture's one wildcard record
    assert f"`*` → `{ONS_TEXT}`" in section
    command = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    program, *argv = shlex.split(command)
    assert program == "epc-ipv6"
    argv[argv.index("--registry") + 1] = str(wildcard_registry_path)
    documented = {
        method: (distinct.replace(",", ""), collisions.replace(",", ""))
        for method, distinct, collisions in re.findall(
            r"^\| `(\w+)` \| ([\d,]+|n/a) \| ([\d,]+|n/a) \|$", section, re.M)
    }
    assert len(documented) == 6

    assert main(argv) == EXIT_OK
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert {method: (distinct, collisions) for method, _, distinct, collisions, *_ in rows} == (
        documented
    )
