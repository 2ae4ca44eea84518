"""The README's examples run as written: its library session as a doctest,
and its collision command prints the table below it."""

import doctest
import re
import shlex
from pathlib import Path

from epc_ipv6.cli import EXIT_OK, main

from conftest import ONS_TEXT

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_session_runs():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted > 0
    assert result.failed == 0


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
