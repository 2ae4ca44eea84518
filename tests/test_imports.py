"""The CLI's import path stays lean: ``bench``, ``dataclasses`` and ``ipaddress``
load on demand, IPv6 text goes through ``_socket`` rather than ``socket``, and
no ``struct`` is loaded to format it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import epc_ipv6

SRC = str(Path(epc_ipv6.__file__).resolve().parents[1])

# runs in a fresh interpreter; compares against the modules it starts with
CHILD = """
import json, sys
before = set(sys.modules)
import epc_ipv6.cli
added = set(sys.modules) - before
cold = {name: name in added for name in ("epc_ipv6.bench", "dataclasses")}

import epc_ipv6
same_evaluate = epc_ipv6.evaluate is epc_ipv6.bench.evaluate
namespace = {}
exec("from epc_ipv6 import *", namespace)
bound = sorted(name for name in epc_ipv6.__all__ if name in namespace)
try:
    epc_ipv6.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"cold": cold, "same_evaluate": same_evaluate,
                  "all": sorted(epc_ipv6.__all__), "bound": bound,
                  "unknown": unknown}))
"""


# run with -S: a site hook (a .pth file) may import ipaddress before any test code
TEXT_CHILD = """
import json, sys
import epc_ipv6.cli
loaded = {name: name in sys.modules for name in ("ipaddress", "socket", "struct")}
from epc_ipv6 import parse_ipv6
from epc_ipv6.errors import Ipv6TextError
try:
    parse_ipv6("zzz")
except Ipv6TextError:
    loaded["ipaddress_after_error"] = "ipaddress" in sys.modules
print(json.dumps(loaded))
"""


def run_child(code, *options):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, *options, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(completed.stdout)


def test_cli_import_leaves_bench_and_dataclasses_unloaded():
    result = run_child(CHILD)
    assert result["cold"] == {"epc_ipv6.bench": False, "dataclasses": False}
    assert result["same_evaluate"]
    assert len(result["all"]) == 35
    assert result["bound"] == result["all"]
    assert "no_such_name" in result["unknown"]


def test_ipv6_text_needs_neither_ipaddress_nor_socket_until_an_error():
    # the error message is ipaddress's, so a refused text loads it
    assert run_child(TEXT_CHILD, "-S") == {
        "ipaddress": False, "socket": False, "struct": False,
        "ipaddress_after_error": True,
    }
