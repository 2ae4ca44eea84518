"""Run ``epc_ipv6.cli.main`` in a fresh interpreter and time its two phases.

Usage: PYTHONPATH=src python3 perfbench/cli_phases.py derive <EPC> --registry <file>

The CLI's own output goes to stdout unchanged. The last line of stderr is
a JSON object with the ``perf_counter_ns`` bounds of ``import epc_ipv6.cli``
and of ``main(argv)``; on Linux that clock is shared by all processes, so
the parent can place both spans inside its own span of this process.
"""

import time

import_start = time.perf_counter_ns()
import epc_ipv6.cli  # noqa: E402

import_end = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

if __name__ == "__main__":
    main_start = time.perf_counter_ns()
    code = epc_ipv6.cli.main(sys.argv[1:])
    main_end = time.perf_counter_ns()
    sys.stdout.flush()
    print(json.dumps({"import": [import_start, import_end], "main": [main_start, main_end]}),
          file=sys.stderr)
    sys.exit(code)
