"""Benchmark of the epc-ipv6 package, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream_small_registry --seed 1 --seconds 25 --trace 0

Workloads: stream_small_registry, stream_large_registry, bench_compare and
cli_cold_derive. With ``--trace 0`` the last line of stdout is a JSON object
holding the end-to-end metrics, with their timings scaled to a reference
machine speed (see ``speed``); with ``--trace 1`` it holds the per-layer
metrics from a traced run. The line before it records the run's provenance
and the end-to-end timings as timed, unscaled. Every output is checked, and
no timed operation may fail; a wrong output or a failed operation prints
``"correct": false`` and exits 1. Span logs of traced runs are written to
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"


def _git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "epc_ipv6" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from inputs import BenchmarkFailure

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    run = workloads.Run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        size=workloads.SIZES[args.scale], workdir=workdir,
        span_log=OUT_DIR / f"{args.workload}.spans.tsv.gz",
    )
    try:
        result = workloads.WORKLOADS[args.workload](run)
    except BenchmarkFailure as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = workloads.PER_LAYER_UNITS if run.trace else workloads.END_TO_END_UNITS
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": result.sizes,
        "attempted": result.attempted,
        "failed": 0,
        "failed_ratio": 0.0,
        "unscaled": result.unscaled,
        # reported, but not a metric a change is held to
        "ungated": {k: v for k, v in result.metrics.items() if k not in units},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": 0,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
