"""How fast the machine runs, measured by probes, to scale timings by.

The shared host runs the benchmark at speeds up to a factor of two apart.
It switches between them every few seconds, and sometimes holds one speed
for minutes, longer than a run. A probe is a fixed piece of work that does
not use the package; timing it next to each piece of measured work tells
how fast the machine ran then. Every end-to-end timing is scaled to the
reference speed, at which a probe takes its reference time.

In-process work is scaled by a pure-Python probe that formats, splits and
parses tag-URI-like text, as the package does. Process start-up is scaled
by a probe that starts an empty interpreter.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter

from inputs import BenchmarkFailure

PYTHON_PROBE_ITEMS = 100
PYTHON_PROBE_REPEATS = 3
# probe times at the reference speed: about this machine's slower speed
PYTHON_REFERENCE_S = 0.0004
SPAWN_REFERENCE_S = 0.08
SPAWN_TIMEOUT_S = 60


def _python_work() -> int:
    acc = 0
    for i in range(PYTHON_PROBE_ITEMS):
        text = f"urn:epc:tag:sgtin-96:{i % 8}.{i * 7919 % 10**7:07d}.{i % 99999:05d}.{i * 31}"
        fields = text.split(":")[4].split(".")
        acc ^= int(fields[3]) + len(fields[1])
        record = {"company": fields[1], "item": fields[2]}
        acc += hash(record["item"]) & 0xFF
    return acc


def python_probe() -> float:
    """Seconds the pure-Python probe takes now: the best of a few repeats."""
    best = float("inf")
    for _ in range(PYTHON_PROBE_REPEATS):
        start = perf_counter()
        _python_work()
        best = min(best, perf_counter() - start)
    return best


def spawn_probe(cwd: Path) -> float:
    """Seconds an empty interpreter takes from spawn to exit now."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, capture_output=True,
                          timeout=SPAWN_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkFailure(f"python -c pass exited {proc.returncode}")
    return elapsed


class ScaledClock:
    """Probes between pieces of work, to scale each piece to the reference speed."""

    def __init__(self, probe, reference_s: float):
        self._probe = probe
        self._reference_s = reference_s
        self.begin()

    def begin(self) -> None:
        """Probe just before a piece of work, when other work came since the last probe."""
        self._last = self._probe()

    def scale(self) -> float:
        """Probe just after a piece of work; return the factor that takes the
        work's time since the last probe to the reference speed."""
        now = self._probe()
        factor = self._reference_s / ((self._last + now) / 2)
        self._last = now
        return factor


def python_clock() -> ScaledClock:
    return ScaledClock(python_probe, PYTHON_REFERENCE_S)


def spawn_clock(cwd: Path) -> ScaledClock:
    return ScaledClock(lambda: spawn_probe(cwd), SPAWN_REFERENCE_S)
