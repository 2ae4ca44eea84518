"""The benchmark's four workloads.

Every workload runs closed-loop in this one process, with no threads: the
next input goes to the package only after the previous result returned.
``cli_cold_derive`` starts one child process at a time and waits for it.
An untraced run reports the end-to-end metrics; a traced run (``trace``)
measures half its time untraced and half with a span around each public
call, and reports the per-layer metrics. No timed operation fails: inputs
the package must reject are checked before timing starts.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path
from time import perf_counter, perf_counter_ns

from epc_ipv6 import (
    AddressingMethodId,
    Epc,
    EpcScheme,
    PopulationSpec,
    bit_length,
    evaluate,
    generate_population,
    load_registry,
    method_function,
    parse_ipv6,
    parse_tag_uri,
    resolve,
)
from epc_ipv6.errors import EpcIpv6Error

import inputs
import speed
from inputs import BenchmarkFailure
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

SETUP_MIN_SAMPLES = 5
SETUP_MIN_S = 1.0
# a set-up shorter than this is timed in batches that last at least this long
SETUP_SAMPLE_S = 0.005
OR_PAD_SALT = 0xFFFF_FFFF_FFFF_C000  # leaves 14 free interface-identifier bits
CHILD_TIMEOUT_S = 60
CLI_WINDOW_PROCESSES = 5
MALFORMED_CHECKS = 100

# direct64 rejects 96-bit EPCs, so it is checked before timing, not timed
METHODS = [m.value for m in AddressingMethodId if m is not AddressingMethodId.DIRECT64]

# input sizes per scale; "tiny" is for the benchmark's own tests
SIZES = {
    "full": {"small_chunk": 2000, "large_chunk": 100, "registry_records": 1000,
             "population": 100_000, "floor_runs": 10},
    "tiny": {"small_chunk": 300, "large_chunk": 30, "registry_records": 50,
             "population": 300, "floor_runs": 2},
}

END_TO_END_UNITS = {
    "throughput_eps": "1/s",
    "latency_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# public calls the stream workloads wrap in a span
STREAM_CALLS = (
    "epc.parse_tag_uri", "epc.Epc", "ons.resolve", "addressing.derive", "ipv6.format_canonical",
)

PER_LAYER_UNITS = {
    **{f"{name}.us_per_call": "us" for name in STREAM_CALLS},
    **{f"{name}.calls": "count" for name in STREAM_CALLS},
    "ons.load_registry.ms": "ms",
    "op.self_us": "us",
    "bench.generate_population.s": "s",
    **{f"bench.evaluate.{m}.s": "s" for m in METHODS},
    **{f"bench.evaluate.{m}.distinct_ratio": "ratio" for m in METHODS},
    "cli.interpreter_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Run:
    """One benchmark invocation: workload arguments plus a scratch directory."""

    seed: int
    seconds: float
    trace: bool
    size: dict
    workdir: Path
    span_log: Path

    def rng(self, *labels) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, *labels))))


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    sizes: dict
    # the end-to-end timings as timed, before scaling to the reference speed
    unscaled: dict[str, float] = field(default_factory=dict)


@dataclass
class Window:
    """One chunk, batch or group of processes of a measuring pass.

    ``scaled_s`` is ``timed_s`` scaled to the reference speed, piece by
    piece as the window's clock probed between pieces.
    """

    ok: int = 0
    timed_s: float = 0.0
    scaled_s: float = 0.0
    latencies_ns: array = field(default_factory=lambda: array("q"))

    @property
    def scale(self) -> float:
        return self.scaled_s / self.timed_s


@dataclass
class PassStats:
    """Counts and timings of one untraced or traced measuring pass.

    Throughput is the median over windows; latencies are percentiles over
    every operation of the pass. Both are scaled to the reference speed
    (see ``speed``), unless ``scaled`` is false.
    """

    windows: list[Window] = field(default_factory=list)

    def new_window(self) -> Window:
        # the previous window's garbage is the benchmark's own: keep it out of the next one
        gc.collect()
        self.windows.append(Window())
        return self.windows[-1]

    @property
    def ok(self) -> int:
        return sum(w.ok for w in self.windows)

    def throughput(self, scaled: bool = True) -> float:
        return statistics.median(
            w.ok / (w.scaled_s if scaled else w.timed_s) for w in self.windows
        )

    def latency_ns(self, share: float, scaled: bool = True) -> float:
        samples = sorted(
            ns * (w.scale if scaled else 1.0) for w in self.windows for ns in w.latencies_ns
        )
        return _percentile(samples, share)


class Deadline:
    """Ends a measuring pass before its next window would run past ``seconds``.

    The next window is expected to last as long as the last one did, checks
    and input generation included, so a run ends close to ``seconds``.
    """

    def __init__(self, seconds: float):
        self.last = perf_counter()
        self.end = self.last + seconds

    def reached(self) -> bool:
        now = perf_counter()
        step, self.last = now - self.last, now
        return now + step >= self.end


def _percentile(sorted_values, share: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _timings(stats: PassStats, setup: Setup, scaled: bool) -> dict[str, float]:
    # latency_p95_us is reported but not among END_TO_END_UNITS: host
    # interruptions, not the program, set how it moves between runs
    return {
        "throughput_eps": stats.throughput(scaled),
        "latency_p50_us": stats.latency_ns(0.50, scaled) / 1e3,
        "latency_p95_us": stats.latency_ns(0.95, scaled) / 1e3,
        "setup_s": setup.seconds(scaled),
    }


def _result(stats: PassStats, setup: Setup, rss_mb: float, sizes: dict) -> Result:
    return Result({**_timings(stats, setup, scaled=True), "peak_rss_mb": rss_mb}, stats.ok,
                  sizes, _timings(stats, setup, scaled=False))


def _per_layer(tracer: Tracer, untraced: PassStats, traced: PassStats,
               extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; a layer this workload does not call reads 0."""
    metrics = {}
    for name in STREAM_CALLS:
        metrics[f"{name}.us_per_call"] = tracer.mean_self_us(name)
        metrics[f"{name}.calls"] = tracer.calls(name)
    metrics["ons.load_registry.ms"] = tracer.mean_self_us("ons.load_registry") / 1e3
    metrics["op.self_us"] = tracer.mean_self_us("op")
    metrics["bench.generate_population.s"] = tracer.mean_self_us("bench.generate_population") / 1e6
    for method in METHODS:
        metrics[f"bench.evaluate.{method}.s"] = tracer.mean_self_us(f"bench.evaluate.{method}") / 1e6
        metrics[f"bench.evaluate.{method}.distinct_ratio"] = 0.0
    for name in ("cli.interpreter_floor", "cli.import", "cli.main"):
        metrics[f"{name}_ms"] = tracer.mean_self_us(name) / 1e3
    metrics["trace.overhead_ratio"] = traced.throughput() / untraced.throughput()
    metrics.update(extra)
    return metrics


class Setup:
    """A workload's set-up, run and timed many times before timing starts.

    The first run is not timed: it runs slow by an amount that varies from
    process to process. Then set-up runs in samples of at least
    SETUP_SAMPLE_S, so that a set-up of a fraction of a millisecond is not
    timed against the jitter of the few system calls it makes, until at
    least SETUP_MIN_SAMPLES samples and SETUP_MIN_S have passed. Each
    sample is scaled to the reference speed by the pure-Python probe; the
    figure is the median sample divided by its set-ups. The last state is
    kept.
    """

    def __init__(self, build, tracer):
        self._build = build
        self._tracer = tracer
        self._runs = 0
        start = perf_counter()
        self.state = self._once()
        per_sample = max(1, math.ceil(SETUP_SAMPLE_S / (perf_counter() - start)))
        clock = speed.python_clock()
        self.times: list[float] = []
        self.scaled_times: list[float] = []
        while len(self.times) < SETUP_MIN_SAMPLES or sum(self.times) * per_sample < SETUP_MIN_S:
            start = perf_counter()
            for _ in range(per_sample):
                self.state = self._once()
            self.times.append((perf_counter() - start) / per_sample)
            self.scaled_times.append(self.times[-1] * clock.scale())

    def _once(self):
        op_id = f"setup{self._runs}"
        self._runs += 1
        root = self._tracer.begin("setup", None, op_id)
        state = self._build(self._tracer, root, op_id)
        self._tracer.end(root)
        return state

    def seconds(self, scaled: bool = True) -> float:
        return statistics.median(self.scaled_times if scaled else self.times)


def _registry_file(run: Run, ons_by_pattern: dict[str, int]) -> Path:
    """Write the registry file once, before set-up is timed.

    Writing it waits on a disk shared with other machines, and no change to
    the package can make that faster or slower; set-up times reading it.
    """
    path = run.workdir / "registry.json"
    inputs.write_registry(path, ons_by_pattern)
    return path


def _load_registry(path: Path, tracer, root, op_id):
    return tracer.call("ons.load_registry", root, op_id, load_registry, path)


def _raw_epc(value: int) -> Epc:
    # a bare number is its own serial, as the CLI treats it
    return Epc(scheme=EpcScheme.RAW, declared_bits=bit_length(value), value=value,
               serial_number=value)


def _check_address(label: str, expected: int, address, text: str) -> None:
    expected_text = inputs.canonical_text(expected)
    if address.value != expected or text != expected_text:
        raise BenchmarkFailure(
            f"{label}: derived {text} ({address.value:#x}), expected {expected_text}"
        )


def check_golden_vectors() -> None:
    """The README golden vectors, through the same calls the streams make."""
    ons = parse_ipv6(inputs.GOLDEN_ONS)
    derive_fn = method_function(AddressingMethodId.HYBRID_ONS)
    for text, expected_text in inputs.GOLDEN_VECTORS:
        epc = parse_tag_uri(text) if text.startswith("urn:") else _raw_epc(int(text, 16))
        address = derive_fn(epc, ons)
        _check_address(text, inputs.address_value(expected_text), address, str(address))


# --- stream workloads: input text -> parse -> resolve -> derive -> format ---


def check_malformed(run: Run) -> None:
    """Planted malformed tag URIs must fail to parse with a package error."""
    rng = run.rng("malformed")
    for _ in range(MALFORMED_CHECKS):
        text = inputs.malformed_uri(rng)
        try:
            parse_tag_uri(text)
        except EpcIpv6Error:
            continue
        raise BenchmarkFailure(f"planted malformed input {text!r} was accepted")


def check_stream(chunk: list[inputs.StreamInput], results: list) -> None:
    """Check each result against the generator's own splice.

    Every input is valid: a failure, like a wrong address, fails the run.
    """
    for item, result in zip(chunk, results, strict=True):
        if isinstance(result, Exception):
            raise BenchmarkFailure(f"{item.text!r} failed: {type(result).__name__}: {result}")
        _check_address(item.text, item.expected, *result)


def _run_chunk(chunk, registry, derive_fn, latencies: array) -> list:
    results = []
    now = perf_counter_ns
    for item in chunk:
        text = item.text
        start = now()
        try:
            epc = parse_tag_uri(text) if text.startswith("urn:") else _raw_epc(int(text, 16))
            address = derive_fn(epc, resolve(registry, epc))
            out = str(address)
        except EpcIpv6Error as exc:
            results.append(exc)
            continue
        latencies.append(now() - start)
        results.append((address, out))
    return results


def _run_chunk_traced(chunk, registry, derive_fn, tracer: Tracer, first_op: int) -> list:
    results = []
    call = tracer.call
    for op_id, item in enumerate(chunk, first_op):
        text = item.text
        root = tracer.begin("op", None, op_id)
        try:
            if text.startswith("urn:"):
                epc = call("epc.parse_tag_uri", root, op_id, parse_tag_uri, text)
            else:
                epc = call("epc.Epc", root, op_id, _raw_epc, int(text, 16))
            ons = call("ons.resolve", root, op_id, resolve, registry, epc)
            address = call("addressing.derive", root, op_id, derive_fn, epc, ons)
            out = call("ipv6.format_canonical", root, op_id, str, address)
        except EpcIpv6Error as exc:
            results.append(exc)
        else:
            results.append((address, out))
        finally:
            tracer.end(root)
    return results


def _stream_pass(seconds, chunks, registry, derive_fn, tracer: Tracer | None) -> PassStats:
    """Run and check chunks until ``seconds`` have passed."""
    stats = PassStats()
    clock = speed.python_clock()
    first_op = 0
    deadline = Deadline(seconds)
    for chunk in chunks:
        window = stats.new_window()
        clock.begin()
        start = perf_counter()
        if tracer is None:
            results = _run_chunk(chunk, registry, derive_fn, window.latencies_ns)
        else:
            results = _run_chunk_traced(chunk, registry, derive_fn, tracer, first_op)
        window.timed_s = perf_counter() - start
        window.scaled_s = window.timed_s * clock.scale()
        if tracer is not None:
            tracer.flush()
        check_stream(chunk, results)
        del results
        window.ok = len(chunk)
        first_op += len(chunk)
        if deadline.reached():
            break
    return stats


def _stream(run: Run, make_registry, make_chunk, chunk_size: int) -> Result:
    check_golden_vectors()
    ons_by_pattern = make_registry(run.rng("registry"))
    derive_fn = method_function(AddressingMethodId.HYBRID_ONS)
    sizes = {"chunk": chunk_size, "registry_records": len(ons_by_pattern)}
    path = _registry_file(run, ons_by_pattern)

    def build(tracer, root, op_id):
        first_chunk = make_chunk(run.rng("chunk", 0), ons_by_pattern, chunk_size)
        return first_chunk, _load_registry(path, tracer, root, op_id)

    def chunks(first_chunk):
        yield first_chunk
        for index in count(1):
            yield make_chunk(run.rng("chunk", index), ons_by_pattern, chunk_size)

    if not run.trace:
        setup = Setup(build, NullTracer())
        first_chunk, registry = setup.state
        stats = _stream_pass(run.seconds, chunks(first_chunk), registry, derive_fn, None)
        return _result(stats, setup, _peak_rss_mb(), sizes)
    with Tracer(run.span_log) as tracer:
        first_chunk, registry = Setup(build, tracer).state
        tracer.flush()
        stream = chunks(first_chunk)
        untraced = _stream_pass(run.seconds / 2, stream, registry, derive_fn, None)
        traced = _stream_pass(run.seconds / 2, stream, registry, derive_fn, tracer)
        metrics = _per_layer(tracer, untraced, traced, {})
    return Result(metrics, untraced.ok + traced.ok, sizes)


def stream_small_registry(run: Run) -> Result:
    check_malformed(run)
    return _stream(run, inputs.small_registry, inputs.small_chunk, run.size["small_chunk"])


def stream_large_registry(run: Run) -> Result:
    def make_registry(rng):
        return inputs.large_registry(rng, run.size["registry_records"])

    return _stream(run, make_registry, inputs.large_chunk, run.size["large_chunk"])


# --- bench_compare: generate_population, then evaluate for every method ---


def check_batch(population, outcomes: dict, ons: int, count_: int) -> None:
    """Check each method's report against addresses computed here.

    ``collision_pairs`` is not read: its shape is due to change. The
    distinct count and the shared-prefix histogram pin the same facts.
    """
    if len(population) != count_ or len({epc.value for epc in population}) != count_:
        raise BenchmarkFailure(f"population is not {count_} distinct EPCs")
    for method, outcome in outcomes.items():
        addresses = inputs.reference_addresses(method, population, ons, OR_PAD_SALT)
        histogram = inputs.shared_prefix_histogram(addresses, ons)
        if (outcome.population_size != count_
                or outcome.distinct_addresses != len(set(addresses))
                or outcome.shared_prefix_depth != histogram):
            raise BenchmarkFailure(f"{method}: report disagrees with the reference addresses")


def check_direct64_rejects(run: Run, registry) -> None:
    """``direct64`` must refuse 96-bit EPCs, as ``evaluate`` reports it today."""
    spec = PopulationSpec(scheme=EpcScheme.SGTIN96, count=MALFORMED_CHECKS,
                          seed=run.rng("direct64").getrandbits(63))
    try:
        evaluate(AddressingMethodId.DIRECT64, generate_population(spec), registry)
    except EpcIpv6Error:
        return
    raise BenchmarkFailure("direct64 accepted 96-bit EPCs")


def _timed_piece(window: Window, clock: speed.ScaledClock, fn, *args):
    """Run one piece of a window's work; add its time, as timed and as scaled."""
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    window.timed_s += elapsed
    window.scaled_s += elapsed * clock.scale()
    return result


def _bench_pass(run: Run, seconds, batches, registry, ons: int, tracer) -> tuple[PassStats, dict]:
    """Run and check batches until ``seconds`` have passed.

    A batch runs for seconds, long enough for the machine to change speed
    within it, so each call in it is scaled on its own.
    """
    population_size = run.size["population"]
    stats = PassStats()
    clock = speed.python_clock()
    distinct: dict[str, list[float]] = {m: [] for m in METHODS}
    deadline = Deadline(seconds)
    for batch in batches:
        spec = PopulationSpec(scheme=EpcScheme.SGTIN96, count=population_size,
                              seed=run.rng("population", batch).getrandbits(63))
        window = stats.new_window()
        clock.begin()
        root = tracer.begin("batch", None, batch)
        population = _timed_piece(window, clock, tracer.call, "bench.generate_population",
                                  root, batch, generate_population, spec)
        outcomes = {
            method: _timed_piece(
                window, clock, tracer.call, f"bench.evaluate.{method}", root, batch,
                evaluate, AddressingMethodId(method), population, registry, OR_PAD_SALT,
            )
            for method in METHODS
        }
        tracer.end(root)
        window.latencies_ns.append(
            round(window.timed_s * 1e9 / (len(METHODS) * population_size)))
        tracer.flush()
        check_batch(population, outcomes, ons, population_size)
        for method, outcome in outcomes.items():
            window.ok += population_size
            distinct[method].append(outcome.distinct_addresses / population_size)
        del population, outcomes
        if deadline.reached():
            break
    return stats, distinct


def bench_compare(run: Run) -> Result:
    check_golden_vectors()
    ons = run.rng("registry").getrandbits(128)
    path = _registry_file(run, {"*": ons})

    def build(tracer, root, op_id):
        return _load_registry(path, tracer, root, op_id)

    batches = count()
    sizes = {"population": run.size["population"], "methods": len(METHODS)}
    if not run.trace:
        setup = Setup(build, NullTracer())
        registry = setup.state
        check_direct64_rejects(run, registry)
        stats, _ = _bench_pass(run, run.seconds, batches, registry, ons, NullTracer())
        return _result(stats, setup, _peak_rss_mb(), sizes)
    with Tracer(run.span_log) as tracer:
        registry = Setup(build, tracer).state
        tracer.flush()
        check_direct64_rejects(run, registry)
        untraced, _ = _bench_pass(run, run.seconds / 2, batches, registry, ons, NullTracer())
        traced, distinct = _bench_pass(run, run.seconds / 2, batches, registry, ons, tracer)
        ratios = {
            f"bench.evaluate.{m}.distinct_ratio": statistics.fmean(v) if v else 0.0
            for m, v in distinct.items()
        }
        metrics = _per_layer(tracer, untraced, traced, ratios)
    return Result(metrics, untraced.ok + traced.ok, sizes)


# --- cli_cold_derive: one `python -m epc_ipv6.cli derive` process at a time ---


def _spawn(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def _check_cli(label: str, proc: subprocess.CompletedProcess, expected: int) -> None:
    if proc.returncode != 0:
        raise BenchmarkFailure(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
    if proc.stdout != inputs.canonical_text(expected) + "\n":
        raise BenchmarkFailure(
            f"{label}: printed {proc.stdout!r}, expected {inputs.canonical_text(expected)}"
        )


def _cli_pass(seconds, jobs, registry_path: Path, tracer) -> PassStats:
    """Run and check one CLI process at a time until ``seconds`` have passed.

    Each window of processes is scaled by the empty-interpreter probe.
    """
    stats = PassStats()
    clock = speed.spawn_clock(ROOT)
    deadline = Deadline(seconds)
    while True:
        window = stats.new_window()
        for op_id, (uri, expected) in islice(jobs, CLI_WINDOW_PROCESSES):
            args = ["derive", uri, "--registry", str(registry_path)]
            start = perf_counter_ns()
            if tracer is None:
                proc = _spawn(["-m", "epc_ipv6.cli", *args])
                end = perf_counter_ns()
            else:
                root = tracer.begin("cli.process", None, op_id)
                proc = _spawn([str(HERE / "cli_phases.py"), *args])
                tracer.end(root)
                end = perf_counter_ns()
            _check_cli(uri, proc, expected)
            if tracer is not None:
                phases = json.loads(proc.stderr.splitlines()[-1])
                for phase in ("import", "main"):
                    tracer.add(f"cli.{phase}", *phases[phase], root, op_id)
                tracer.flush()
            window.ok += 1
            window.timed_s += (end - start) / 1e9
            window.latencies_ns.append(end - start)
        window.scaled_s = window.timed_s * clock.scale()
        if deadline.reached():
            return stats


def cli_cold_derive(run: Run) -> Result:
    check_golden_vectors()
    ons_by_pattern = inputs.small_registry(run.rng("registry"))
    path = _registry_file(run, ons_by_pattern)

    def build(tracer, root, op_id):
        _load_registry(path, tracer, root, op_id)
        return path

    def jobs():
        rng = run.rng("uris")
        for op_id in count():
            uri, serial = inputs.sgtin_uri(rng)
            yield op_id, (uri, inputs.splice(ons_by_pattern["sgtin-96"], serial))

    def prepare(tracer) -> Setup:
        setup = Setup(build, tracer)
        # warm-up: leaves compiled bytecode behind, as any installed package has
        text, expected_text = inputs.GOLDEN_VECTORS[0]
        warm = _spawn(["-m", "epc_ipv6.cli", "derive", text, "--ons", inputs.GOLDEN_ONS])
        _check_cli("golden vector via the CLI", warm, inputs.address_value(expected_text))
        return setup

    stream = jobs()
    sizes = {"registry_records": len(ons_by_pattern)}
    if not run.trace:
        setup = prepare(NullTracer())
        stats = _cli_pass(run.seconds, stream, setup.state, None)
        return _result(stats, setup, _peak_rss_mb(resource.RUSAGE_CHILDREN), sizes)
    with Tracer(run.span_log) as tracer:
        path = prepare(tracer).state
        for attempt in range(run.size["floor_runs"]):
            root = tracer.begin("cli.interpreter_floor", None, f"floor{attempt}")
            proc = _spawn(["-c", "pass"])
            tracer.end(root)
            if proc.returncode != 0:
                raise BenchmarkFailure(f"python -c pass exited {proc.returncode}")
        tracer.flush()
        untraced = _cli_pass(run.seconds / 2, stream, path, None)
        traced = _cli_pass(run.seconds / 2, stream, path, tracer)
        metrics = _per_layer(tracer, untraced, traced, {})
    return Result(metrics, untraced.ok + traced.ok, sizes)


WORKLOADS = {
    "stream_small_registry": stream_small_registry,
    "stream_large_registry": stream_large_registry,
    "bench_compare": bench_compare,
    "cli_cold_derive": cli_cold_derive,
}
