"""Benchmark harness: seeded EPC populations, collision and timing reports.

Populations are generated from a seed with the stdlib Mersenne Twister, so
equal specs give byte-identical populations on every platform. Reports are
deterministic for equal inputs except for the timing block, which measures
wall-clock derivation cost only (registry resolution happens beforehand).
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .addressing import AddressingMethodId, TagStandard, method_function
from .epc import SERIAL_BITS, SGTIN96_PARTITIONS, Epc, EpcScheme, pack_sgtin96
from .errors import EpcIpv6Error, EvaluationError, UnsatisfiableSpecError
from .ipv6 import Ipv6Address
from .ons import OnsRegistry, resolve

CSV_HEADER = "method,population,distinct,collisions,mean_time,p99_time"


@dataclass(frozen=True)
class PopulationSpec:
    """Recipe for a deterministic population of distinct EPCs."""

    scheme: EpcScheme
    count: int
    seed: int
    serial_width_bits: int | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} does not fit 64 bits")
        if self.serial_width_bits is not None and not 1 <= self.serial_width_bits <= 256:
            raise ValueError(
                f"serial_width_bits {self.serial_width_bits} outside 1..256"
            )

    @property
    def effective_serial_bits(self) -> int:
        scheme_bits = SERIAL_BITS[self.scheme]
        if self.serial_width_bits is None:
            return scheme_bits
        return min(scheme_bits, self.serial_width_bits)


@dataclass(frozen=True)
class TimingStats:
    """Derivation wall-clock statistics in seconds."""

    total: float
    mean: float
    p99: float


@dataclass(frozen=True)
class BenchReport:
    """Per-method results over one population."""

    method: AddressingMethodId
    population_size: int
    distinct_addresses: int
    collision_pairs: tuple[tuple[Epc, Epc, Ipv6Address], ...]
    shared_prefix_depth: dict[int, int]
    timing: TimingStats

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "population_size": self.population_size,
            "distinct_addresses": self.distinct_addresses,
            "collision_pairs": [
                [_epc_label(a), _epc_label(b), str(addr)]
                for a, b, addr in self.collision_pairs
            ],
            "shared_prefix_depth": {
                str(depth): count
                for depth, count in sorted(self.shared_prefix_depth.items())
            },
            "timing": {
                "total": self.timing.total,
                "mean": self.timing.mean,
                "p99": self.timing.p99,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def csv_row(self) -> str:
        return (
            f"{self.method.value},{self.population_size},"
            f"{self.distinct_addresses},{len(self.collision_pairs)},"
            f"{self.timing.mean:.3e},{self.timing.p99:.3e}"
        )


def _epc_label(epc: Epc) -> str:
    if epc.uri is not None:
        return epc.uri
    if epc.value is not None:
        return f"{epc.scheme.value}:{epc.value:#x}"
    return f"{epc.scheme.value}:serial={epc.serial_number}"


def _distinct_serials(rng: random.Random, width: int, count: int) -> list[int]:
    """``count`` distinct integers below 2**width, deterministic in the seed."""
    space = 1 << width
    if count > space:
        raise UnsatisfiableSpecError(
            f"cannot draw {count} distinct values from a {width}-bit space"
        )
    if width <= 48:
        return rng.sample(range(space), count)
    # space dwarfs any realistic count: rejection sampling terminates fast
    seen: set[int] = set()
    out: list[int] = []
    attempts = 0
    limit = 10 * count + 100
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise UnsatisfiableSpecError(
                f"gave up drawing {count} distinct {width}-bit values"
            )
        v = rng.getrandbits(width)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def generate_population(spec: PopulationSpec) -> list[Epc]:
    """Distinct EPCs for the spec; identical lists for identical specs."""
    rng = random.Random(spec.seed)
    width = spec.effective_serial_bits
    serials = _distinct_serials(rng, width, spec.count)

    if spec.scheme is EpcScheme.RAW:
        # a raw code is its own serial number
        return [
            Epc(scheme=EpcScheme.RAW, declared_bits=width, value=v, serial_number=v)
            for v in serials
        ]
    if spec.scheme is EpcScheme.SGTIN96:
        population = []
        for serial in serials:
            # draw order, which the populations depend on: partition, filter,
            # company prefix, item reference
            partition = rng.randrange(7)
            _, company_digits, _, item_digits = SGTIN96_PARTITIONS[partition]
            value = pack_sgtin96(
                rng.randrange(8),
                partition,
                rng.randrange(10**company_digits),
                rng.randrange(10**item_digits),
                serial,
            )
            population.append(
                Epc(
                    scheme=EpcScheme.SGTIN96,
                    declared_bits=96,
                    value=value,
                    serial_number=serial,
                )
            )
        return population
    # serial-only schemes: no binary codec, the serial is all that matters
    return [
        Epc(scheme=spec.scheme, declared_bits=96, serial_number=serial)
        for serial in serials
    ]


def _common_prefix_bits(a: int, b: int) -> int:
    return 128 - (a ^ b).bit_length()


def evaluate(
    method: AddressingMethodId,
    population: list[Epc],
    registry: OnsRegistry,
    salt: int = 0,
    standard: TagStandard = TagStandard.EPC,
) -> BenchReport:
    """Derive one address per EPC and report collisions, hierarchy, timing.

    Every unordered pair of EPCs that derived the same address is listed;
    the shared-prefix histogram counts, per EPC, how many leading bits the
    derived address shares with that EPC's resolved ONS address.
    """
    if not population:
        raise ValueError("population must not be empty")
    ons_addresses = []
    for epc in population:
        try:
            ons_addresses.append(resolve(registry, epc))
        except EpcIpv6Error as exc:
            raise EvaluationError("resolve", epc, str(exc)) from exc

    fn = method_function(method, salt=salt, standard=standard)
    derived: list[Ipv6Address] = []
    durations: list[float] = []
    perf_counter = time.perf_counter
    # collector pauses would land in arbitrary samples and skew the stats
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for epc, ons in zip(population, ons_addresses):
            try:
                start = perf_counter()
                address = fn(epc, ons)
                durations.append(perf_counter() - start)
            except EpcIpv6Error as exc:
                raise EvaluationError("derive", epc, str(exc)) from exc
            derived.append(address)
    finally:
        if gc_was_enabled:
            gc.enable()

    by_address: dict[int, list[int]] = {}
    for i, address in enumerate(derived):
        by_address.setdefault(address.value, []).append(i)
    collision_pairs = tuple(
        (population[i], population[j], derived[i])
        for indices in by_address.values()
        if len(indices) > 1
        for i, j in combinations(indices, 2)
    )

    depth_histogram = Counter(
        _common_prefix_bits(address.value, ons.value)
        for address, ons in zip(derived, ons_addresses)
    )

    total = sum(durations)
    ordered = sorted(durations)
    p99 = ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]
    timing = TimingStats(total=total, mean=total / len(durations), p99=p99)

    return BenchReport(
        method=method,
        population_size=len(population),
        distinct_addresses=len(by_address),
        collision_pairs=collision_pairs,
        shared_prefix_depth=dict(depth_histogram),
        timing=timing,
    )
