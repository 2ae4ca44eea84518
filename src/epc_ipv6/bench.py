"""Benchmark harness: seeded EPC populations, collision and timing reports.

Populations are generated from a seed with the stdlib Mersenne Twister, so
equal specs give byte-identical populations on every platform. An SGTIN-96
field below ``n`` is ``getrandbits(n.bit_length())`` drawn until below ``n``,
as ``randrange(n)`` draws on CPython 3.10-3.13, whose draws the Python docs do
not promise to keep. Distinct serials up to 48 bits are the list
``sample(range(2**width), count)`` returns, drawn inline where it keeps a set
and by ``sample`` where it draws from a pool; wider ones are ``getrandbits``
draws. Both population modes draw each SGTIN-96 class through one routine.
``compare`` resolves a population once and reports each method over it;
``evaluate`` is ``compare`` of one method. Reports are deterministic for equal
inputs except for the timing block, which measures wall-clock derivation cost
only (registry resolution happens beforehand).
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass
from operator import xor

from .addressing import AddressingMethodId, TagStandard, integer_kernel
from ._frozen import field_check
from .epc import (
    _RAW,
    _SGTIN96,
    SERIAL_BITS,
    SGTIN96_PARTITIONS,
    Epc,
    EpcScheme,
    _trusted_epc,
    pack_sgtin96,
)
from .errors import (
    DerivationError,
    EpcIpv6Error,
    EvaluationError,
    UnsatisfiableSpecError,
)
from .ipv6 import Ipv6Address, _trusted_address
from .ons import OnsRegistry, resolve

CSV_HEADER = "method,population,distinct,collisions,mean_time,p99_time"

# derivations per clock pair in compare; each chunk's mean is one timing sample
DERIVE_CHUNK = 1024
# example members listed per collision group in JSON reports
_GROUP_EXAMPLES = 4


@dataclass(frozen=True)
class PopulationSpec:
    """Recipe for a deterministic population of distinct EPCs.

    ``serials_per_class`` K, for SGTIN-96 only, gives the population in
    distinct classes (partition, filter, company prefix, item reference)
    of K distinct serials each, so serials repeat across classes; the last
    class holds the ``count % K`` members left over, when that is not 0.
    Unset, an SGTIN-96 member is one class draw plus a serial distinct
    across the population. Both modes draw each class through one routine.
    """

    scheme: EpcScheme
    count: int
    seed: int
    serial_width_bits: int | None = None
    serials_per_class: int | None = None

    def __post_init__(self):
        self._check(self.scheme, self.count, self.seed, self.serial_width_bits,
                    self.serials_per_class)
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} does not fit 64 bits")
        if self.serial_width_bits is not None and not 1 <= self.serial_width_bits <= 256:
            raise ValueError(
                f"serial_width_bits {self.serial_width_bits} outside 1..256"
            )
        if self.serials_per_class is not None:
            if self.scheme is not EpcScheme.SGTIN96:
                raise ValueError(f"serials_per_class applies to sgtin-96 only, "
                                 f"not {self.scheme.value}")
            if self.serials_per_class < 1:
                raise ValueError(
                    f"serials_per_class must be at least 1, got {self.serials_per_class}"
                )

    @property
    def effective_serial_bits(self) -> int:
        scheme_bits = SERIAL_BITS[self.scheme]
        if self.serial_width_bits is None:
            return scheme_bits
        return min(scheme_bits, self.serial_width_bits)


PopulationSpec._check = field_check(PopulationSpec, PopulationSpec.__match_args__)[0]


@dataclass(frozen=True)
class TimingStats:
    """Derivation wall-clock statistics in seconds.

    ``total`` sums the timed chunks, ``mean`` is ``total`` per EPC, and
    ``p99`` is the 99th percentile of the chunks' per-call means.
    """

    total: float
    mean: float
    p99: float


@dataclass(frozen=True)
class BenchReport:
    """Per-method results over one population."""

    method: AddressingMethodId
    population_size: int
    distinct_addresses: int
    collision_groups: tuple[tuple[Ipv6Address, tuple[Epc, ...]], ...]
    shared_prefix_depth: dict[int, int]
    timing: TimingStats

    @property
    def collision_pair_count(self) -> int:
        """Unordered pairs of EPCs that derived the same address."""
        return sum(len(epcs) * (len(epcs) - 1) // 2 for _, epcs in self.collision_groups)

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "population_size": self.population_size,
            "distinct_addresses": self.distinct_addresses,
            "collision_groups": [
                {
                    "address": str(address),
                    "members": len(epcs),
                    "examples": [epc._label() for epc in epcs[:_GROUP_EXAMPLES]],
                }
                for address, epcs in self.collision_groups
            ],
            "collision_pair_count": self.collision_pair_count,
            "shared_prefix_depth": {
                str(depth): count
                for depth, count in sorted(self.shared_prefix_depth.items())
            },
            "timing": asdict(self.timing),
        }

    def csv_row(self) -> str:
        return (
            f"{self.method.value},{self.population_size},"
            f"{self.distinct_addresses},{self.collision_pair_count},"
            f"{self.timing.mean:.3e},{self.timing.p99:.3e}"
        )


@dataclass(frozen=True)
class NotApplicable:
    """A method whose derivations fail on a population, in place of its report."""

    method: AddressingMethodId
    population_size: int
    failures: dict[str, int]  # failed derivations per error type, over every EPC
    first_epc: Epc
    first_error: str

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "population_size": self.population_size,
            "failures": self.failures,
            "first_failure": {"epc": self.first_epc._label(), "error": self.first_error},
        }

    def csv_row(self) -> str:
        return f"{self.method.value},{self.population_size},n/a,n/a,n/a,n/a"

    def __str__(self) -> str:
        failures = ", ".join(f"{name} x{count}" for name, count in self.failures.items())
        return (f"{self.method.value} not applicable ({failures}); "
                f"first failing EPC {self.first_epc._label()}")


def _distinct_serials(rng: random.Random, width: int, count: int) -> list[int]:
    """``count`` distinct integers below 2**width, deterministic in the seed.

    Up to 48 bits this is the list ``rng.sample(range(2**width), count)``
    returns on CPython 3.10-3.13, from the same draws. Where sample would draw
    from a pool list, it is called; where it keeps a set of drawn indices,
    its draws are made here: ``getrandbits(width + 1)``, again while the draw
    is out of range or already drawn. The list keeps the drawn int itself, not
    a second one read from the range. Wider, a draw is ``getrandbits(width)``,
    again while already drawn.
    """
    space = 1 << width
    if count > space:
        raise UnsatisfiableSpecError(
            f"cannot draw {count} distinct values from a {width}-bit space"
        )
    # sample's own test: a pool list when it is no larger than the set would be
    setsize = 21
    if count > 5:
        setsize += 4 ** math.ceil(math.log(count * 3, 4))
    if space <= setsize:
        return rng.sample(range(space), count)
    getrandbits = rng.getrandbits
    bits = width + 1 if width <= 48 else width
    selected: set[int] = set()
    add = selected.add
    serials: list[int] = []
    append = serials.append
    for _ in range(count):
        while (j := getrandbits(bits)) >= space or j in selected:
            pass
        add(j)
        append(j)
    return serials


# per partition: company prefix and item reference bounds, each with its bits
_FIELD_BOUNDS = [(10**c, (10**c).bit_length(), 10**i, (10**i).bit_length())
                 for _, c, _, i in SGTIN96_PARTITIONS.values()]
_PARTITION_BITS, _FILTER_BITS = (7).bit_length(), (8).bit_length()


def _sgtin96_class(getrandbits, serial: int) -> int:
    """The SGTIN-96 value with ``serial`` in a newly drawn class, 0 giving the
    class itself; the class's fields are drawn in range in the order every
    population depends on: partition, filter, company prefix, item reference."""
    while (partition := getrandbits(_PARTITION_BITS)) >= 7:
        pass
    while (filter_value := getrandbits(_FILTER_BITS)) >= 8:
        pass
    company_bound, company_bits, item_bound, item_bits = _FIELD_BOUNDS[partition]
    while (company := getrandbits(company_bits)) >= company_bound:
        pass
    while (item := getrandbits(item_bits)) >= item_bound:
        pass
    return pack_sgtin96(filter_value, partition, company, item, serial)


def generate_population(spec: PopulationSpec) -> list[Epc]:
    """Distinct EPCs for the spec; identical lists for identical specs.

    Every field is drawn in range, so members are built without the checks
    of the public ``Epc`` constructor.
    """
    rng = random.Random(spec.seed)
    width = spec.effective_serial_bits
    getrandbits = rng.getrandbits
    if spec.serials_per_class is not None:
        count, per_class = spec.count, spec.serials_per_class
        classes: set[int] = set()
        population = []
        for start in range(0, count, per_class):
            while (base := _sgtin96_class(getrandbits, 0)) in classes:
                pass
            classes.add(base)
            for serial in _distinct_serials(rng, width, min(per_class, count - start)):
                population.append(_trusted_epc(_SGTIN96, 96, base | serial, serial, None))
        return population
    serials = _distinct_serials(rng, width, spec.count)
    scheme = spec.scheme
    if scheme is _RAW:
        # a raw code is its own serial number; width is 1..64
        return [_trusted_epc(_RAW, width, v, v, None) for v in serials]
    if scheme is _SGTIN96:
        return [_trusted_epc(_SGTIN96, 96, _sgtin96_class(getrandbits, serial), serial,
                             None) for serial in serials]
    # serial-only schemes: no binary codec, the serial is all that matters;
    # width is at most the scheme's serial field
    return [_trusted_epc(scheme, 96, None, serial, None) for serial in serials]


def evaluate(
    method: AddressingMethodId,
    population: list[Epc],
    registry: OnsRegistry,
    salt: int = 0,
    standard: TagStandard = TagStandard.EPC,
) -> BenchReport:
    """Derive one address per EPC and report collisions, hierarchy, timing.

    This is :func:`compare` of one method. EPCs that derived the same address
    form one collision group; the shared-prefix histogram counts, per EPC, how
    many leading bits the derived address shares with that EPC's resolved ONS
    address. A derivation failure raises :class:`EvaluationError` naming the
    first EPC that failed.
    """
    (row,) = compare([method], population, registry, salt, standard)
    if isinstance(row, NotApplicable):
        raise EvaluationError("derive", row.first_epc, row.first_error)
    return row


def compare(
    methods: list[AddressingMethodId],
    population: list[Epc],
    registry: OnsRegistry,
    salt: int = 0,
    standard: TagStandard = TagStandard.EPC,
) -> list[BenchReport | NotApplicable]:
    """Report each method, in order, over one resolve of the population.

    Every method is bound first, so a bad salt or standard raises
    :class:`InvalidOptionError` before anything is resolved. A resolve
    failure applies to every method, so it raises :class:`EvaluationError`.
    A method whose derivations fail is reported as :class:`NotApplicable`.
    """
    if not population:
        raise ValueError("population must not be empty")
    bound = [(method, integer_kernel(method, salt=salt, standard=standard)) for method in methods]
    ons_values = []
    for epc in population:
        try:
            ons_values.append(resolve(registry, epc).value)
        except EpcIpv6Error as exc:
            raise EvaluationError("resolve", epc, f"{type(exc).__name__}: {exc}") from exc
    return [_measure(method, kernel, population, ons_values) for method, kernel in bound]


def _measure(method: AddressingMethodId, kernel, population: list[Epc],
             ons_values: list[int]) -> BenchReport | NotApplicable:
    """One method's report over resolved ONS values, or every one of its
    failures counted.

    Only the derivations are timed, one clock pair per chunk of
    ``DERIVE_CHUNK``. They run on the method's integer kernel, so an
    ``Ipv6Address`` is built only for each reported collision group.
    """
    values: list[int] = []
    total = 0.0
    chunk_means: list[float] = []
    perf_counter = time.perf_counter
    # collector pauses would land in arbitrary chunks and skew the stats
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for lo in range(0, len(population), DERIVE_CHUNK):
            epcs = population[lo:lo + DERIVE_CHUNK]
            onss = ons_values[lo:lo + DERIVE_CHUNK]
            start = perf_counter()
            chunk = list(map(kernel, epcs, onss))
            elapsed = perf_counter() - start
            total += elapsed
            chunk_means.append(elapsed / len(epcs))
            values += chunk
    except DerivationError:
        # a chunk does not say which call failed: one pass from its start finds
        # it and counts the rest
        failures: Counter[str] = Counter()
        first = None
        for epc, ons in zip(population[lo:], ons_values[lo:]):
            try:
                kernel(epc, ons)
            except DerivationError as error:
                failures[type(error).__name__] += 1
                if first is None:
                    first = (epc, f"{type(error).__name__}: {error}")
        return NotApplicable(method, len(population), dict(sorted(failures.items())), *first)
    finally:
        if gc_was_enabled:
            gc.enable()

    distinct = len(set(values))
    collision_groups = ()
    if distinct < len(values):
        # lists only for the addresses that collide, in order of first appearance
        members: dict[int, list[Epc]] = {
            value: [] for value, n in Counter(values).items() if n > 1
        }
        get = members.get
        for epc, value in zip(population, values):
            if (group := get(value)) is not None:
                group.append(epc)
        collision_groups = tuple(
            (_trusted_address(value), tuple(epcs)) for value, epcs in members.items()
        )

    # an address shares 128 - k leading bits with its ONS address when
    # their XOR is k bits long
    differing_bits = Counter(map(int.bit_length, map(xor, values, ons_values)))

    ordered = sorted(chunk_means)
    p99 = ordered[math.ceil(0.99 * len(ordered)) - 1]
    timing = TimingStats(total=total, mean=total / len(population), p99=p99)

    return BenchReport(
        method=method,
        population_size=len(population),
        distinct_addresses=distinct,
        collision_groups=collision_groups,
        shared_prefix_depth={128 - k: n for k, n in differing_bits.items()},
        timing=timing,
    )


def render(spec: PopulationSpec, rows: list[BenchReport | NotApplicable],
           structured: bool) -> str:
    """The ``bench`` command's output: CSV, or JSON headed by the population spec.

    JSON lists the reports, then a ``not_applicable`` block only when some
    method did not apply; CSV gives such a method a row of ``n/a``.
    """
    if not structured:
        return "\n".join([CSV_HEADER] + [row.csv_row() for row in rows]) + "\n"
    population = asdict(spec)
    if spec.serials_per_class is None:
        del population["serials_per_class"]  # unset, the block keeps its earlier keys only
    payload = {
        "population": population,
        "reports": [row.to_dict() for row in rows if isinstance(row, BenchReport)],
    }
    skipped = [row.to_dict() for row in rows if isinstance(row, NotApplicable)]
    if skipped:
        payload["not_applicable"] = skipped
    return json.dumps(payload, indent=2) + "\n"
