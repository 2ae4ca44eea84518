"""Acceptance suite: one test per release criterion, with its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Budgets are generous wall-clock ceilings, not benchmarks.
"""

import random
import statistics
import time
from itertools import combinations

from epc_ipv6 import (
    AddressingMethodId,
    Epc,
    EpcScheme,
    Ipv6Address,
    PopulationSpec,
    Sgtin96Fields,
    decode_sgtin96,
    derive_direct64,
    derive_hybrid,
    derive_one_pad,
    derive_or_pad,
    derive_xor_pad,
    encode_sgtin96,
    evaluate,
    format_canonical,
    generate_population,
    load_registry,
    parse_ipv6,
    parse_tag_uri,
    plan,
)
from epc_ipv6.epc import SGTIN96_PARTITIONS

from test_ipv6 import groups_of, value_of


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def raw_epc(value: int, bits: int | None = None) -> Epc:
    width = bits if bits is not None else max(value.bit_length(), 1)
    return Epc(scheme=EpcScheme.RAW, declared_bits=width, value=value, serial_number=value)


def test_criterion_1_golden_vectors(ons_address):
    epc = raw_epc(9611683854154598)
    start = time.perf_counter()
    full = derive_hybrid(epc, ons_address)
    elapsed_full = time.perf_counter() - start
    assert format_canonical(full) == "3ffe:ffff:4004:1952:22:25c6:89d1:fb66"
    assert elapsed_full < 1e-3

    serial_epc = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=37375918425780)
    start = time.perf_counter()
    serial = derive_hybrid(serial_epc, ons_address)
    elapsed_serial = time.perf_counter() - start
    assert format_canonical(serial) == "3ffe:ffff:4004:1952:0:61fe:4257:46b4"
    assert elapsed_serial < 1e-3
    _report(1, f"both golden vectors exact ({elapsed_full*1e6:.0f} us, {elapsed_serial*1e6:.0f} us)")


def test_criterion_2_plan_arithmetic():
    assert plan(raw_epc(1 << 39)).prefix_bits == 88
    assert plan(raw_epc(1 << 63)).prefix_bits == 64
    wide = Epc(scheme=EpcScheme.RAW, declared_bits=90, value=1 << 89, serial_number=1 << 89)
    assert plan(wide).prefix_bits == 38
    _report(2, "prefix budgets 88/64/38 for widths 40/64/90")


def test_criterion_3_suffix_identity():
    rng = random.Random(0xC3)
    start = time.perf_counter()
    for _ in range(100_000):
        width = rng.randint(1, 64)
        value = rng.getrandbits(width)
        ons = Ipv6Address(rng.getrandbits(128))
        epc = raw_epc(value, bits=width)
        n = plan(epc).input_bits
        result = derive_hybrid(epc, ons).value
        assert result % 2**n == value
        assert result >> n == ons.value >> n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"10^5 suffix identities hold ({elapsed:.2f} s)")


def test_criterion_4_fixed_width_injectivity(ons_address):
    rng = random.Random(0xC4)
    serials = rng.sample(range(1 << 47, 1 << 48), 100_000)  # distinct, all 48-bit
    start = time.perf_counter()
    addresses = {
        derive_hybrid(
            Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=s), ons_address
        ).value
        for s in serials
    }
    elapsed = time.perf_counter() - start
    assert len(addresses) == 100_000
    assert elapsed < 5.0
    _report(4, f"10^5 distinct 48-bit serials, zero collisions ({elapsed:.2f} s)")


def test_criterion_5_cross_width_collision_oracle(registry_file):
    ons_text = "3ffe:ffff:4004:1952:ffff:ffff:ffff:ffff"  # adversarial low bits
    registry = load_registry(registry_file([{"pattern": "*", "ons_ip": ons_text}]))
    ons = parse_ipv6(ons_text)
    population = [raw_epc(v, bits=12) for v in range(1 << 12)]

    start = time.perf_counter()
    report = evaluate(AddressingMethodId.HYBRID_ONS, population, registry)
    harness_pairs = {
        (a.value, b.value)
        for _, epcs in report.collision_groups
        for a, b in combinations(epcs, 2)
    }

    derived = [derive_hybrid(epc, ons).value for epc in population]
    brute_force = {
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(derived), 2)
        if a == b
    }
    elapsed = time.perf_counter() - start

    assert harness_pairs == brute_force  # population[i].value == i
    assert report.collision_pair_count == len(brute_force)
    assert brute_force, "adversarial ONS must force cross-width collisions"
    assert elapsed < 30.0
    _report(5, f"{len(brute_force)} collision pairs match brute force ({elapsed:.1f} s)")


def test_criterion_6_sgtin96_codec():
    # frozen golden vector from the pre-build bit-layout oracle
    golden_fields = Sgtin96Fields(
        filter_value=3, partition=5, company_prefix=614141,
        item_reference=812345, serial=6789,
    )
    assert encode_sgtin96(golden_fields) == 0x3074257BF7194E4000001A85

    rng = random.Random(0xC6)
    for _ in range(10_000):
        partition = rng.randrange(7)
        _, company_digits, _, item_digits = SGTIN96_PARTITIONS[partition]
        fields = Sgtin96Fields(
            filter_value=rng.randrange(8),
            partition=partition,
            company_prefix=rng.randrange(10**company_digits),
            item_reference=rng.randrange(10**item_digits),
            serial=rng.getrandbits(38),
        )
        assert decode_sgtin96(encode_sgtin96(fields)) == fields
    _report(6, "golden vector exact; 10^4 encode/decode round-trips")


def test_criterion_7_baseline_identities(ons_address):
    rng = random.Random(0xC7)
    for _ in range(10_000):
        epc = raw_epc(rng.getrandbits(64), bits=64)
        direct = derive_direct64(epc, ons_address)
        assert derive_xor_pad(epc, ons_address, salt=0) == direct
        assert derive_or_pad(epc, ons_address, salt=0) == direct

    one_pad = derive_one_pad(
        parse_tag_uri("urn:epc:tag:sgtin-96:3.0614141.812345.6789"), ons_address
    )
    assert one_pad.value & (2**64 - 1) == 0xFFFFFFFFFFFFFA85
    _report(7, "xor/or/direct64 agree at salt 0; one-pad vector exact")


def test_criterion_8_ipv6_text_round_trip():
    rng = random.Random(0xC8)
    for _ in range(100_000):
        value = rng.getrandbits(128)
        text = format_canonical(Ipv6Address(value))
        assert parse_ipv6(text).value == value
        assert value_of(text) == value  # independent reconstruction + canonical check
    for value in (0, 1, 2**128 - 1, 0xFFFF, 1 << 64):
        groups_of(format_canonical(Ipv6Address(value)))
    _report(8, "10^5 parse/format round-trips, canonical rules validated independently")


def test_criterion_9_bench_sanity(wildcard_registry_path):
    registry = load_registry(wildcard_registry_path)
    population = generate_population(
        PopulationSpec(scheme=EpcScheme.RAW, count=100_000, seed=0xC9, serial_width_bits=48)
    )
    # host speed drifts over seconds: interleave the methods round by round,
    # alternate which runs first, and compare medians of the per-round means
    rounds = 7
    methods = [AddressingMethodId.HYBRID_ONS, AddressingMethodId.DIRECT64]
    means = {method: [] for method in methods}
    for round_ in range(rounds):
        for method in methods if round_ % 2 == 0 else methods[::-1]:
            means[method].append(evaluate(method, population, registry).timing.mean)
    hybrid = statistics.median(means[AddressingMethodId.HYBRID_ONS])
    direct = statistics.median(means[AddressingMethodId.DIRECT64])
    ratio = hybrid / direct
    assert hybrid <= 2 * direct, (
        f"hybrid median of round means {hybrid:.3e} s vs direct64 {direct:.3e} s"
    )
    _report(
        9,
        f"hybrid median round mean {hybrid*1e9:.0f} ns is {ratio:.2f}x direct64 "
        f"({direct*1e9:.0f} ns) over {rounds} interleaved rounds "
        f"on 10^5 population",
    )
