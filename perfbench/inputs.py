"""Seeded benchmark inputs, each with the address the package must derive.

The generator chooses every field itself, so it knows each input's payload
and the ONS address the registry must resolve it to. Expected addresses are
computed here with the paper's splice ``(ons >> n << n) | payload``,
independently of the package under test.
"""

from __future__ import annotations

import ipaddress
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

URI_PREFIX = "urn:epc:tag:"

# GS1 partition table: company-prefix digits -> company-prefix bits
COMPANY_BITS = {12: 40, 11: 37, 10: 34, 9: 30, 8: 27, 7: 24, 6: 20}
SGTIN_SERIAL_BITS = 38
SGLN_EXTENSION_BITS = 41
GIAI_REFERENCE_BITS = 82  # shared by the company prefix and the asset reference

IID_BITS = 64
IID_MASK = (1 << IID_BITS) - 1

# the README and acceptance-test golden vectors, both derived under GOLDEN_ONS
GOLDEN_ONS = "3ffe:ffff:4004:1952:0:7251:bc9b:a73f"
GOLDEN_VECTORS = (
    ("0x2225c689d1fb66", "3ffe:ffff:4004:1952:22:25c6:89d1:fb66"),
    ("urn:epc:tag:giai-96:1.0614141.37375918425780", "3ffe:ffff:4004:1952:0:61fe:4257:46b4"),
)

RAW_SHARE = 0.10
UNREGISTERED_SHARE = 0.10


class BenchmarkFailure(Exception):
    """An output check failed, or an input failed that must not."""


def splice(ons: int, payload: int) -> int:
    """The hybrid method: keep the high 128-n ONS bits, put the n-bit payload below."""
    n = payload.bit_length() or 1
    return (ons >> n << n) | payload


def canonical_text(value: int) -> str:
    return ipaddress.IPv6Address(value).compressed


def address_value(text: str) -> int:
    return int(ipaddress.IPv6Address(text))


@dataclass(frozen=True)
class StreamInput:
    text: str
    expected: int


def write_registry(path: Path, ons_by_pattern: dict[str, int]) -> None:
    entries = [
        {"pattern": pattern, "ons_ip": canonical_text(ons)}
        for pattern, ons in ons_by_pattern.items()
    ]
    path.write_text(json.dumps(entries), encoding="utf-8")


def _company(rng: random.Random) -> str:
    digits = rng.randint(6, 12)
    return f"{rng.randrange(10**digits):0{digits}d}"


def _sgtin_fields(rng: random.Random, company: str) -> tuple[int, str, int]:
    item_digits = 13 - len(company)
    item = f"{rng.randrange(10**item_digits):0{item_digits}d}"
    return rng.randrange(8), item, rng.getrandbits(SGTIN_SERIAL_BITS)


def sgtin_uri(rng: random.Random, company: str | None = None) -> tuple[str, int]:
    """A valid sgtin-96 tag URI and its serial number."""
    company = company or _company(rng)
    filter_value, item, serial = _sgtin_fields(rng, company)
    return f"{URI_PREFIX}sgtin-96:{filter_value}.{company}.{item}.{serial}", serial


def _giai_uri(rng: random.Random) -> tuple[str, int]:
    company = _company(rng)
    asset = rng.getrandbits(GIAI_REFERENCE_BITS - COMPANY_BITS[len(company)])
    return f"{URI_PREFIX}giai-96:{rng.randrange(8)}.{company}.{asset}", asset


def _sgln_uri(rng: random.Random) -> tuple[str, int]:
    company = _company(rng)
    location_digits = 12 - len(company)
    # a 12-digit company prefix leaves an empty location reference
    location = (
        f"{rng.randrange(10**location_digits):0{location_digits}d}" if location_digits else ""
    )
    extension = rng.getrandbits(SGLN_EXTENSION_BITS)
    return (
        f"{URI_PREFIX}sgln-96:{rng.randrange(8)}.{company}.{location}.{extension}",
        extension,
    )


def _raw_hex(rng: random.Random) -> tuple[str, int]:
    width = rng.randint(1, IID_BITS)
    value = rng.getrandbits(width) | 1 << (width - 1)
    return f"{value:#x}", value


def malformed_uri(rng: random.Random) -> str:
    """An sgtin-96 URI broken in one way the tag-URI grammar rejects."""
    company = _company(rng)
    f, item, serial = _sgtin_fields(rng, company)
    head = f"{URI_PREFIX}sgtin-96:"
    return rng.choice((
        f"{URI_PREFIX}sgtin-198:{f}.{company}.{item}.{serial}",  # unknown scheme
        f"{head}{f}.{company}.{item}.{serial}.7",  # five fields
        f"{head}{f}.{company}.{item}.{serial}x",  # non-decimal serial
        f"{head}8.{company}.{item}.{serial}",  # filter outside 0..7
        f"{head}{f}.{company}.{item}.0{serial}",  # serial with a leading zero
        f"{head}{f}.{company}.{item}.{serial + (1 << SGTIN_SERIAL_BITS)}",  # serial overflow
        f"{head}{f}.{company}1.{item}.{serial}",  # company and item digits disagree
    ))


def small_registry(rng: random.Random) -> dict[str, int]:
    """Scheme-level records plus the wildcard, which catches raw EPCs."""
    return {p: rng.getrandbits(128) for p in ("sgtin-96", "giai-96", "sgln-96", "*")}


def small_chunk(rng: random.Random, ons: dict[str, int], count: int) -> list[StreamInput]:
    """Mixed sgtin/giai/sgln tag URIs and raw hex EPCs, all valid."""
    makers = (("sgtin-96", sgtin_uri), ("giai-96", _giai_uri), ("sgln-96", _sgln_uri))
    chunk = []
    for _ in range(count):
        if rng.random() < RAW_SHARE:
            pattern, (text, payload) = "*", _raw_hex(rng)
        else:
            pattern, make = rng.choice(makers)
            text, payload = make(rng)
        chunk.append(StreamInput(text, splice(ons[pattern], payload)))
    return chunk


def large_registry(rng: random.Random, records: int) -> dict[str, int]:
    """``records`` sgtin-96 company-prefix records, the scheme record and ``*``."""
    ons = {}
    while len(ons) < records:
        ons[f"sgtin-96:{_company(rng)}"] = rng.getrandbits(128)
    ons["sgtin-96"] = rng.getrandbits(128)
    ons["*"] = rng.getrandbits(128)
    return ons


def large_chunk(rng: random.Random, ons: dict[str, int], count: int) -> list[StreamInput]:
    """sgtin-96 URIs: 10% unregistered, the rest over the registered prefixes.

    The registered prefixes are a stratified draw across the registry's
    records, in shuffled order: every record is equally likely, and every
    chunk holds the same mix of early and late records, so chunks differ in
    their inputs but not in how much registry they make ``resolve`` scan.
    """
    registered = [p.partition(":")[2] for p in ons if ":" in p]
    hits = count - round(count * UNREGISTERED_SHARE)
    companies = [registered[int((k + rng.random()) * len(registered) / hits)] for k in range(hits)]
    companies += [None] * (count - hits)
    rng.shuffle(companies)
    chunk = []
    for company in companies:
        if company is None:
            company = _company(rng)
            while f"sgtin-96:{company}" in ons:
                company = _company(rng)
            pattern = "sgtin-96"
        else:
            pattern = f"sgtin-96:{company}"
        text, serial = sgtin_uri(rng, company)
        chunk.append(StreamInput(text, splice(ons[pattern], serial)))
    return chunk


def _fold64(value: int) -> int:
    folded = 0
    while value:
        folded ^= value & IID_MASK
        value >>= IID_BITS
    return folded


def _one_pad(serial: int) -> int:
    return ((1 << IID_BITS) - (1 << (serial.bit_length() or 1))) | serial


# interface identifier of each 64/64 baseline, from (EPC value, serial, salt)
_BASELINE_IIDS = {
    "xor_pad": lambda value, serial, salt: _fold64(value) ^ salt,
    "or_pad": lambda value, serial, salt: _fold64(value) | salt,
    "one_pad_serial": lambda value, serial, salt: _one_pad(serial),
    "iso_epc": lambda value, serial, salt: value & IID_MASK,
}


def reference_addresses(method: str, epcs, ons: int, salt: int) -> list[int]:
    """Addresses a method must derive for 96-bit EPCs that all resolve to ``ons``."""
    if method == "hybrid_ons":
        # wider than 64 bits: the serial number is the payload
        return [splice(ons, epc.serial_number) for epc in epcs]
    prefix = ons >> IID_BITS << IID_BITS
    iid = _BASELINE_IIDS[method]
    return [prefix | iid(epc.value, epc.serial_number, salt) for epc in epcs]


def shared_prefix_histogram(addresses: list[int], ons: int) -> dict[int, int]:
    return dict(Counter(128 - (address ^ ons).bit_length() for address in addresses))
