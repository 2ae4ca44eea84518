"""Hierarchical IPv6 addresses for RFID-tagged objects.

The hybrid derivation keeps the high-order bits of an object's ONS server
address and replaces the low bits with the object's EPC (or, for EPCs
wider than 64 bits, its serial number), giving every object a hierarchical
address under its ONS server; the README's "Collision semantics" says when
these addresses are unique. Five fixed 64/64-split baseline methods are
included for comparison, along with a static ONS registry, a benchmark
harness, and a CLI.
"""

from .addressing import (
    AddressingMethodId,
    DerivationPlan,
    PayloadSource,
    TagStandard,
    derive,
    derive_direct64,
    derive_hybrid,
    derive_iso_epc,
    derive_one_pad,
    derive_or_pad,
    derive_xor_pad,
    method_function,
    plan,
)
from .epc import (
    Epc,
    EpcScheme,
    Sgtin96Fields,
    bit_length,
    company_prefix_of,
    decode_sgtin96,
    encode_sgtin96,
    parse_epc,
    parse_tag_uri,
    render_tag_uri,
)
from .ipv6 import Ipv6Address, format_canonical, parse_ipv6
from .ons import OnsRecord, OnsRegistry, load_registry, resolve

__version__ = "0.1.0"

# the benchmark harness loads on first use (PEP 562), off the CLI's derive path
_BENCH_NAMES = frozenset(
    {"BenchReport", "PopulationSpec", "TimingStats", "evaluate", "generate_population"}
)


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AddressingMethodId",
    "BenchReport",
    "DerivationPlan",
    "Epc",
    "EpcScheme",
    "Ipv6Address",
    "OnsRecord",
    "OnsRegistry",
    "PayloadSource",
    "PopulationSpec",
    "Sgtin96Fields",
    "TagStandard",
    "TimingStats",
    "bit_length",
    "company_prefix_of",
    "decode_sgtin96",
    "derive",
    "derive_direct64",
    "derive_hybrid",
    "derive_iso_epc",
    "derive_one_pad",
    "derive_or_pad",
    "derive_xor_pad",
    "encode_sgtin96",
    "evaluate",
    "format_canonical",
    "generate_population",
    "load_registry",
    "method_function",
    "parse_epc",
    "parse_ipv6",
    "parse_tag_uri",
    "plan",
    "render_tag_uri",
    "resolve",
]
