"""Static ONS registry: map EPCs to the IPv6 address of their ONS server.

The registry file is a JSON array of ``{"pattern": ..., "ons_ip": ...}``
objects. A pattern is a scheme name with an optional company-prefix
literal (``"sgtin-96:0614141"``, ``"sgtin-96"``) or the wildcard ``"*"``.
Patterns are parsed once, into dict keys; whatever the registry size, a
lookup probes scheme+company, then scheme, then wildcard: the precedence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .epc import Epc, EpcScheme, company_prefix_of
from .errors import DuplicatePatternError, Ipv6TextError, NoMatchError, RegistryError
from .ipv6 import Ipv6Address, parse_ipv6

WILDCARD = "*"

_SCHEMES = {scheme.value: scheme for scheme in EpcScheme}

# (scheme, company-prefix digits); None matches anything in that position
PatternKey = tuple[EpcScheme | None, str | None]


def _parse_pattern(pattern: str) -> PatternKey:
    """Validate a pattern and split it into its (scheme, company) key."""
    if pattern == WILDCARD:
        return None, None
    scheme_name, sep, company = pattern.partition(":")
    scheme = _SCHEMES.get(scheme_name)
    if scheme is None:
        raise RegistryError(f"pattern {pattern!r} names unknown scheme {scheme_name!r}")
    if not sep:
        return scheme, None
    if scheme is EpcScheme.RAW:
        raise RegistryError(f"pattern {pattern!r}: raw EPCs carry no company prefix")
    if not (6 <= len(company) <= 12 and company.isascii() and company.isdigit()):
        raise RegistryError(f"pattern {pattern!r}: company prefix is not 6..12 digits")
    return scheme, company


@dataclass(frozen=True)
class OnsRecord:
    """One registry entry: a pattern and the ONS address it maps to."""

    pattern: str
    ons_ip: Ipv6Address
    key: PatternKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", _parse_pattern(self.pattern))


@dataclass(frozen=True)
class OnsRegistry:
    """Immutable collection of records, kept most-specific-first."""

    records: tuple[OnsRecord, ...]

    def __post_init__(self):
        index: dict[PatternKey, Ipv6Address] = {}
        for record in self.records:
            if record.key in index:
                raise DuplicatePatternError(f"duplicate pattern {record.pattern!r}")
            index[record.key] = record.ons_ip
        # fewer None positions is more specific; the sort keeps input order on ties
        records = sorted(self.records, key=lambda record: record.key.count(None))
        object.__setattr__(self, "records", tuple(records))
        object.__setattr__(self, "_index", index)
        # only these schemes make resolve look up a company prefix
        object.__setattr__(self, "_company_schemes", {s for s, c in index if c})

    def resolve(self, epc: Epc) -> Ipv6Address:
        return resolve(self, epc)


def load_registry(path: str | Path) -> OnsRegistry:
    """Load and validate a registry file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RegistryError(f"cannot read registry {path}: {exc}") from exc
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"registry {path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise RegistryError(f"registry {path} must be a JSON array of entries")

    records = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"pattern", "ons_ip"}:
            raise RegistryError(
                f"registry entry {i} must be an object with exactly "
                f"the keys 'pattern' and 'ons_ip'"
            )
        pattern, ons_text = entry["pattern"], entry["ons_ip"]
        if not isinstance(pattern, str) or not isinstance(ons_text, str):
            raise RegistryError(f"registry entry {i} has non-string values")
        try:
            ons_ip = parse_ipv6(ons_text)
        except Ipv6TextError as exc:
            raise RegistryError(f"registry entry {i}: {exc}") from exc
        records.append(OnsRecord(pattern=pattern, ons_ip=ons_ip))
    return OnsRegistry(records=tuple(records))


def resolve(registry: OnsRegistry, epc: Epc) -> Ipv6Address:
    """ONS address of the most specific record matching the EPC."""
    scheme, index = epc.scheme, registry._index
    if scheme in registry._company_schemes:
        ons_ip = index.get((scheme, company_prefix_of(epc)))
        if ons_ip is not None:
            return ons_ip
    ons_ip = index.get((scheme, None))
    if ons_ip is None:
        ons_ip = index.get((None, None))
        if ons_ip is None:
            raise NoMatchError(f"no registry record matches {scheme.value} EPC")
    return ons_ip
