"""Static ONS registry: map EPCs to the IPv6 address of their ONS server.

The registry file is a JSON array of ``{"pattern": ..., "ons_ip": ...}``
objects. A pattern is a scheme name with an optional company-prefix
literal (``"sgtin-96:0614141"``, ``"sgtin-96"``) or the wildcard ``"*"``.
Patterns are parsed once, into dict keys; whatever the registry size,
``lookup`` probes scheme+company, then one per-scheme fallback table built
with the registry (scheme record, else wildcard): the precedence.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable

from ._frozen import Frozen
from .epc import _RAW, Epc, EpcScheme, company_prefix_of
from .errors import DuplicatePatternError, Ipv6TextError, NoMatchError, RegistryError
from .ipv6 import Ipv6Address, parse_ipv6

WILDCARD = "*"
_ENTRY_KEYS = frozenset(("pattern", "ons_ip"))

_SCHEMES = {scheme.value: scheme for scheme in EpcScheme}

# (scheme, company-prefix digits); None matches anything in that position
PatternKey = tuple[EpcScheme | None, str | None]

# Python's default limit on the digits int() reads from text
_INT_TEXT_LIMIT = 4300


def _parse_int(text: str) -> int:
    """``json``'s reader of integer text, refusing more than 4300 characters.

    Without Python's own digit limit (``PYTHONINTMAXSTRDIGITS=0``), ``int()``
    of a long decimal is quadratic; no registry or config value is a number.
    """
    if len(text) > _INT_TEXT_LIMIT:
        raise ValueError(f"integer of {len(text)} characters exceeds {_INT_TEXT_LIMIT}")
    return int(text)


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
    if scheme is _RAW:
        raise RegistryError(f"pattern {pattern!r}: raw EPCs carry no company prefix")
    if not (6 <= len(company) <= 12 and company.isascii() and company.isdigit()):
        raise RegistryError(f"pattern {pattern!r}: company prefix is not 6..12 digits")
    return scheme, company


class OnsRecord(Frozen):
    """One registry entry: a pattern and the ONS address it maps to.

    ``key`` is the pattern parsed once, when the record is built; it takes
    no part in equality or the repr.
    """

    _fields = ("pattern", "ons_ip")
    __slots__ = _fields + ("key",)
    pattern: str
    ons_ip: Ipv6Address
    key: PatternKey

    def __init__(self, pattern: str, ons_ip: Ipv6Address):
        self._check(pattern, ons_ip)
        self._store(pattern, ons_ip, _parse_pattern(pattern))


class OnsRegistry(Frozen):
    """Immutable collection of records, kept most-specific-first."""

    _fields = ("records",)
    __slots__ = _fields + ("_index", "_company_schemes", "_fallback")
    records: tuple[OnsRecord, ...]

    def __init__(self, records: Iterable[OnsRecord]):
        try:
            iterator = iter(records)  # only this TypeError, not one raised while iterating
        except TypeError:
            raise ValueError(f"OnsRegistry.records must be iterable, got {records!r}") from None
        index: dict[PatternKey, OnsRecord] = {}
        buckets = ([], [], [])  # company, scheme, wildcard: a key's None count; input order
        for record in iterator:  # read once: an iterator is empty on a second pass
            if record.__class__ is not OnsRecord:
                raise ValueError(f"OnsRegistry.records must hold OnsRecords, got {record!r}")
            key = record.key
            if key in index:
                raise DuplicatePatternError(f"duplicate pattern {record.pattern!r}")
            index[key] = record
            buckets[key.count(None)].append(record)
        # schemes with company records, then per scheme: scheme record, else wildcard
        wildcard = index.get((None, None))
        self._store((*buckets[0], *buckets[1], *buckets[2]), index, {s for s, c in index if c},
                    {s: index.get((s, None), wildcard) for s in _SCHEMES.values()})

    def lookup(self, epc: Epc) -> OnsRecord:
        """The most specific record matching the EPC: scheme+company, scheme, then ``*``."""
        scheme = epc.scheme
        if scheme in self._company_schemes:
            record = self._index.get((scheme, company_prefix_of(epc)))
            if record is not None:
                return record
        record = self._fallback[scheme]
        if record is None:
            raise NoMatchError(f"no registry record matches {scheme.value} EPC")
        return record


def load_registry(path: str | os.PathLike[str]) -> OnsRegistry:
    """Load and validate a registry file."""
    try:
        file = open(path, encoding="utf-8")  # ValueError: a path holding a NUL byte
    except (OSError, ValueError) as exc:
        raise RegistryError(f"cannot read registry {path}: {exc}") from exc
    # ValueError: not JSON, or an over-long number; a UnicodeDecodeError is caught first
    try:
        with file:
            entries = json.load(file, parse_int=_parse_int)
    except (OSError, UnicodeDecodeError) as exc:
        raise RegistryError(f"cannot read registry {path}: {exc}") from exc
    except ValueError as exc:
        raise RegistryError(f"registry {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise RegistryError(f"registry {path} nests too deeply to load: {exc}") from exc
    if not isinstance(entries, list):
        raise RegistryError(f"registry {path} must be a JSON array of entries")

    records = []
    append, trusted = records.append, OnsRecord._trusted
    for i, entry in enumerate(entries):
        entries[i] = None  # each decoded entry is freed once its record is built
        if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
            raise RegistryError(f"registry entry {i} must be an object with exactly "
                                f"the keys 'pattern' and 'ons_ip'")
        pattern, ons_text = entry["pattern"], entry["ons_ip"]
        if not isinstance(pattern, str) or not isinstance(ons_text, str):
            raise RegistryError(f"registry entry {i} has non-string values")
        try:
            ons_ip = parse_ipv6(ons_text)
        except Ipv6TextError as exc:
            raise RegistryError(f"registry entry {i}: {exc}") from exc
        # JSON gives exact strs and parse_ipv6 an exact Ipv6Address: no class check
        append(trusted(pattern, ons_ip, _parse_pattern(pattern)))
    return OnsRegistry(records)


def resolve(registry: OnsRegistry, epc: Epc) -> Ipv6Address:
    """ONS address of the most specific record matching the EPC."""
    return registry.lookup(epc).ons_ip


OnsRegistry.resolve = resolve
