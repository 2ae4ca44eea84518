import copy
import inspect
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from epc_ipv6 import (
    Epc,
    EpcScheme,
    Ipv6Address,
    OnsRecord,
    OnsRegistry,
    Sgtin96Fields,
    encode_sgtin96,
    load_registry,
    parse_ipv6,
    parse_tag_uri,
    resolve,
)
from epc_ipv6.epc import SGTIN96_PARTITIONS
from epc_ipv6.errors import (
    DuplicatePatternError,
    Ipv6TextError,
    NoMatchError,
    RegistryError,
    WrongHeaderError,
)

from conftest import ONS_TEXT

A = "2001:db8::a"
B = "2001:db8::b"


def record(pattern, text):
    return OnsRecord(pattern=pattern, ons_ip=parse_ipv6(text))


@pytest.fixture
def sgtin_epc():
    return parse_tag_uri("urn:epc:tag:sgtin-96:3.0614141.812345.6789")


@pytest.fixture
def raw():
    return Epc(scheme=EpcScheme.RAW, declared_bits=16, value=1234)


class TestLoadRegistry:
    def test_single_wildcard_entry(self, registry_file):
        registry = load_registry(registry_file([{"pattern": "*", "ons_ip": ONS_TEXT}]))
        assert len(registry.records) == 1
        assert str(registry.records[0].ons_ip) == ONS_TEXT

    def test_ons_ip_normalized_on_load(self, registry_file):
        path = registry_file(
            [{"pattern": "*", "ons_ip": "3ffe:ffff:4004:1952:0000:7251:bc9b:a73f"}]
        )
        assert str(load_registry(path).records[0].ons_ip) == ONS_TEXT

    def test_empty_registry(self, registry_file, raw):
        registry = load_registry(registry_file([]))
        assert registry.records == ()
        with pytest.raises(NoMatchError):
            resolve(registry, raw)

    def test_duplicate_pattern(self, registry_file):
        path = registry_file(
            [
                {"pattern": "sgtin-96", "ons_ip": A},
                {"pattern": "sgtin-96", "ons_ip": B},
            ]
        )
        with pytest.raises(DuplicatePatternError):
            load_registry(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(RegistryError):
            load_registry(tmp_path / "missing.json")

    def test_path_with_nul_byte_is_unreadable(self):
        # a config file's registry_path can hold "\u0000"; open() refuses it
        # with ValueError, which is not the file's JSON
        with pytest.raises(RegistryError, match="^cannot read registry a\x00b: embedded null byte$"):
            load_registry("a\x00b")

    @pytest.mark.parametrize(
        "entries",
        [
            [{"pattern": "*"}],
            [{"pattern": "*", "ons_ip": ONS_TEXT, "extra": 1}],
            [{"pattern": "*", "ons_ip": "not-an-address"}],
            [{"pattern": "nope-96", "ons_ip": ONS_TEXT}],
            [{"pattern": "sgtin-96:12x4", "ons_ip": ONS_TEXT}],
            [{"pattern": "sgtin-96:", "ons_ip": ONS_TEXT}],
            [{"pattern": "raw:0614141", "ons_ip": ONS_TEXT}],  # raw has no company
            [{"pattern": "sgtin-96:06141", "ons_ip": ONS_TEXT}],  # 5 digits
            [{"pattern": "sgtin-96:0614141555555", "ons_ip": ONS_TEXT}],  # 13 digits
            [{"pattern": "usdod-96", "ons_ip": ONS_TEXT}],  # scheme no longer known
            ["just a string"],
            {"pattern": "*", "ons_ip": ONS_TEXT},
        ],
    )
    def test_malformed_entries(self, registry_file, entries):
        with pytest.raises(RegistryError):
            load_registry(registry_file(entries))

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{", encoding="utf-8")
        with pytest.raises(RegistryError):
            load_registry(path)

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe[]", b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "nested-past-recursion-limit"],
    )
    def test_undecodable_file(self, tmp_path, content):
        path = tmp_path / "registry.json"
        path.write_bytes(content)
        with pytest.raises(RegistryError):
            load_registry(path)

    @pytest.mark.parametrize(
        "digits, error",
        [(4300, "registry entry 0 must be an object"),
         (4301, "not valid JSON: integer of 4301 characters exceeds 4300")],
        ids=["at-bound", "past-bound"],
    )
    def test_integer_text_bounded_whatever_the_int_limit(
        self, tmp_path, int_limit_off, digits, error
    ):
        path = tmp_path / "registry.json"
        path.write_text("[" + "1" * digits + "]", encoding="utf-8")
        with pytest.raises(RegistryError, match=error):
            load_registry(path)

    def test_peak_close_to_what_the_registry_keeps(self, registry_file):
        # each decoded entry is freed once its record is built, so the load
        # never holds every entry and every record at once
        path = registry_file([
            {"pattern": f"sgtin-96:{company}",
             "ons_ip": f"2001:db8:{company >> 16:x}:{company & 0xFFFF:x}::1"}
            for company in range(1_000_000, 1_010_000)
        ])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            registry = load_registry(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(registry.records) == 10_000
        assert peak - start <= 1.4 * (kept - start)


def reference_load(entries):
    """The per-entry loader of decoded registry JSON that the one-pass
    load_registry replaced: each record through the public constructor, most
    specific first by a stable sort."""
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
    OnsRegistry(records)  # duplicate detection
    return tuple(sorted(records, key=lambda record: record.key.count(None)))


# valid and invalid patterns and ONS texts (one value written two ways)
VALID_PATTERNS = ["*", "raw", "sgtin-96", "giai-96", "sgtin-96:0614141", "giai-96:0614141",
                  "sgtin-96:123456789012"]
ENTRY_PATTERNS = st.sampled_from(
    VALID_PATTERNS
    + ["nope-96", "sgtin-96:12x4", "sgtin-96:", "raw:0614141", "sgtin-96:06141", ""]
)
VALID_TEXTS = [A, B, "2001:0db8:0:0::a", "::1"]
ONS_TEXTS = st.sampled_from(VALID_TEXTS + ["not-an-address", "fe80::1%eth0", "1:2:3", ""])
NOT_STRINGS = st.one_of(st.none(), st.integers(-5, 5), st.lists(st.integers(0, 3), max_size=2))
WELL_FORMED = st.fixed_dictionaries(
    {"pattern": st.sampled_from(VALID_PATTERNS), "ons_ip": st.sampled_from(VALID_TEXTS)}
)
ANY_ENTRY = st.one_of(
    WELL_FORMED,
    st.fixed_dictionaries({"pattern": st.one_of(ENTRY_PATTERNS, NOT_STRINGS),
                           "ons_ip": st.one_of(ONS_TEXTS, NOT_STRINGS)}),
    st.fixed_dictionaries({"pattern": ENTRY_PATTERNS}),
    st.fixed_dictionaries({"pattern": ENTRY_PATTERNS, "ons_ip": ONS_TEXTS,
                           "extra": NOT_STRINGS}),
    NOT_STRINGS,
    ENTRY_PATTERNS,
)
# registries that load, registries with duplicates, and entry lists of any shape
REGISTRY_ENTRIES = st.one_of(
    st.lists(WELL_FORMED, unique_by=lambda entry: entry["pattern"], max_size=len(VALID_PATTERNS)),
    st.lists(WELL_FORMED, max_size=8),
    st.lists(ANY_ENTRY, max_size=8),
)


def outcome(load):
    """The loaded records, or the class and message of the error."""
    try:
        return load()
    except RegistryError as exc:
        return exc.__class__, str(exc)


class TestLoaderEquivalence:
    # no deadline: an example can pay a full collection of what earlier tests
    # left behind (59-89 ms here for about 39,000 objects, while the registry
    # write takes under 4 ms), and a slower machine runs past the 200 ms default
    @settings(deadline=None)
    @given(REGISTRY_ENTRIES)
    def test_matches_reference_loader(self, tmp_path_factory, entries):
        path = tmp_path_factory.getbasetemp() / "equivalence.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        expected = outcome(lambda: reference_load(entries))
        assert outcome(lambda: load_registry(path).records) == expected


class TestResolve:
    def test_company_beats_scheme_and_wildcard(self, registry_file, sgtin_epc):
        path = registry_file(
            [
                {"pattern": "*", "ons_ip": B},
                {"pattern": "sgtin-96", "ons_ip": B},
                {"pattern": "sgtin-96:0614141", "ons_ip": A},
            ]
        )
        assert str(resolve(load_registry(path), sgtin_epc)) == A

    def test_scheme_beats_wildcard(self, registry_file, sgtin_epc):
        path = registry_file(
            [
                {"pattern": "*", "ons_ip": B},
                {"pattern": "sgtin-96", "ons_ip": A},
            ]
        )
        assert str(resolve(load_registry(path), sgtin_epc)) == A

    def test_raw_matches_wildcard(self, registry_file, raw):
        registry = load_registry(registry_file([{"pattern": "*", "ons_ip": B}]))
        assert str(resolve(registry, raw)) == B

    def test_raw_does_not_match_sgtin(self, registry_file, raw):
        registry = load_registry(
            registry_file([{"pattern": "sgtin-96:0614141", "ons_ip": A}])
        )
        with pytest.raises(NoMatchError):
            resolve(registry, raw)

    def test_company_mismatch_falls_through(self, registry_file, sgtin_epc):
        path = registry_file(
            [
                {"pattern": "sgtin-96:9999999", "ons_ip": B},
                {"pattern": "sgtin-96", "ons_ip": A},
            ]
        )
        assert str(resolve(load_registry(path), sgtin_epc)) == A

    def test_company_match_via_stored_uri(self, registry_file):
        giai = parse_tag_uri("urn:epc:tag:giai-96:0.0614141.5678")
        path = registry_file([{"pattern": "giai-96:0614141", "ons_ip": A}])
        assert str(resolve(load_registry(path), giai)) == A

    def test_registry_method_alias(self, registry_file, raw):
        registry = load_registry(registry_file([{"pattern": "*", "ons_ip": B}]))
        assert registry.resolve(raw) == resolve(registry, raw)

    def test_method_and_function_are_one(self):
        # the package's resolve is the registry's method, not a second body
        assert resolve is OnsRegistry.resolve
        assert list(inspect.signature(resolve).parameters) == ["registry", "epc"]

    def test_deterministic(self, registry_file, sgtin_epc):
        registry = load_registry(
            registry_file([{"pattern": "*", "ons_ip": A}])
        )
        results = {resolve(registry, sgtin_epc).value for _ in range(10)}
        assert len(results) == 1

    def test_less_specific_addition_never_shadows(self, registry_file, sgtin_epc):
        specific_only = load_registry(
            registry_file([{"pattern": "sgtin-96:0614141", "ons_ip": A}], "a.json")
        )
        with_fallbacks = load_registry(
            registry_file(
                [
                    {"pattern": "sgtin-96:0614141", "ons_ip": A},
                    {"pattern": "sgtin-96", "ons_ip": B},
                    {"pattern": "*", "ons_ip": B},
                ],
                "b.json",
            )
        )
        assert resolve(specific_only, sgtin_epc) == resolve(with_fallbacks, sgtin_epc)

    @pytest.mark.parametrize(
        "patterns", [["*"], ["sgtin-96"], ["sgtin-96:0614141", "*"]]
    )
    def test_invalid_sgtin_value_fails_whatever_the_registry(self, patterns):
        # header 0x31 once resolved to the wildcard or scheme record, and
        # raised only when a company record made resolve decode the value
        registry = OnsRegistry(records=tuple(record(p, A) for p in patterns))
        with pytest.raises(WrongHeaderError):
            resolve(
                registry,
                Epc(
                    scheme=EpcScheme.SGTIN96, declared_bits=96,
                    value=0x31 << 88, serial_number=0,
                ),
            )


class TestOrdering:
    def test_records_sorted_most_specific_first(self):
        registry = OnsRegistry(
            records=(
                record("*", B),
                record("sgtin-96", A),
                record("sgtin-96:0614141", A),
            )
        )
        assert [r.pattern for r in registry.records] == [
            "sgtin-96:0614141",
            "sgtin-96",
            "*",
        ]

    def test_duplicate_detected_on_construction(self):
        with pytest.raises(DuplicatePatternError):
            OnsRegistry(records=(record("*", A), record("*", B)))

    def test_records_from_a_generator(self, sgtin_epc, raw):
        # a generator can be read once: `records`, the index, pickle and copy
        # must all see every record
        records = (record("*", B), record("sgtin-96", A), record("sgtin-96:0614141", A))
        from_tuple = OnsRegistry(records)
        registry = OnsRegistry(r for r in records)
        assert registry.records == from_tuple.records
        assert repr(registry) == repr(from_tuple)
        for copied in (pickle.loads(pickle.dumps(registry)), copy.copy(registry),
                       copy.deepcopy(registry)):
            assert copied == registry == from_tuple
            for epc in (sgtin_epc, raw):
                assert copied.resolve(epc) == from_tuple.resolve(epc)

    def test_copies_resolve_every_scheme(self, sgtin_epc, raw):
        # resolve's per-scheme fallback table is built by the constructor, so
        # pickle and copy, which call it again, must rebuild the same table
        epcs = [sgtin_epc, parse_tag_uri("urn:epc:tag:giai-96:3.0614141.5678"),
                parse_tag_uri("urn:epc:tag:sgln-96:3.0614141.12345.400"), raw]
        assert [epc.scheme for epc in epcs] == list(EpcScheme)
        # a scheme record, a company record, the wildcard and a raw scheme record
        registry = OnsRegistry((record("*", "2001:db8::1"), record("sgtin-96", "2001:db8::2"),
                                record("giai-96:0614141", "2001:db8::3"),
                                record("raw", "2001:db8::4")))
        expected = [parse_ipv6(f"2001:db8::{n}") for n in (2, 3, 1, 4)]
        # scheme records only: a raw EPC matches nothing
        schemes_only = OnsRegistry(record(s, A) for s in ("sgtin-96", "giai-96", "sgln-96"))

        def copies(original):
            return (original, pickle.loads(pickle.dumps(original)),
                    copy.copy(original), copy.deepcopy(original))

        for copied in copies(registry):
            assert [copied.resolve(epc) for epc in epcs] == expected
        for copied in copies(schemes_only):
            assert [copied.resolve(epc) for epc in epcs[:3]] == [parse_ipv6(A)] * 3
            with pytest.raises(NoMatchError, match="^no registry record matches raw EPC$"):
                copied.resolve(raw)


# company prefixes shared by registry patterns and drawn EPCs; the last is
# never registered, so company lookups also miss
COMPANIES = ("061414", "0614141", "0614142", "123456789012", "9999999")
SCHEMES = ("sgtin-96", "giai-96", "sgln-96")
PATTERNS = (
    ["*", "raw"]
    + list(SCHEMES)
    + [f"{scheme}:{company}" for scheme in SCHEMES for company in COMPANIES[:-1]]
)


@st.composite
def epcs_with_company(draw):
    """An EPC of any parseable scheme or raw, and its true company digits."""
    kind = draw(st.sampled_from(["uri", "sgtin-value", "serial-only", "raw"]))
    company = draw(st.sampled_from(COMPANIES))
    digits = len(company)
    if kind == "raw":
        value = draw(st.integers(0, 2**64 - 1))
        return Epc(scheme=EpcScheme.RAW, declared_bits=64, value=value), None
    if kind == "serial-only":
        serial = draw(st.integers(0, 2**41 - 1))
        scheme = EpcScheme(draw(st.sampled_from(SCHEMES[1:])))
        return Epc(scheme=scheme, declared_bits=96, serial_number=serial), None
    if kind == "sgtin-value":
        partition = 12 - digits
        item_digits = SGTIN96_PARTITIONS[partition][3]
        fields = Sgtin96Fields(
            filter_value=draw(st.integers(0, 7)),
            partition=partition,
            company_prefix=int(company),
            item_reference=draw(st.integers(0, 10**item_digits - 1)),
            serial=draw(st.integers(0, 2**38 - 1)),
        )
        epc = Epc(
            scheme=EpcScheme.SGTIN96, declared_bits=96,
            value=encode_sgtin96(fields), serial_number=fields.serial,
        )
        return epc, company
    scheme = draw(st.sampled_from(SCHEMES))
    serial = draw(st.integers(0, 2**38 - 1))
    if scheme == "giai-96":
        uri_fields = f"1.{company}.{serial}"
    else:
        # item reference (sgtin-96) or location reference (sgln-96) digits
        width = 12 - digits + (scheme == "sgtin-96")
        reference = f"{draw(st.integers(0, 10**width - 1)):0{width}d}" if width else ""
        uri_fields = f"1.{company}.{reference}.{serial}"
    return parse_tag_uri(f"urn:epc:tag:{scheme}:{uri_fields}"), company


def reference_resolve(patterns, epc, company):
    """Scan every pattern; the least (specificity, input index) match wins."""
    matches = []
    for index, pattern in enumerate(patterns):
        scheme_name, _, literal = pattern.partition(":")
        if pattern == "*":
            matches.append((2, index))
        elif scheme_name == epc.scheme.value and not literal:
            matches.append((1, index))
        elif scheme_name == epc.scheme.value and literal == company:
            matches.append((0, index))
    if not matches:
        return None
    return Ipv6Address(min(matches)[1] + 1)


class TestResolveOracle:
    @given(
        st.lists(st.sampled_from(PATTERNS), unique=True, max_size=len(PATTERNS)),
        st.lists(epcs_with_company(), min_size=1, max_size=20),
    )
    def test_agrees_with_brute_force_scan(self, patterns, epcs):
        registry = OnsRegistry(
            records=tuple(
                OnsRecord(pattern=pattern, ons_ip=Ipv6Address(index + 1))
                for index, pattern in enumerate(patterns)
            )
        )
        for epc, company in epcs:
            expected = reference_resolve(patterns, epc, company)
            if expected is None:
                with pytest.raises(NoMatchError):
                    resolve(registry, epc)
            else:
                assert resolve(registry, epc) == expected

    @given(
        st.lists(st.sampled_from(PATTERNS), unique=True, max_size=len(PATTERNS)),
        st.lists(epcs_with_company(), min_size=1, max_size=20),
    )
    def test_lookup_returns_least_record(self, patterns, epcs):
        # the oracle's address is the winning record's input index + 1
        records = [OnsRecord(pattern=pattern, ons_ip=Ipv6Address(index + 1))
                   for index, pattern in enumerate(patterns)]
        registry = OnsRegistry(records)
        for epc, company in epcs:
            expected = reference_resolve(patterns, epc, company)
            if expected is None:
                with pytest.raises(NoMatchError,
                                   match=f"^no registry record matches {epc.scheme.value} EPC$"):
                    registry.lookup(epc)
            else:
                assert registry.lookup(epc) is records[expected.value - 1]
