import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from epc_ipv6 import (
    AddressingMethodId,
    DerivationPlan,
    Epc,
    EpcScheme,
    Ipv6Address,
    OnsRecord,
    OnsRegistry,
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
    parse_ipv6,
    parse_tag_uri,
    plan,
    resolve,
)
from epc_ipv6.addressing import integer_kernel
from epc_ipv6.epc import SERIAL_BITS, SGTIN96_PARTITIONS, pack_sgtin96
from epc_ipv6.errors import (
    DerivationError,
    EpcTooWideError,
    InvalidOptionError,
    MissingSerialError,
    MissingValueError,
    SerialTooWideError,
)


def raw_epc(value: int, declared_bits: int | None = None) -> Epc:
    bits = declared_bits if declared_bits is not None else max(value.bit_length(), 1)
    return Epc(scheme=EpcScheme.RAW, declared_bits=bits, value=value, serial_number=value)


@st.composite
def sgtin96_values(draw) -> int:
    """A valid SGTIN-96 value: every partition, fields within its digit counts."""
    partition = draw(st.integers(min_value=0, max_value=6))
    _, company_digits, _, item_digits = SGTIN96_PARTITIONS[partition]
    return pack_sgtin96(
        draw(st.integers(min_value=0, max_value=7)),
        partition,
        draw(st.integers(min_value=0, max_value=10**company_digits - 1)),
        draw(st.integers(min_value=0, max_value=10**item_digits - 1)),
        draw(st.integers(min_value=0, max_value=2**38 - 1)),
    )


# every raw EPC below 2**12, built once for the brute-force properties
_RAW_BELOW_2_12 = [raw_epc(v) for v in range(2**12)]


def server_payloads(ons: int, width: int) -> set[int]:
    """Closed form of the hybrid payloads below 2**width whose address is the
    ONS address itself: A mod 2**n for each n <= width with bit n-1 of A set,
    and 0 when bit 0 of A is clear."""
    payloads = {ons % 2**n for n in range(1, width + 1) if ons >> (n - 1) & 1}
    return payloads | ({0} if ons & 1 == 0 else set())


class TestPlan:
    def test_40_bit_epc(self):
        p = plan(raw_epc(1 << 39))
        assert p.source is PayloadSource.FULL_EPC
        assert (p.input_bits, p.prefix_bits) == (40, 88)

    def test_64_bit_epc(self):
        p = plan(raw_epc(1 << 63))
        assert (p.input_bits, p.prefix_bits) == (64, 64)

    def test_90_bit_serial_path(self):
        serial = 1 << 89
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=90, value=serial, serial_number=serial)
        p = plan(epc)
        assert p.source is PayloadSource.SERIAL_NUMBER
        assert (p.input_bits, p.prefix_bits) == (90, 38)

    def test_96_bit_scheme_takes_serial_path(self):
        epc = parse_tag_uri("urn:epc:tag:sgtin-96:3.0614141.812345.6789")
        p = plan(epc)
        assert p.source is PayloadSource.SERIAL_NUMBER
        assert p.input_bits == 13  # 6789 needs 13 bits
        assert p.prefix_bits == 115

    def test_raw_wider_declaration_with_small_value(self):
        # raw EPCs are judged by their actual width, not the declared one
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=96, value=12345)
        p = plan(epc)
        assert p.source is PayloadSource.FULL_EPC
        assert p.input_bits == 14

    def test_raw_branch_boundary_is_64_value_bits(self):
        # a wide raw declaration with a 64-bit value still takes the full value
        p = plan(Epc(scheme=EpcScheme.RAW, declared_bits=96, value=(1 << 64) - 1))
        assert p.source is PayloadSource.FULL_EPC
        assert p.input_bits == 64
        with pytest.raises(MissingSerialError):
            plan(Epc(scheme=EpcScheme.RAW, declared_bits=96, value=1 << 64))

    def test_missing_serial_on_wide_branch(self):
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=96, value=1 << 70)
        with pytest.raises(MissingSerialError):
            plan(epc)

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_budget_sums_to_128(self, value):
        p = plan(raw_epc(value, declared_bits=128))
        assert p.input_bits + p.prefix_bits == 128

    @pytest.mark.parametrize(
        "input_bits, prefix_bits, message",
        [(0, 128, r"^input_bits 0 outside 1\.\.128$"),
         (64, 60, r"^input_bits 64 \+ prefix_bits 60 must equal 128$")],
    )
    def test_plan_checks_its_budget(self, input_bits, prefix_bits, message):
        with pytest.raises(ValueError, match=message):
            DerivationPlan(PayloadSource.FULL_EPC, input_bits, prefix_bits)


class TestDeriveHybrid:
    def test_golden_vector_full_epc(self, ons_address):
        result = derive_hybrid(raw_epc(9611683854154598), ons_address)
        assert str(result) == "3ffe:ffff:4004:1952:22:25c6:89d1:fb66"

    def test_golden_vector_serial_path(self, ons_address):
        serial = 37375918425780
        epc = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=serial)
        result = derive_hybrid(epc, ons_address)
        assert str(result) == "3ffe:ffff:4004:1952:0:61fe:4257:46b4"

    def test_one_bit_payload_zero_prefix(self):
        assert str(derive_hybrid(raw_epc(1), Ipv6Address(0))) == "::1"

    def test_zero_payload(self, ons_address):
        # width-1 payload of value 0: low bit cleared, everything else kept
        result = derive_hybrid(raw_epc(0), ons_address)
        assert result.value == (ons_address.value >> 1) << 1

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2**128 - 1),
        st.data(),
    )
    def test_suffix_identity(self, width, ons_value, data):
        value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        epc = raw_epc(value, declared_bits=width)
        n = plan(epc).input_bits
        result = derive_hybrid(epc, Ipv6Address(ons_value))
        assert result.value % 2**n == value
        assert result.value >> n == ons_value >> n

    def test_fixed_width_injectivity_small_population(self, ons_address):
        width = 10
        values = range(1 << (width - 1), 1 << width)  # all 512 ten-bit values
        addresses = {derive_hybrid(raw_epc(v), ons_address).value for v in values}
        assert len(addresses) == len(values)

    def test_cross_width_collision_closed_form(self):
        # low bits all ones makes cross-width collisions dense
        ons = parse_ipv6("3ffe:ffff:4004:1952:ffff:ffff:ffff:ffff")
        limit = 1 << 10
        derived = [derive_hybrid(raw_epc(v), ons).value for v in range(limit)]
        widths = [max(v.bit_length(), 1) for v in range(limit)]
        for u in range(limit):
            n = widths[u]
            for v in range(u + 1, limit):
                m = widths[v]
                if n == m:
                    collide_predicted = False
                elif n < m:
                    collide_predicted = v == (ons.value >> n) % 2 ** (m - n) * 2**n + u
                else:
                    collide_predicted = u == (ons.value >> m) % 2 ** (n - m) * 2**m + v
                assert (derived[u] == derived[v]) == collide_predicted, (u, v)

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**120),
           st.data())
    def test_injective_exactly_when_low_ons_bits_are_zero(self, width, high, data):
        # one ONS address A and every payload below 2**W: distinct addresses
        # exactly when bits 1..W-1 of A are zero (bit 0 is under every payload)
        low = data.draw(st.integers(min_value=0, max_value=2 ** (width + 2) - 1))
        ons = high << (width + 2) | low
        kernel = integer_kernel(AddressingMethodId.HYBRID_ONS)
        addresses = {kernel(raw_epc(v), ons) for v in range(2**width)}
        condition = (ons >> 1) & (2 ** (width - 1) - 1) == 0
        assert (len(addresses) == 2**width) == condition

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**128 - 1))
    def test_server_payloads_closed_form(self, width, ons):
        # Finding 3: the payloads below 2**W that derive the ONS address A itself
        kernel = integer_kernel(AddressingMethodId.HYBRID_ONS)
        found = {v for v, epc in enumerate(_RAW_BELOW_2_12[: 2**width]) if kernel(epc, ons) == ons}
        assert found == server_payloads(ons, width)

    def test_server_payloads_under_readme_record(self, ons_address):
        # serial 1 under ...:a73f is given the ONS server's own address, and so
        # are 22 more of the 2**38 SGTIN-96 serials
        epc = parse_tag_uri("urn:epc:tag:sgtin-96:3.0614141.812345.1")
        assert derive_hybrid(epc, ons_address) == ons_address
        serials = sorted(server_payloads(ons_address.value, SERIAL_BITS[EpcScheme.SGTIN96]))
        assert len(serials) == 23
        assert serials[:3] == [1, 3, 7] and serials[-1] == 76178761535
        for serial in serials:
            epc = parse_tag_uri(f"urn:epc:tag:sgtin-96:3.0614141.812345.{serial}")
            assert derive_hybrid(epc, ons_address) == ons_address

    def test_shared_serial_under_one_company_collides(self, ons_address):
        # documented behaviour of the method, not a fix: an SGTIN-96 payload is
        # the serial alone, which GS1 makes unique only within its GTIN, so two
        # items of one company record with the same serial share an address
        registry = OnsRegistry([OnsRecord("sgtin-96:0614141", ons_address)])
        derived = {
            str(derive_hybrid(epc, resolve(registry, epc)))
            for epc in map(parse_tag_uri, ("urn:epc:tag:sgtin-96:3.0614141.812345.6789",
                                           "urn:epc:tag:sgtin-96:3.0614141.812346.6789"))
        }
        assert derived == {"3ffe:ffff:4004:1952:0:7251:bc9b:ba85"}

    def test_payload_wider_than_address(self):
        serial = 1 << 129
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=140, value=serial, serial_number=serial)
        with pytest.raises(SerialTooWideError):
            derive_hybrid(epc, Ipv6Address(0))
        with pytest.raises(SerialTooWideError):
            plan(epc)


class TestDeriveDirect64:
    def test_example_vector(self):
        prefix = parse_ipv6("2001:db8::")
        result = derive_direct64(raw_epc(0x1122334455667788, declared_bits=64), prefix)
        assert str(result) == "2001:db8::1122:3344:5566:7788"

    def test_zero(self):
        assert derive_direct64(raw_epc(0, declared_bits=64), Ipv6Address(0)).value == 0

    def test_epc_too_wide(self, ons_address):
        epc = parse_tag_uri("urn:epc:tag:sgtin-96:3.0614141.812345.6789")
        with pytest.raises(EpcTooWideError):
            derive_direct64(epc, ons_address)

    def test_prefix_low_bits_discarded(self, ons_address):
        result = derive_direct64(raw_epc(5, declared_bits=16), ons_address)
        assert result.value == ((ons_address.value >> 64) << 64) | 5


class TestPadMethods:
    def test_xor_zero_salt_equals_direct64(self, ons_address):
        epc = raw_epc(0xDEADBEEF, declared_bits=64)
        assert derive_xor_pad(epc, ons_address, salt=0) == derive_direct64(epc, ons_address)

    def test_xor_fold_cancels_equal_halves(self, ons_address):
        half = 0x0123456789ABCDEF
        epc = raw_epc((half << 64) | half, declared_bits=128)
        result = derive_xor_pad(epc, ons_address, salt=0)
        assert result.value & (2**64 - 1) == 0

    def test_xor_all_ones_salt(self, ons_address):
        result = derive_xor_pad(raw_epc(0, declared_bits=64), ons_address, salt=2**64 - 1)
        assert result.value & (2**64 - 1) == 2**64 - 1

    def test_or_zero_salt_equals_direct64(self, ons_address):
        epc = raw_epc(0xCAFEBABE, declared_bits=64)
        assert derive_or_pad(epc, ons_address, salt=0) == derive_direct64(epc, ons_address)

    def test_or_saturating_salt(self, ons_address):
        result = derive_or_pad(raw_epc(12345, declared_bits=64), ons_address, salt=2**64 - 1)
        assert result.value & (2**64 - 1) == 2**64 - 1

    def test_or_zero_epc_zero_salt(self, ons_address):
        result = derive_or_pad(raw_epc(0, declared_bits=64), ons_address, salt=0)
        assert result.value & (2**64 - 1) == 0

    def test_salt_must_fit_64_bits(self, ons_address):
        with pytest.raises(ValueError):
            derive_xor_pad(raw_epc(1), ons_address, salt=1 << 64)

    @given(st.integers(min_value=0, max_value=2**256 - 1), sgtin96_values(),
           st.one_of(st.just(0), st.integers(min_value=1, max_value=2**64 - 1)))
    def test_fold_matches_the_chunk_loop(self, bits, value, salt):
        # raw EPCs of every width 1..256, each the top w bits of one draw with
        # its top bit set, and one SGTIN-96 value
        population = [raw_epc(bits >> (256 - w) | 1 << (w - 1)) for w in range(1, 257)]
        population.append(Epc(EpcScheme.SGTIN96, 96, value, value & (2**38 - 1)))
        xor_kernel = integer_kernel(AddressingMethodId.XOR_PAD, salt=salt)
        or_kernel = integer_kernel(AddressingMethodId.OR_PAD, salt=salt)
        for epc in population:
            folded, rest = 0, epc.value
            while rest:
                folded ^= rest & (2**64 - 1)
                rest >>= 64
            assert xor_kernel(epc, 0) == folded ^ salt, epc
            assert or_kernel(epc, 0) == folded | salt, epc

    def test_baseline_identity_randomized(self, ons_address):
        rng = random.Random(20240811)
        for _ in range(500):
            epc = raw_epc(rng.getrandbits(64), declared_bits=64)
            d = derive_direct64(epc, ons_address)
            assert derive_xor_pad(epc, ons_address, salt=0) == d
            assert derive_or_pad(epc, ons_address, salt=0) == d


class TestDeriveOnePad:
    def test_oracle_vector_serial_6789(self, ons_address):
        epc = parse_tag_uri("urn:epc:tag:sgtin-96:3.0614141.812345.6789")
        result = derive_one_pad(epc, ons_address)
        assert result.value & (2**64 - 1) == 0xFFFFFFFFFFFFFA85

    def test_full_width_serial_unchanged(self, ons_address):
        serial = 2**64 - 1
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=64, value=serial, serial_number=serial)
        result = derive_one_pad(epc, ons_address)
        assert result.value & (2**64 - 1) == serial

    def test_serial_one_gives_all_ones(self, ons_address):
        result = derive_one_pad(raw_epc(1), ons_address)
        assert result.value & (2**64 - 1) == 2**64 - 1

    def test_missing_serial(self, ons_address):
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=8, value=42)
        with pytest.raises(MissingSerialError):
            derive_one_pad(epc, ons_address)

    def test_serial_too_wide(self, ons_address):
        serial = 1 << 64
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=96, value=serial, serial_number=serial)
        with pytest.raises(SerialTooWideError):
            derive_one_pad(epc, ons_address)


class TestDeriveIsoEpc:
    def test_epc_path_wide_value_keeps_low_64(self, ons_address):
        epc = parse_tag_uri("urn:epc:tag:sgtin-96:3.0614141.812345.6789")
        result = derive_iso_epc(epc, ons_address, standard=TagStandard.EPC)
        assert result.value & (2**64 - 1) == epc.value % 2**64

    def test_epc_path_64_bits_matches_direct64(self, ons_address):
        epc = raw_epc(0x1122334455667788, declared_bits=64)
        assert derive_iso_epc(epc, ons_address) == derive_direct64(epc, ons_address)

    def test_iso_path_zero_serial(self, ons_address):
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=8, value=7, serial_number=0)
        result = derive_iso_epc(epc, ons_address, standard=TagStandard.ISO)
        assert result.value & (2**64 - 1) == 0

    def test_iso_path_uses_serial_not_value(self, ons_address):
        epc = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=5678)
        result = derive_iso_epc(epc, ons_address, standard=TagStandard.ISO)
        assert result.value & (2**64 - 1) == 5678

    def test_iso_path_missing_serial(self, ons_address):
        with pytest.raises(MissingSerialError):
            derive_iso_epc(Epc(EpcScheme.RAW, 8, 5), ons_address, "iso")

    def test_epc_path_missing_value(self, ons_address):
        epc = Epc(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=5678)
        with pytest.raises(MissingValueError):
            derive_iso_epc(epc, ons_address, standard=TagStandard.EPC)


class TestDispatch:
    def test_derive_routes_every_method(self, ons_address):
        epc = raw_epc(0xABCDEF, declared_bits=64)
        assert derive(AddressingMethodId.HYBRID_ONS, epc, ons_address) == derive_hybrid(
            epc, ons_address
        )
        assert derive(AddressingMethodId.DIRECT64, epc, ons_address) == derive_direct64(
            epc, ons_address
        )
        assert derive(AddressingMethodId.XOR_PAD, epc, ons_address, salt=7) == derive_xor_pad(
            epc, ons_address, salt=7
        )
        assert derive(AddressingMethodId.OR_PAD, epc, ons_address, salt=7) == derive_or_pad(
            epc, ons_address, salt=7
        )
        assert derive(AddressingMethodId.ONE_PAD_SERIAL, epc, ons_address) == derive_one_pad(
            epc, ons_address
        )
        assert derive(
            AddressingMethodId.ISO_EPC, epc, ons_address, standard=TagStandard.ISO
        ) == derive_iso_epc(epc, ons_address, standard=TagStandard.ISO)

    def test_method_ids_are_closed(self):
        assert {m.value for m in AddressingMethodId} == {
            "hybrid_ons",
            "direct64",
            "xor_pad",
            "or_pad",
            "one_pad_serial",
            "iso_epc",
        }


class TestBoundOptions:
    @pytest.mark.parametrize("method", [AddressingMethodId.XOR_PAD, AddressingMethodId.OR_PAD])
    @pytest.mark.parametrize("salt", [1 << 64, -1])
    def test_out_of_range_salt_rejected_when_bound(self, method, salt):
        with pytest.raises(InvalidOptionError, match="does not fit 64 bits"):
            method_function(method, salt=salt)

    @pytest.mark.parametrize("method", [AddressingMethodId.XOR_PAD, AddressingMethodId.OR_PAD])
    @pytest.mark.parametrize("salt", [1.5, 1.0, True, "1"], ids=["1.5", "1.0", "True", "text"])
    def test_non_int_salt_rejected_when_bound(self, method, salt):
        with pytest.raises(InvalidOptionError) as info:
            method_function(method, salt=salt)
        assert str(info.value) == f"salt must be an int, got {salt!r}"

    def test_non_int_salt_rejected_before_deriving(self, ons_address):
        with pytest.raises(InvalidOptionError, match="salt must be an int"):
            derive_xor_pad(raw_epc(1), ons_address, salt=1.5)

    def test_non_int_salt_ignored_by_methods_without_one(self, ons_address):
        fn = method_function(AddressingMethodId.ONE_PAD_SERIAL, salt=1.5)
        assert fn(raw_epc(5), ons_address) == derive_one_pad(raw_epc(5), ons_address)

    def test_option_error_is_a_derivation_and_value_error(self):
        assert issubclass(InvalidOptionError, DerivationError)
        assert issubclass(InvalidOptionError, ValueError)

    def test_salt_ignored_by_methods_without_one(self, ons_address):
        fn = method_function(AddressingMethodId.HYBRID_ONS, salt=1 << 64)
        assert fn(raw_epc(5), ons_address) == derive_hybrid(raw_epc(5), ons_address)

    def test_standard_given_as_text_is_coerced(self):
        epc = Epc(scheme=EpcScheme.RAW, declared_bits=24, value=0xABCDEF, serial_number=7)
        prefix = parse_ipv6("8000::")
        assert str(derive_iso_epc(epc, prefix, standard="epc")) == "8000::ab:cdef"
        assert str(derive_iso_epc(epc, prefix, standard="iso")) == "8000::7"
        bound = method_function(AddressingMethodId.ISO_EPC, standard="epc")
        assert str(bound(epc, prefix)) == "8000::ab:cdef"
        assert str(derive(AddressingMethodId.ISO_EPC, epc, prefix, standard="iso")) == "8000::7"

    def test_unknown_standard_rejected(self, ons_address):
        with pytest.raises(InvalidOptionError, match="unknown tag standard 'bogus'"):
            derive_iso_epc(raw_epc(5), ons_address, standard="bogus")
        with pytest.raises(InvalidOptionError):
            method_function(AddressingMethodId.ISO_EPC, standard="bogus")

    @pytest.mark.parametrize("method", ["bogus", "hybrid_ons", TagStandard.EPC])
    def test_unknown_method_rejected(self, method):
        # a method name as text is refused too: bench's report reads method.value
        message = f"method must be AddressingMethodId, got {method!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            method_function(method)


@st.composite
def epcs(draw) -> Epc:
    """EPCs of every scheme: raw up to 256 bits, zero payloads, absent value or serial."""
    scheme = draw(st.sampled_from(list(EpcScheme)))
    if scheme is EpcScheme.RAW:
        bits = draw(st.integers(min_value=1, max_value=256))
        word = st.one_of(st.just(0), st.integers(min_value=0, max_value=2**bits - 1))
        value = draw(word)
        serial = draw(st.one_of(st.none(), st.just(value), word))
        return Epc(scheme=scheme, declared_bits=bits, value=value, serial_number=serial)
    serial = draw(st.integers(min_value=0, max_value=2 ** SERIAL_BITS[scheme] - 1))
    if scheme is EpcScheme.SGTIN96 and draw(st.booleans()):
        value = draw(sgtin96_values())
        return Epc(scheme=scheme, declared_bits=96, value=value,
                   serial_number=value & (2**38 - 1))
    return Epc(scheme=scheme, declared_bits=96, serial_number=serial)


def _reference(method, epc, ons, salt, standard) -> int:
    """Each method written out from its definition, independent of the package."""
    M = AddressingMethodId
    if method is M.HYBRID_ONS:
        value = epc.value
        if epc.declared_bits <= 64 or (
            epc.scheme is EpcScheme.RAW and value is not None and value.bit_length() <= 64
        ):
            if value is None:
                raise MissingValueError
            payload = value
        elif epc.serial_number is None:
            raise MissingSerialError
        else:
            payload = epc.serial_number
        n = max(payload.bit_length(), 1)
        if n > 128:
            raise SerialTooWideError
        return ons - ons % 2**n + payload
    if method is M.ONE_PAD_SERIAL:
        if epc.serial_number is None:
            raise MissingSerialError
        m = max(epc.serial_number.bit_length(), 1)
        if m > 64:
            raise SerialTooWideError
        iid = 2**64 - 2**m + epc.serial_number
    elif method is M.ISO_EPC and standard is TagStandard.ISO:
        if epc.serial_number is None:
            raise MissingSerialError
        iid = epc.serial_number % 2**64
    else:
        if method is M.DIRECT64 and epc.declared_bits > 64:
            raise EpcTooWideError
        if epc.value is None:
            raise MissingValueError
        iid = epc.value % 2**64
        if method in (M.XOR_PAD, M.OR_PAD):
            chunk, rest = 0, epc.value
            while rest:
                chunk ^= rest % 2**64
                rest //= 2**64
            iid = chunk ^ salt if method is M.XOR_PAD else chunk | salt
    return ons - ons % 2**64 + iid


def _address_outcome(call):
    try:
        return "ok", call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class Splices:
    """Not an int, yet the splice's shifts and OR all take it and give it back."""

    def __rshift__(self, other):
        return self

    __lshift__ = __or__ = __rshift__

    def __repr__(self):
        return "Splices()"


def _outcome(call):
    try:
        return "ok", call()
    except DerivationError as exc:
        return type(exc), str(exc)


class TestIntegerKernel:
    @given(
        epcs(),
        st.integers(min_value=0, max_value=2**128 - 1),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=2**64 - 1)),
        st.sampled_from(list(TagStandard)),
    )
    def test_kernel_matches_method_function_and_reference(self, epc, ons, salt, standard):
        for method in AddressingMethodId:
            kernel = integer_kernel(method, salt=salt, standard=standard)
            bound = method_function(method, salt=salt, standard=standard)
            got = _outcome(lambda: kernel(epc, ons))
            assert got == _outcome(lambda: bound(epc, Ipv6Address(ons)).value), method
            reference = _outcome(lambda: _reference(method, epc, ons, salt, standard))
            assert got[0] == reference[0], method
            if got[0] == "ok":
                assert got[1] == reference[1], method

    # an address object whose value no Ipv6Address holds; the derive callable
    # tests the result's class and range inline, so each must still raise the
    # error Ipv6Address(kernel(...)) raises, and True still derives as 1
    @pytest.mark.parametrize("method", list(AddressingMethodId))
    @pytest.mark.parametrize(
        "value, error, text",
        [
            (2**128, ValueError, "address value 0x1"),
            (-1, ValueError, "address value -0x"),
            (1.5, TypeError, "unsupported operand type(s) for >>: 'float' and 'int'"),
            (Splices(), ValueError, "Ipv6Address.value must be int, got Splices()"),
            (True, None, None),
        ],
        ids=["2**128", "-1", "float", "non-int", "True"],
    )
    def test_address_value_outside_ipv6_raises_as_checked_build(self, method, value, error, text):
        epc = raw_epc(0)  # every method applies
        bound = method_function(method)
        got = _address_outcome(lambda: bound(epc, SimpleNamespace(value=value)))
        kernel = integer_kernel(method)
        assert got == _address_outcome(lambda: Ipv6Address(kernel(epc, value)))
        if error is None:
            assert got[0] == "ok"
        else:
            assert got[0] is error and got[1].startswith(text)
            assert error is TypeError or got[1].endswith(("fit 128 bits", "got Splices()"))
