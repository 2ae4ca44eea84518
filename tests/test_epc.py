import re
import string

import pytest
from hypothesis import given, strategies as st

from epc_ipv6 import (
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
from epc_ipv6.epc import SGTIN96_HEADER, SGTIN96_PARTITIONS, pack_sgtin96
from epc_ipv6.errors import (
    EpcIpv6Error,
    FieldRangeError,
    InvalidPartitionError,
    TagUriError,
    UnknownSchemeError,
    WrongHeaderError,
)

# frozen by the pre-build bit-layout oracle
GOLDEN_SGTIN96 = 0x3074257BF7194E4000001A85
GOLDEN_URI = "urn:epc:tag:sgtin-96:3.0614141.812345.6789"


def non_ascii_digit_fields():
    """GOLDEN_URI with the first digit of one field made a decimal digit outside
    ASCII (Arabic-Indic one, superscript two, fullwidth zero), for each field:
    (the URI, the changed field)."""
    fields = GOLDEN_URI.rpartition(":")[2].split(".")
    for digit in ("\u0661", "\u00b2", "\uff10"):
        for i, field in enumerate(fields):
            changed = [*fields[:i], digit + field[1:], *fields[i + 1:]]
            yield "urn:epc:tag:sgtin-96:" + ".".join(changed), changed[i]


NON_ASCII_DIGIT_FIELDS = list(non_ascii_digit_fields())


class StrSubclass(str):
    """Text that is a str but not exactly one: no tag URI for the parser."""


@st.composite
def sgtin_fields(draw):
    partition = draw(st.integers(0, 6))
    _, company_digits, _, item_digits = SGTIN96_PARTITIONS[partition]
    return Sgtin96Fields(
        filter_value=draw(st.integers(0, 7)),
        partition=partition,
        company_prefix=draw(st.integers(0, 10**company_digits - 1)),
        item_reference=draw(st.integers(0, 10**item_digits - 1)),
        serial=draw(st.integers(0, 2**38 - 1)),
    )


@st.composite
def sgtin96_values(draw):
    """Any 96-bit value with the SGTIN-96 header and a partition in 0..6.

    Company prefix and item reference are drawn within their digit counts
    or past them, up to their bit widths, with equal odds.
    """

    def field(digits, bits):
        return draw(st.integers(0, 10**digits - 1) | st.integers(10**digits, 2**bits - 1))

    partition = draw(st.integers(0, 6))
    company_bits, company_digits, item_bits, item_digits = SGTIN96_PARTITIONS[partition]
    value = (SGTIN96_HEADER << 3 | draw(st.integers(0, 7))) << 3 | partition
    value = value << company_bits | field(company_digits, company_bits)
    value = value << item_bits | field(item_digits, item_bits)
    return value << 38 | draw(st.integers(0, 2**38 - 1))


class TestBitLength:
    def test_golden_epc_is_54_bits(self):
        # 2^53 <= 9611683854154598 < 2^54
        assert 2**53 <= 9611683854154598 < 2**54
        assert bit_length(9611683854154598) == 54

    def test_one(self):
        assert bit_length(1) == 1

    def test_zero_convention(self):
        assert bit_length(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_length(-1)

    @given(st.integers(min_value=1, max_value=2**200))
    def test_bracketing(self, value):
        n = bit_length(value)
        assert 2 ** (n - 1) <= value < 2**n


class TestSgtin96Codec:
    def test_golden_vector(self):
        fields = Sgtin96Fields(
            filter_value=3,
            partition=5,
            company_prefix=614141,
            item_reference=812345,
            serial=6789,
        )
        assert encode_sgtin96(fields) == GOLDEN_SGTIN96

    def test_all_zero_fields(self):
        fields = Sgtin96Fields(0, 0, 0, 0, 0)
        assert encode_sgtin96(fields) == 0x30 << 88

    def test_saturated_fields(self):
        # oracle-frozen: partition 6 is binary 110, so the tail is not all ones
        fields = Sgtin96Fields(7, 6, 2**20 - 1, 2**24 - 1, 2**38 - 1)
        assert encode_sgtin96(fields) == 0x30FBFFFFFFFFFFFFFFFFFFFF

    def test_header_always_0x30(self):
        for fields in (
            Sgtin96Fields(0, 0, 0, 0, 0),
            Sgtin96Fields(7, 6, 999999, 9999999, 2**38 - 1),
            Sgtin96Fields(3, 5, 614141, 812345, 6789),
        ):
            assert encode_sgtin96(fields) >> 88 == 0x30

    def test_decode_golden(self):
        fields = decode_sgtin96(GOLDEN_SGTIN96)
        assert fields == Sgtin96Fields(3, 5, 614141, 812345, 6789)

    @given(sgtin_fields())
    def test_round_trip(self, fields):
        assert decode_sgtin96(encode_sgtin96(fields)) == fields

    @given(sgtin_fields())
    def test_packer_agrees_with_encoder(self, fields):
        packed = pack_sgtin96(
            fields.filter_value,
            fields.partition,
            fields.company_prefix,
            fields.item_reference,
            fields.serial,
        )
        assert packed == encode_sgtin96(fields)

    def test_wrong_header(self):
        with pytest.raises(WrongHeaderError):
            decode_sgtin96(0x31 << 88)

    def test_value_past_96_bits(self):
        with pytest.raises(FieldRangeError, match=f"^value {1 << 96:#x} does not fit 96 bits$"):
            decode_sgtin96(1 << 96)

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartitionError):
            decode_sgtin96((0x30 << 88) | (7 << 82))

    @given(sgtin96_values())
    def test_decode_rejects_or_renders_reparseable(self, value):
        try:
            fields = decode_sgtin96(value)
        except FieldRangeError:
            return
        epc = Epc(
            scheme=EpcScheme.SGTIN96, declared_bits=96, value=value,
            serial_number=fields.serial,
        )
        uri = render_tag_uri(epc)
        assert parse_tag_uri(uri).value == value
        assert company_prefix_of(epc) == uri.rpartition(":")[2].split(".")[1]

    def test_decode_rejects_fields_past_digit_counts(self):
        # 10**6 fits partition 6's 20 company bits but not its 6 digits
        with pytest.raises(FieldRangeError):
            decode_sgtin96(encode_sgtin96(Sgtin96Fields(1, 6, 10**6, 0, 5)))
        # 10 fits partition 0's 4 item bits but not its 1 digit
        with pytest.raises(FieldRangeError):
            decode_sgtin96(encode_sgtin96(Sgtin96Fields(1, 0, 0, 10, 5)))

    def test_field_overflow(self):
        with pytest.raises(FieldRangeError):
            Sgtin96Fields(0, 6, 2**20, 0, 0)
        with pytest.raises(FieldRangeError):
            Sgtin96Fields(0, 0, 0, 16, 0)
        with pytest.raises(FieldRangeError):
            Sgtin96Fields(0, 0, 0, 0, 2**38)
        with pytest.raises(FieldRangeError):
            Sgtin96Fields(8, 0, 0, 0, 0)
        with pytest.raises(InvalidPartitionError):
            Sgtin96Fields(0, 7, 0, 0, 0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 6, 2**20, 0, 0), f"company prefix {2**20} overflows 20 bits"),
            ((0, 0, 0, 16, 0), "item reference 16 overflows 4 bits"),
            ((0, 0, 0, 0, 2**38), f"serial {2**38} overflows 38 bits"),
            ((0, 5, -1, 0, 0), "company prefix -1 overflows 24 bits"),
        ],
        ids=["company", "item", "serial", "negative-company"],
    )
    def test_field_overflow_messages(self, fields, message):
        with pytest.raises(FieldRangeError) as info:
            Sgtin96Fields(*fields)
        assert (type(info.value), str(info.value)) == (FieldRangeError, message)


class TestParseTagUri:
    def test_sgtin96_example(self):
        epc = parse_tag_uri(GOLDEN_URI)
        assert epc.scheme is EpcScheme.SGTIN96
        assert epc.declared_bits == 96
        assert epc.serial_number == 6789
        assert epc.value == GOLDEN_SGTIN96
        assert epc.uri == GOLDEN_URI

    def test_all_zero_fields(self):
        epc = parse_tag_uri("urn:epc:tag:sgtin-96:0.000000000000.0.0")
        assert epc.serial_number == 0
        assert epc.value == 0x30 << 88

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            parse_tag_uri("urn:epc:tag:xyz-96:1.2.3")

    def test_usdod_not_parseable(self):
        with pytest.raises(UnknownSchemeError):
            parse_tag_uri("urn:epc:tag:usdod-96:1.123456.789")

    def test_giai96(self):
        epc = parse_tag_uri("urn:epc:tag:giai-96:0.0614141.5678")
        assert epc.scheme is EpcScheme.GIAI96
        assert epc.value is None
        assert epc.serial_number == 5678

    def test_sgln96(self):
        epc = parse_tag_uri("urn:epc:tag:sgln-96:0.0614141.12345.400")
        assert epc.scheme is EpcScheme.SGLN96
        assert epc.value is None
        assert epc.serial_number == 400

    def test_sgln96_partition0_empty_location(self):
        epc = parse_tag_uri("urn:epc:tag:sgln-96:0.123456789012..7")
        assert epc.serial_number == 7

    @pytest.mark.parametrize(
        "uri",
        [
            "urn:epc:id:sgtin:0614141.812345.6789",  # not a tag URI
            "urn:epc:tag:sgtin-96",                   # no fields
            "urn:epc:tag:sgtin-96:3.0614141.812345",  # missing serial
            "urn:epc:tag:sgtin-96:3.0614141.812345.6789.1",
            "urn:epc:tag:sgtin-96:3.0614141.8123x5.6789",
            GOLDEN_URI + "\n",                            # a line end after the serial
            "urn:epc:tag:sgtin-96:3.0614141:812345.6789",  # a colon among the fields
            "urn:epc:tag:SGTIN-96:3.0614141.812345.6789",  # an upper-case scheme
        ],
    )
    def test_malformed(self, uri):
        with pytest.raises(TagUriError):
            parse_tag_uri(uri)

    @pytest.mark.parametrize(
        "text, kind",
        [(5, "int"), (GOLDEN_URI.encode(), "bytes"), (None, "NoneType"),
         (StrSubclass(GOLDEN_URI), "StrSubclass")],
        ids=["int", "bytes", "None", "str-subclass"],
    )
    def test_non_string(self, text, kind):
        with pytest.raises(TagUriError) as info:
            parse_tag_uri(text)
        assert str(info.value) == f"expected tag URI text, got {kind}"

    @pytest.mark.parametrize(
        "uri",
        [
            "urn:epc:tag:sgtin-96:8.0614141.812345.6789",   # filter > 7
            "urn:epc:tag:sgtin-96:3.06141.812345.6789",     # company too short
            "urn:epc:tag:sgtin-96:3.0614141.81234.6789",    # item digits mismatch
            "urn:epc:tag:sgtin-96:3.0614141.812345.274877906944",  # serial 2^38
            "urn:epc:tag:sgtin-96:3.0614141.812345.06789",  # serial leading zero
            "urn:epc:tag:sgtin-96:3.0614141.812345.00",     # serial of zeros
            "urn:epc:tag:sgln-96:3.0614141.12345.2199023255552",  # serial 2^41
        ],
    )
    def test_field_range(self, uri):
        with pytest.raises(FieldRangeError):
            parse_tag_uri(uri)

    @pytest.mark.parametrize(
        "scheme, rest, short_rest, needed",
        [
            ("sgtin-96", ".812345.6789", ".812345", 4),
            ("giai-96", ".5", ".5.6", 3),
            ("sgln-96", ".12345.400", ".12345", 4),
        ],
    )
    def test_shared_shape_errors_per_scheme(self, scheme, rest, short_rest, needed):
        # field count, filter and company-prefix length read alike in every scheme
        def error_of(fields_text):
            with pytest.raises(EpcIpv6Error) as info:
                parse_tag_uri(f"urn:epc:tag:{scheme}:{fields_text}")
            return type(info.value), str(info.value)

        wrong = f"urn:epc:tag:{scheme}:3.0614141{short_rest}"
        assert error_of(f"3.0614141{short_rest}") == (
            TagUriError,
            f"{scheme} URI needs {needed} fields, got {len(short_rest.split('.')) + 1}: "
            f"{wrong!r}",
        )
        assert error_of(f"8.0614141{rest}") == (
            FieldRangeError, "filter value 8 outside 0..7"
        )
        assert error_of(f"33.0614141{rest}") == (
            FieldRangeError, "filter field '33' must be a single digit"
        )
        for company in ("06141", "0614141555555"):
            assert error_of(f"3.{company}{rest}") == (
                FieldRangeError, f"company prefix {company!r} must be 6..12 digits"
            )

    @pytest.mark.parametrize(
        "uri, message",
        [
            ("urn:epc:tag:sgtin-96:3.0614141.81234.6789",
             "item reference '81234' must be 6 digits for a 7-digit company prefix"),
            ("urn:epc:tag:sgln-96:3.0614141.1234.400",
             "location reference '1234' must be 5 digits for a 7-digit company prefix"),
            ("urn:epc:tag:sgln-96:0.123456789012.5.7",
             "location reference '5' must be 0 digits for a 12-digit company prefix"),
            # the middle field shares 13 digits with the company prefix in SGTIN-96
            # and 12 in SGLN-96, which leaves no location digit at 12 company digits
            *(
                (f"urn:epc:tag:{scheme}:3.{'0614141555555'[:company]}.{'1' * width}.400",
                 f"{name} {'1' * width!r} must be {shared - company} digits "
                 f"for a {company}-digit company prefix")
                for scheme, name, shared in (("sgtin-96", "item reference", 13),
                                             ("sgln-96", "location reference", 12))
                for company in range(6, 13)
                for width in (shared - company - 1, shared - company + 1)
                if width >= 0
            ),
        ],
    )
    def test_reference_width_error(self, uri, message):
        with pytest.raises(FieldRangeError) as info:
            parse_tag_uri(uri)
        assert (type(info.value), str(info.value)) == (FieldRangeError, message)

    @pytest.mark.parametrize(
        "uri, serial",
        [
            ("urn:epc:tag:sgtin-96:3.0614141.812345.0", 0),
            ("urn:epc:tag:giai-96:3.0614141.0", 0),
            ("urn:epc:tag:sgln-96:3.0614141.12345.0", 0),
            ("urn:epc:tag:sgtin-96:3.0614141.812345.274877906943", 2**38 - 1),
            ("urn:epc:tag:sgln-96:3.0614141.12345.2199023255551", 2**41 - 1),
        ],
    )
    def test_serial_edges_accepted(self, uri, serial):
        epc = parse_tag_uri(uri)
        assert (epc.serial_number, epc.uri) == (serial, uri)

    def test_giai_serial_width_depends_on_partition(self):
        # the asset field fills the 82 bits the company prefix leaves:
        # 6-digit company -> 62-bit asset field, 12-digit -> 42 bits
        company_bits = {6: 20, 7: 24, 8: 27, 9: 30, 10: 34, 11: 37, 12: 40}
        for company, bits in company_bits.items():
            prefix = f"urn:epc:tag:giai-96:0.{'061414155555'[:company]}."
            bound = 2**(82 - bits)
            assert parse_tag_uri(f"{prefix}{bound - 1}").serial_number == bound - 1
            with pytest.raises(FieldRangeError) as info:
                parse_tag_uri(f"{prefix}{bound}")
            assert str(info.value) == f"serial {bound} overflows {82 - bits} bits"

    @pytest.mark.parametrize(
        "uri, error, message",
        [
            # prefix, field section, scheme, non-decimal field, field count, filter
            # width, filter value, company-prefix length, middle field, serial:
            # each URI has the fault named first and one named after it
            ("urn:epc:id:xyz-96:1.x", TagUriError,
             "tag URI must start with 'urn:epc:tag:': 'urn:epc:id:xyz-96:1.x'"),
            ("urn:epc:tag:xyz-96", TagUriError,
             "tag URI has no field section: 'urn:epc:tag:xyz-96'"),
            ("urn:epc:tag:xyz-96:1.x", UnknownSchemeError, "unknown tag scheme 'xyz-96'"),
            ("urn:epc:tag:giai-96:3.x.5.6", TagUriError,
             "non-decimal field 'x' in 'urn:epc:tag:giai-96:3.x.5.6'"),
            ("urn:epc:tag:sgtin-96:8.0614141.812345", TagUriError,
             "sgtin-96 URI needs 4 fields, got 3: 'urn:epc:tag:sgtin-96:8.0614141.812345'"),
            ("urn:epc:tag:sgtin-96:33.0614141.812345.6789", FieldRangeError,
             "filter field '33' must be a single digit"),
            ("urn:epc:tag:sgln-96:.0614141.1234.400", FieldRangeError,
             "filter field '' must be a single digit"),
            ("urn:epc:tag:giai-96:8.06141.5", FieldRangeError, "filter value 8 outside 0..7"),
            ("urn:epc:tag:sgtin-96:8.0614141.81234.6789", FieldRangeError,
             "filter value 8 outside 0..7"),
            ("urn:epc:tag:sgtin-96:3.0614141555555.812345.274877906944", FieldRangeError,
             "company prefix '0614141555555' must be 6..12 digits"),
            ("urn:epc:tag:giai-96:3.06141.06789", FieldRangeError,
             "company prefix '06141' must be 6..12 digits"),
            ("urn:epc:tag:sgtin-96:3.0614141.81234.06789", FieldRangeError,
             "item reference '81234' must be 6 digits for a 7-digit company prefix"),
            ("urn:epc:tag:sgln-96:3.0614141.1234.", FieldRangeError,
             "location reference '1234' must be 5 digits for a 7-digit company prefix"),
            # text a pattern could take by mistake: a line end after the serial, a
            # colon in the field section, an upper-case scheme, non-ASCII digits
            (GOLDEN_URI + "\n", TagUriError,
             f"non-decimal field '6789\\n' in '{GOLDEN_URI}\\n'"),
            ("urn:epc:tag:sgtin-96:3.0614141:812345.6789", TagUriError,
             "non-decimal field '0614141:812345' in "
             "'urn:epc:tag:sgtin-96:3.0614141:812345.6789'"),
            ("urn:epc:tag:SGTIN-96:3.0614141.812345.6789", UnknownSchemeError,
             "unknown tag scheme 'SGTIN-96'"),
            *((uri, TagUriError, f"non-decimal field {field!r} in {uri!r}")
              for uri, field in NON_ASCII_DIGIT_FIELDS),
            ("urn:epc:tag:sgln-96:3.0614141.12345.2199023255552", FieldRangeError,
             "serial 2199023255552 overflows 41 bits"),
            ("urn:epc:tag:sgtin-96:3.0614141.812345.274877906944", FieldRangeError,
             "serial 274877906944 overflows 38 bits"),
        ],
    )
    def test_first_fault_wins(self, uri, error, message):
        with pytest.raises(EpcIpv6Error) as info:
            parse_tag_uri(uri)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "prefix, bits",
        [
            ("urn:epc:tag:sgtin-96:3.0614141.812345.", 38),
            ("urn:epc:tag:giai-96:3.0614141.", 58),
            ("urn:epc:tag:sgln-96:3.0614141.12345.", 41),
        ],
        ids=["sgtin-96", "giai-96", "sgln-96"],
    )
    @pytest.mark.parametrize("serial", ["9" * 5000, "1" * 4301], ids=["5000-nines", "4301-ones"])
    def test_long_serial_overflows(self, prefix, bits, serial):
        # int() refuses text past 4300 digits, so these must overflow without it
        with pytest.raises(FieldRangeError) as info:
            parse_tag_uri(prefix + serial)
        assert str(info.value) == f"serial {serial} overflows {bits} bits"


# scheme name -> (scheme, middle field's name or None, digits the company prefix
# and the middle field share, serial bits or None for the 82 bits left after
# header, filter, partition and company prefix)
REFERENCE_LAYOUTS = {
    "sgtin-96": (EpcScheme.SGTIN96, "item reference", 13, 38),
    "giai-96": (EpcScheme.GIAI96, None, None, None),
    "sgln-96": (EpcScheme.SGLN96, "location reference", 12, 41),
}
COMPANY_DIGITS_TO_PARTITION = {row[1]: p for p, row in SGTIN96_PARTITIONS.items()}


def reference_parse(text):
    """The field-by-field tag URI parser that the one-pattern parse_tag_uri
    replaced: each check in the README's order of errors, then the Epc."""
    prefix = "urn:epc:tag:"
    if text.__class__ is not str:
        raise TagUriError(f"expected tag URI text, got {type(text).__name__}")
    if not text.startswith(prefix):
        raise TagUriError(f"tag URI must start with {prefix!r}: {text!r}")
    scheme_name, sep, fields_text = text[len(prefix):].partition(":")
    if not sep or not fields_text:
        raise TagUriError(f"tag URI has no field section: {text!r}")
    layout = REFERENCE_LAYOUTS.get(scheme_name)
    if layout is None:
        raise UnknownSchemeError(f"unknown tag scheme {scheme_name!r}")
    scheme, middle_name, shared_digits, serial_bits = layout

    fields = fields_text.split(".")
    for field in fields:
        if field and not (field.isascii() and field.isdigit()):
            raise TagUriError(f"non-decimal field {field!r} in {text!r}")
    field_count = 3 if middle_name is None else 4
    if len(fields) != field_count:
        raise TagUriError(
            f"{scheme_name} URI needs {field_count} fields, got {len(fields)}: {text!r}"
        )
    filter_field, company_field = fields[0], fields[1]
    if len(filter_field) != 1:
        raise FieldRangeError(f"filter field {filter_field!r} must be a single digit")
    filter_value = int(filter_field)
    if filter_value > 7:
        raise FieldRangeError(f"filter value {filter_value} outside 0..7")
    partition = COMPANY_DIGITS_TO_PARTITION.get(len(company_field))
    if partition is None:
        raise FieldRangeError(f"company prefix {company_field!r} must be 6..12 digits")
    if middle_name is not None:
        middle_field = fields[2]
        middle_digits = shared_digits - len(company_field)
        if len(middle_field) != middle_digits:
            raise FieldRangeError(
                f"{middle_name} {middle_field!r} must be {middle_digits} digits "
                f"for a {len(company_field)}-digit company prefix"
            )
    serial_field = fields[-1]
    max_bits = serial_bits or 82 - SGTIN96_PARTITIONS[partition][0]
    if not serial_field or (len(serial_field) > 1 and serial_field[0] == "0"):
        raise FieldRangeError(
            f"serial field {serial_field!r} must be a plain decimal number"
        )
    if len(serial_field) > max_bits or (serial := int(serial_field)) >= 1 << max_bits:
        raise FieldRangeError(f"serial {serial_field} overflows {max_bits} bits")
    value = (pack_sgtin96(filter_value, partition, int(company_field), int(middle_field), serial)
             if scheme is EpcScheme.SGTIN96 else None)
    return Epc._trusted(scheme, 96, value, serial, text)


# one-character edits: ASCII digits and letters, the URI's separators, a line
# end, and decimal digits outside ASCII (Arabic-Indic one, superscript two)
EDIT_CHARACTERS = st.sampled_from(
    list(string.digits + string.ascii_letters + ".:-\n\u0661\u00b2")
)


@st.composite
def edited_tag_uris(draw):
    """A tag URI drawn from one scheme's grammar, its field widths and serial
    at, below and past their bounds, then changed by 0-3 one-character
    insertions, deletions or replacements."""
    scheme = draw(st.sampled_from(list(REFERENCE_LAYOUTS)))
    _, middle_name, shared_digits, _ = REFERENCE_LAYOUTS[scheme]

    def digits(count):
        return draw(st.text(string.digits, min_size=count, max_size=count))

    company_digits = draw(st.integers(5, 13))
    fields = [str(draw(st.integers(0, 9))), digits(company_digits)]
    if middle_name is not None:
        fields.append(digits(max(0, shared_digits - company_digits + draw(st.integers(-1, 1)))))
    # every serial width is 38..62 bits
    bits = draw(st.integers(37, 63))
    fields.append(str(draw(st.integers(0, 999) | st.integers(2**bits - 2, 2**bits + 1))))
    text = f"urn:epc:tag:{scheme}:" + ".".join(fields)
    for _ in range(draw(st.integers(0, 3))):
        # most edits land in the scheme and fields, since any edit of
        # urn:epc:tag: gives the one message for a missing prefix
        at = draw(st.integers(len("urn:epc:tag:"), len(text) - 1) | st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        tail = text[at + 1:] if edit != "insert" else text[at:]
        text = text[:at] + ("" if edit == "delete" else draw(EDIT_CHARACTERS)) + tail
    return text


def parse_outcome(parse, text):
    """The parsed Epc, or the class and message of the error."""
    try:
        return parse(text)
    except EpcIpv6Error as exc:
        return exc.__class__, str(exc)


class TestParserEquivalence:
    @given(edited_tag_uris())
    def test_matches_reference_parser(self, text):
        assert parse_outcome(parse_tag_uri, text) == parse_outcome(reference_parse, text)

    def test_reference_parser_reads_the_golden_uri(self):
        assert reference_parse(GOLDEN_URI) == Epc(
            EpcScheme.SGTIN96, 96, GOLDEN_SGTIN96, 6789, GOLDEN_URI
        )


class TestRenderTagUri:
    def test_parse_render_identity_on_example(self):
        assert render_tag_uri(parse_tag_uri(GOLDEN_URI)) == GOLDEN_URI

    @given(sgtin_fields())
    def test_parse_render_identity_sgtin(self, fields):
        uri = (
            f"urn:epc:tag:sgtin-96:{fields.filter_value}"
            f".{fields.company_prefix:0{fields.company_digits}d}"
            f".{fields.item_reference:0{fields.item_digits}d}"
            f".{fields.serial}"
        )
        assert render_tag_uri(parse_tag_uri(uri)) == uri

    def test_carried_uri_rendered_without_decoding(self, monkeypatch):
        epc = parse_tag_uri(GOLDEN_URI)

        def no_decode(value):
            raise AssertionError("decode_sgtin96 called")

        monkeypatch.setattr("epc_ipv6.epc.decode_sgtin96", no_decode)
        assert render_tag_uri(epc) == GOLDEN_URI
        assert company_prefix_of(epc) == "0614141"

    @given(sgtin_fields())
    def test_uri_less_twin_renders_the_parsed_uri(self, fields):
        # the rebuild from the value must give the text the parser accepts
        uri = (
            f"urn:epc:tag:sgtin-96:{fields.filter_value}"
            f".{fields.company_prefix:0{fields.company_digits}d}"
            f".{fields.item_reference:0{fields.item_digits}d}"
            f".{fields.serial}"
        )
        epc = parse_tag_uri(uri)
        twin = Epc(EpcScheme.SGTIN96, 96, epc.value, epc.serial_number)
        assert twin.uri is None
        assert render_tag_uri(twin) == uri
        assert company_prefix_of(twin) == company_prefix_of(epc) == uri.split(".")[1]

    def test_serial_only_schemes_keep_parsed_text(self):
        uri = "urn:epc:tag:giai-96:0.0614141.5678"
        assert render_tag_uri(parse_tag_uri(uri)) == uri

    def test_unrenderable(self):
        raw = Epc(scheme=EpcScheme.RAW, declared_bits=8, value=42)
        with pytest.raises(TagUriError):
            render_tag_uri(raw)


@st.composite
def near_sgtin96_values(draw):
    """Values below 2**96 around the SGTIN-96 layout: those of sgtin96_values,
    at times with another header byte or partition 7."""
    value = draw(sgtin96_values())
    if draw(st.booleans()):
        value |= 7 << 82
    header = draw(st.just(SGTIN96_HEADER) | st.integers(0, 255))
    return value & ~(0xFF << 88) | header << 88


class TestEpcInvariants:
    @given(near_sgtin96_values())
    def test_sgtin_value_checked_as_decode_checks_it(self, value):
        serial = value & (2**38 - 1)
        try:
            fields = decode_sgtin96(value)
        except EpcIpv6Error as exc:
            with pytest.raises(EpcIpv6Error) as info:
                Epc(EpcScheme.SGTIN96, 96, value, serial)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        else:
            expected = Epc(EpcScheme.SGTIN96, 96, encode_sgtin96(fields), fields.serial)
            assert Epc(EpcScheme.SGTIN96, 96, value, serial) == expected

    def test_value_must_fit_declared_bits(self):
        with pytest.raises(ValueError):
            Epc(scheme=EpcScheme.RAW, declared_bits=8, value=256)

    def test_named_scheme_needs_serial(self):
        with pytest.raises(ValueError):
            Epc(scheme=EpcScheme.SGTIN96, declared_bits=96, value=0x30 << 88)

    def test_named_scheme_width_fixed(self):
        with pytest.raises(ValueError):
            Epc(scheme=EpcScheme.SGTIN96, declared_bits=64, serial_number=1)

    @pytest.mark.parametrize("scheme, value", [(EpcScheme.GIAI96, 1 << 95),
                                               (EpcScheme.SGLN96, 7)],
                             ids=["giai-96", "sgln-96"])
    def test_scheme_without_codec_takes_no_value(self, scheme, value):
        # such an Epc built, and xor_pad, or_pad and iso_epc derived addresses
        # from a number nothing had checked
        message = (f"{scheme.value} has no binary codec, so its EPC carries no value, "
                   f"got {value:#x}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Epc(scheme, 96, value, 5)
        assert type(info.value) is ValueError

    def test_sgtin_serial_field_width(self):
        with pytest.raises(ValueError):
            Epc(scheme=EpcScheme.SGTIN96, declared_bits=96, serial_number=2**38)

    def test_raw_needs_value(self):
        with pytest.raises(ValueError):
            Epc(scheme=EpcScheme.RAW, declared_bits=8)

    def test_sgtin_wrong_header_rejected(self):
        with pytest.raises(WrongHeaderError):
            Epc(scheme=EpcScheme.SGTIN96, declared_bits=96, value=0x31 << 88, serial_number=0)

    def test_sgtin_partition_7_rejected(self):
        value = (SGTIN96_HEADER << 88) | (7 << 82)
        with pytest.raises(InvalidPartitionError):
            Epc(scheme=EpcScheme.SGTIN96, declared_bits=96, value=value, serial_number=0)

    @pytest.mark.parametrize(
        "fields",
        [
            Sgtin96Fields(1, 6, 10**6, 0, 5),  # 7-digit company prefix at partition 6
            Sgtin96Fields(1, 0, 0, 10, 5),  # 2-digit item reference at partition 0
        ],
    )
    def test_sgtin_digits_past_partition_row_rejected(self, fields):
        with pytest.raises(FieldRangeError):
            Epc(
                scheme=EpcScheme.SGTIN96, declared_bits=96,
                value=encode_sgtin96(fields), serial_number=fields.serial,
            )

    def test_sgtin_serial_must_match_value(self):
        with pytest.raises(ValueError):
            Epc(
                scheme=EpcScheme.SGTIN96, declared_bits=96,
                value=GOLDEN_SGTIN96, serial_number=6790,
            )

    @pytest.mark.parametrize(
        "args",
        [("raw", 8, 1, 1), ("sgtin-96", 96, 5, 5), ("giai-96", 96, None, 5), (None, 8, 1, 1)],
    )
    def test_scheme_must_be_an_epc_scheme(self, args):
        # a scheme given as text skipped every scheme-specific check, so a
        # "sgtin-96" value with a wrong header built and then broke resolve
        message = f"Epc.scheme must be EpcScheme, got {args[0]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Epc(*args)

    @pytest.mark.parametrize(
        "args",
        # (constructor arguments, the message naming the first wrong field)
        [
            ((EpcScheme.RAW, 8, 1.5), "Epc.value must be int | None, got 1.5"),
            ((EpcScheme.RAW, 8, True), "Epc.value must be int | None, got True"),
            ((EpcScheme.RAW, 8.0, 1), "Epc.declared_bits must be int, got 8.0"),
            ((EpcScheme.SGTIN96, 96.0, None, 5), "Epc.declared_bits must be int, got 96.0"),
            ((EpcScheme.GIAI96, 96, None, 5.0), "Epc.serial_number must be int | None, got 5.0"),
            ((EpcScheme.GIAI96, 96, None, 5, 5), "Epc.uri must be str | None, got 5"),
            ((EpcScheme.GIAI96, 96, None, 5, b"urn:epc:tag:giai-96:0.0614141.5"),
             "Epc.uri must be str | None, got b'urn:epc:tag:giai-96:0.0614141.5'"),
        ],
    )
    def test_fields_must_be_int_or_str(self, args):
        # such fields built, and derive or company_prefix_of failed on them later
        arguments, message = args
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Epc(*arguments)

    @pytest.mark.parametrize(
        "args",
        [
            # another scheme's URI: render_tag_uri returned it, and resolve
            # routed the EPC by its company prefix
            (EpcScheme.GIAI96, 96, None, 5, GOLDEN_URI),
            (EpcScheme.GIAI96, 96, None, 5, "hello"),
            (EpcScheme.RAW, 8, 5, 5, "urn:epc:tag:giai-96:1.0614141.5"),
            # one field other than the URI's
            (EpcScheme.GIAI96, 96, None, 6, "urn:epc:tag:giai-96:3.0614141.5"),
            (EpcScheme.SGLN96, 96, None, 5, "urn:epc:tag:giai-96:3.0614141.5"),
            (EpcScheme.SGTIN96, 96, None, 6789, GOLDEN_URI),
            (EpcScheme.SGTIN96, 96, GOLDEN_SGTIN96 + 1, 6790, GOLDEN_URI),
        ],
        ids=["sgtin-uri-on-giai", "not-a-uri", "uri-on-raw",
             "serial", "scheme", "no-value", "value"],
    )
    def test_uri_must_be_the_epcs_own(self, args):
        with pytest.raises(ValueError, match=f"^uri {args[4]!r} is not (a|the) tag URI"):
            Epc(*args)

    def test_uri_that_does_not_parse_chains_the_parse_error(self):
        with pytest.raises(ValueError, match="is not a tag URI") as info:
            Epc(EpcScheme.GIAI96, 96, None, 5, "urn:epc:tag:giai-96:3.0614141")
        assert isinstance(info.value.__cause__, TagUriError)

    @pytest.mark.parametrize("uri", [GOLDEN_URI, "urn:epc:tag:giai-96:3.0614141.5",
                                     "urn:epc:tag:sgln-96:3.0614141.12345.400"])
    def test_own_uri_accepted(self, uri):
        parsed = parse_tag_uri(uri)
        assert Epc(*parsed._astuple()) == parsed

        class Tagged(Epc):
            __slots__ = ()

        # compared by fields, so a subclass of Epc takes its own URI too
        assert Tagged(*parsed._astuple())._astuple() == parsed._astuple()

    def test_raw_width_bounds(self):
        with pytest.raises(ValueError):
            Epc(scheme=EpcScheme.RAW, declared_bits=0, value=0)
        with pytest.raises(ValueError):
            Epc(scheme=EpcScheme.RAW, declared_bits=257, value=0)
        Epc(scheme=EpcScheme.RAW, declared_bits=256, value=2**256 - 1)


class TestCompanyPrefix:
    def test_from_sgtin_value(self):
        epc = Epc(EpcScheme.SGTIN96, 96, GOLDEN_SGTIN96, 6789)
        assert company_prefix_of(epc) == "0614141"

    def test_from_stored_uri(self):
        epc = parse_tag_uri("urn:epc:tag:giai-96:0.0614141.5678")
        assert company_prefix_of(epc) == "0614141"

    def test_raw_has_none(self):
        raw = Epc(scheme=EpcScheme.RAW, declared_bits=8, value=42)
        assert company_prefix_of(raw) is None


# GOLDEN_SGTIN96 as a tag reports its EPC bank: 24 hex digits, header 0x30
GOLDEN_HEX = f"0x{GOLDEN_SGTIN96:024x}"


class TestParseEpc:
    """``parse_epc``: tag URIs as ``parse_tag_uri`` reads them, a 96-bit EPC bank
    with the SGTIN-96 header as that SGTIN-96, and any other number as raw."""

    @pytest.mark.parametrize("text", [GOLDEN_HEX, GOLDEN_HEX.upper(),
                                      "0x" + GOLDEN_HEX[2:].upper()])
    def test_sgtin96_bank_is_its_tag_uri(self, text):
        epc = parse_epc(text)
        assert epc == parse_tag_uri(GOLDEN_URI)
        assert company_prefix_of(epc) == "0614141"

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # partition 7: 0x30, filter 3, partition 7 in the next six bits
            ("0x307C257bf7194e4000001a85", InvalidPartitionError,
             "partition 7 outside 0..6"),
            # partition 5 (7 company digits) holding company prefix 10**7
            (f"0x{(0x30 << 6 | 3 << 3 | 5) << 82 | 10**7 << 58 | 1 << 38 | 1:024x}",
             FieldRangeError,
             "company prefix 10000000 or item reference 1 has more digits than "
             "partition 5 allows"),
        ],
        ids=["partition-7", "company-prefix-digits"],
    )
    def test_undecodable_bank_raises_the_decoders_error(self, text, error, message):
        # never read as raw: a misread tag must not get an address
        with pytest.raises(EpcIpv6Error) as info:
            parse_epc(text)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "text, value",
        [
            (GOLDEN_HEX[:-1], GOLDEN_SGTIN96 >> 4),
            (GOLDEN_HEX + "0", GOLDEN_SGTIN96 << 4),
            ("0x00" + GOLDEN_HEX[2:], GOLDEN_SGTIN96),
            ("0x32" + GOLDEN_HEX[4:], GOLDEN_SGTIN96 ^ 0x02 << 88),
            ("0x34" + GOLDEN_HEX[4:], GOLDEN_SGTIN96 ^ 0x04 << 88),
            (str(GOLDEN_SGTIN96), GOLDEN_SGTIN96),
        ],
        ids=["23-digits", "25-digits", "leading-zeros", "sgln-96-header",
             "giai-96-header", "decimal"],
    )
    def test_other_numbers_stay_raw(self, text, value):
        assert parse_epc(text) == Epc(EpcScheme.RAW, bit_length(value), value, value)

    @pytest.mark.parametrize("text", [GOLDEN_SGTIN96, b"0x1", None, StrSubclass("0x1")])
    def test_text_that_is_not_exactly_str(self, text):
        with pytest.raises(TagUriError) as info:
            parse_epc(text)
        assert str(info.value) == f"expected tag URI text, got {type(text).__name__}"
