"""EPC tag URIs and numbers, the SGTIN-96 binary codec, and bit-width primitives.

EPC tag URIs look like ``urn:epc:tag:sgtin-96:3.0614141.812345.6789``:
a scheme name followed by dot-separated decimal fields, read for every
scheme through one table of filter, company prefix, optional middle
reference and serial. The character length of the company-prefix field is
significant (leading zeros count) and selects the partition row that sets
the widths of the fields after it.

Code run once per EPC loads no enum member and no ``Frozen._trusted``
classmethod through its class: on Python 3.11, whose ``EnumType`` defines
``__getattr__``, ``EpcScheme.SGTIN96`` takes over 100 ns against about 9 ns
for a module global, and ``Epc._trusted`` builds a bound method on each load.
Each is bound once, at module level, in the module that defines it
(``_SGTIN96``, ``_RAW``, ``_trusted_epc`` here, ``_trusted_address`` in
``ipv6``), and other modules import that one alias.
"""

from __future__ import annotations

import re
from enum import Enum

from ._frozen import Frozen
from .errors import (
    EpcIpv6Error,
    FieldRangeError,
    InvalidPartitionError,
    TagUriError,
    UnknownSchemeError,
    WrongHeaderError,
)


class EpcScheme(str, Enum):
    """EPC scheme families this library knows about.

    ``RAW`` stands for an opaque numeric EPC of a declared bit width,
    used when the scheme of a code is unknown or irrelevant.
    """

    SGTIN96 = "sgtin-96"
    GIAI96 = "giai-96"
    SGLN96 = "sgln-96"
    RAW = "raw"


_SGTIN96, _RAW = EpcScheme.SGTIN96, EpcScheme.RAW

SGTIN96_HEADER = 0x30
SGTIN96_SERIAL_BITS = 38

# partition -> (company_bits, company_digits, item_bits, item_digits);
# company_bits + item_bits == 44 on every row
SGTIN96_PARTITIONS: dict[int, tuple[int, int, int, int]] = {
    0: (40, 12, 4, 1),
    1: (37, 11, 7, 2),
    2: (34, 10, 10, 3),
    3: (30, 9, 14, 4),
    4: (27, 8, 17, 5),
    5: (24, 7, 20, 6),
    6: (20, 6, 24, 7),
}

_SGTIN96_SERIAL_MASK = (1 << SGTIN96_SERIAL_BITS) - 1

_COMPANY_DIGITS_TO_PARTITION = {
    digits: p for p, (_, digits, _, _) in SGTIN96_PARTITIONS.items()
}

# widest serial field each scheme can carry (GIAI-96 at partition 6); a raw
# EPC is bounded by its declared width, and populations draw 64-bit ones
SERIAL_BITS = {
    EpcScheme.SGTIN96: SGTIN96_SERIAL_BITS,
    EpcScheme.GIAI96: 62,
    EpcScheme.SGLN96: 41,
    EpcScheme.RAW: 64,
}

_URI_PREFIX = "urn:epc:tag:"

# the digits of a number; int() alone would also take "_", a sign, spaces and
# non-ASCII digits
_DIGITS = {16: frozenset("0123456789abcdefABCDEF"), 10: frozenset("0123456789")}


def bit_length(value: int) -> int:
    """Position of the most significant one-bit, 1-based.

    ``bit_length(0)`` is 1 by convention so that width arithmetic stays
    defined for a zero payload; zero is outside the injectivity guarantee
    of the derivation methods.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    return value.bit_length() or 1


class Sgtin96Fields(Frozen):
    """The five SGTIN-96 fields below the fixed 0x30 header byte.

    Bounds are the binary field widths; the stricter per-partition digit
    counts of the URI grammar are enforced when decoding or parsing URIs.
    """

    __slots__ = _fields = (
        "filter_value", "partition", "company_prefix", "item_reference", "serial"
    )
    filter_value: int
    partition: int
    company_prefix: int
    item_reference: int
    serial: int

    def __init__(
        self,
        filter_value: int,
        partition: int,
        company_prefix: int,
        item_reference: int,
        serial: int,
    ):
        self._check(filter_value, partition, company_prefix, item_reference, serial)
        if not 0 <= filter_value <= 7:
            raise FieldRangeError(f"filter value {filter_value} outside 0..7")
        if partition not in SGTIN96_PARTITIONS:
            raise InvalidPartitionError(f"partition {partition} outside 0..6")
        company_bits, _, item_bits, _ = SGTIN96_PARTITIONS[partition]
        for name, number, bits in (("company prefix", company_prefix, company_bits),
                                   ("item reference", item_reference, item_bits),
                                   ("serial", serial, SGTIN96_SERIAL_BITS)):
            if not 0 <= number < 1 << bits:
                raise FieldRangeError(f"{name} {number} overflows {bits} bits")
        self._store(filter_value, partition, company_prefix, item_reference, serial)

    @property
    def company_digits(self) -> int:
        return SGTIN96_PARTITIONS[self.partition][1]

    @property
    def item_digits(self) -> int:
        return SGTIN96_PARTITIONS[self.partition][3]


_trusted_fields = Sgtin96Fields._trusted


class Epc(Frozen):
    """A parsed Electronic Product Code.

    ``value`` is the full binary EPC as one unsigned integer; it is absent,
    and refused, for schemes whose binary codec is out of scope (GIAI-96,
    SGLN-96), where only the serial/individual-reference component is kept.
    The constructor checks every field; values proven valid inside the
    package (parsed tag URIs, generated populations) skip it through
    ``_trusted``.
    """

    __slots__ = _fields = ("scheme", "declared_bits", "value", "serial_number", "uri")
    scheme: EpcScheme
    declared_bits: int
    value: int | None
    serial_number: int | None
    uri: str | None

    def __init__(
        self,
        scheme: EpcScheme,
        declared_bits: int,
        value: int | None = None,
        serial_number: int | None = None,
        uri: str | None = None,
    ):
        self._check(scheme, declared_bits, value, serial_number, uri)
        if scheme is _RAW:
            if not 1 <= declared_bits <= 256:
                raise ValueError(f"raw EPC width {declared_bits} outside 1..256")
            if value is None:
                raise ValueError("raw EPC must carry a numeric value")
            max_serial_bits = declared_bits
        else:
            if declared_bits != 96:
                raise ValueError(
                    f"{scheme.value} is 96 bits wide, "
                    f"got declared_bits={declared_bits}"
                )
            if serial_number is None:
                raise ValueError(f"{scheme.value} EPC must carry a serial number")
            if value is not None and scheme is not _SGTIN96:
                raise ValueError(f"{scheme.value} has no binary codec, so its EPC "
                                 f"carries no value, got {value:#x}")
            max_serial_bits = SERIAL_BITS[scheme]
        if value is not None and not 0 <= value < 1 << declared_bits:
            raise ValueError(f"value {value:#x} does not fit {declared_bits} bits")
        if serial_number is not None and not 0 <= serial_number < 1 << max_serial_bits:
            raise ValueError(
                f"serial {serial_number} overflows the "
                f"{max_serial_bits}-bit serial field of {scheme.value}"
            )
        if (scheme is _SGTIN96 and value is not None
                and decode_sgtin96(value).serial != serial_number):
            raise ValueError(
                f"serial {serial_number} is not the serial field of value {value:#x}"
            )
        # the URI is rendered and read for the company prefix, so it must be this
        # EPC's own; tuples, not Epcs, are compared, so a subclass takes its URI too
        if uri is not None:
            try:
                parsed = parse_tag_uri(uri)
            except EpcIpv6Error as exc:
                raise ValueError(f"uri {uri!r} is not a tag URI: {exc}") from exc
            if parsed._astuple() != (scheme, declared_bits, value, serial_number, uri):
                raise ValueError(f"uri {uri!r} is not the tag URI of {scheme.value} "
                                 f"EPC value={value!r}, serial_number={serial_number!r}")
        self._store(scheme, declared_bits, value, serial_number, uri)

    def _label(self) -> str:
        """How reports and errors name an EPC: its URI, else ``scheme:0x<value>``,
        else ``scheme:serial=<serial>``."""
        if self.uri is not None:
            return self.uri
        if self.value is not None:
            return f"{self.scheme.value}:{self.value:#x}"
        return f"{self.scheme.value}:serial={self.serial_number}"


_trusted_epc = Epc._trusted


def pack_sgtin96(
    filter_value: int,
    partition: int,
    company_prefix: int,
    item_reference: int,
    serial: int,
) -> int:
    """Pack in-range SGTIN-96 fields into the 96-bit binary form, unchecked.

    Layout, most significant first: header 0x30 (8 bits), filter (3),
    partition (3), company prefix and item reference (44 split by the
    partition row), serial (38). A company prefix or item reference within
    its digit count always fits its bits: 10**digits < 2**bits on every row.
    """
    company_bits, _, item_bits, _ = SGTIN96_PARTITIONS[partition]
    value = (SGTIN96_HEADER << 3 | filter_value) << 3 | partition
    value = (value << company_bits | company_prefix) << item_bits | item_reference
    return value << SGTIN96_SERIAL_BITS | serial


def encode_sgtin96(fields: Sgtin96Fields) -> int:
    """Pack SGTIN-96 fields into the 96-bit binary form (see :func:`pack_sgtin96`)."""
    # Sgtin96Fields._fields is in pack_sgtin96's argument order
    return pack_sgtin96(*fields._astuple())


def decode_sgtin96(value: int) -> Sgtin96Fields:
    """Inverse of :func:`encode_sgtin96` on values that have a tag URI form.

    Raises unless the value fits 96 bits, the header is 0x30, the partition
    is 0..6 and both fields fit the digit counts of their partition row, as
    the GS1 Tag Data Standard requires of a value with a tag URI form.
    """
    if not 0 <= value < 1 << 96:
        raise FieldRangeError(f"value {value:#x} does not fit 96 bits")
    header = value >> 88
    if header != SGTIN96_HEADER:
        raise WrongHeaderError(
            f"header {header:#04x} is not the SGTIN-96 header {SGTIN96_HEADER:#04x}"
        )
    partition = (value >> 82) & 0x7
    row = SGTIN96_PARTITIONS.get(partition)
    if row is None:
        raise InvalidPartitionError(f"partition {partition} outside 0..6")
    company_bits, company_digits, item_bits, item_digits = row
    company_prefix = (value >> (38 + item_bits)) & ((1 << company_bits) - 1)
    item_reference = (value >> 38) & ((1 << item_bits) - 1)
    if company_prefix >= 10**company_digits or item_reference >= 10**item_digits:
        raise FieldRangeError(
            f"company prefix {company_prefix} or item reference {item_reference} "
            f"has more digits than partition {partition} allows"
        )
    # the row's digit counts, just checked, are stricter than the fields' bit widths
    return _trusted_fields(
        (value >> 85) & 0x7, partition, company_prefix, item_reference,
        value & _SGTIN96_SERIAL_MASK,
    )


def parse_tag_uri(text: str) -> Epc:
    """Parse an ``urn:epc:tag:`` URI, exactly a ``str``, into an :class:`Epc`.

    Each scheme's fields are read through its row of ``_URI_LAYOUTS``.
    SGTIN-96 URIs get their full binary ``value`` via the codec; GIAI-96
    and SGLN-96 URIs keep only the trailing serial/individual-reference
    field, which is all the serial-path derivation methods consume. Text is
    accepted through the ``_TAG_URI`` pattern and two width rules; refused
    text gets the error ``_tag_uri_error`` names.
    """
    # a subclass would be stored as the uri, which Epc(...) refuses on copy
    if text.__class__ is str and (match := _TAG_URI.fullmatch(text)):
        scheme_name, filter_field, company_field, middle_field, serial_field = match.groups()
        scheme, middle_name, shared_digits, serial_bits = _URI_LAYOUTS[scheme_name]
        partition = _COMPANY_DIGITS_TO_PARTITION[len(company_field)]
        # the pattern leaves two rules: the middle field is there exactly when
        # the scheme's row names one, as wide as the company prefix leaves ...
        if middle_name is None:
            middle_fits = middle_field is None
        else:
            middle_fits = (middle_field is not None
                           and len(middle_field) == shared_digits - len(company_field))
        # ... and the serial fits its bits; a serial of more than max_bits digits is
        # at least 10**max_bits, so int() never reads a long one: it refuses text
        # past 4300 digits, and is quadratic without that limit
        max_bits = serial_bits or 82 - SGTIN96_PARTITIONS[partition][0]
        if middle_fits and len(serial_field) <= max_bits and (
                serial := int(serial_field)) < 1 << max_bits:
            # every field is checked, so the Epc needs no checks of its own; only
            # SGTIN-96 has a binary codec
            value = (pack_sgtin96(int(filter_field), partition, int(company_field),
                                  int(middle_field), serial)
                     if scheme is _SGTIN96 else None)
            return _trusted_epc(scheme, 96, value, serial, text)
    raise _tag_uri_error(text)


def parse_epc(text: str) -> Epc:
    """Read an EPC from its text, exactly a ``str``: a tag URI through
    :func:`parse_tag_uri`, or a number, ``0x``/``0X`` hex or ASCII decimal.

    Exactly 24 hex digits whose top byte is the SGTIN-96 header 0x30, a tag's
    96-bit EPC bank, are that SGTIN-96, with the URI :func:`render_tag_uri`
    writes; a value the decoder refuses raises its error. Any other number
    below 2^256 is a raw EPC that is its own serial.
    """
    if text.__class__ is not str or text.startswith("urn:"):
        return parse_tag_uri(text)
    value = _number(text)
    if value is None:
        raise TagUriError(f"{text!r} is neither a tag URI nor a number")
    if value >= 1 << 256:
        raise FieldRangeError(f"EPC value {text!r} outside 0..2^256")
    if len(text) == 26 and text[:2] in ("0x", "0X") and value >> 88 == SGTIN96_HEADER:
        # the URI's decode checks every field, so the Epc needs no checks of its own
        return _trusted_epc(_SGTIN96, 96, value, value & _SGTIN96_SERIAL_MASK,
                            _sgtin96_uri(value))
    return Epc(_RAW, bit_length(value), value, value)


def _number(text: str) -> int | None:
    """0x/0X and ASCII hex digits, or ASCII decimal digits, as an int; else None.

    A number of more than 78 significant digits is at least 10**78 > 2**256,
    past every bound, and reads as 2**256 without int(): int() refuses a
    decimal past 4300 digits, and is quadratic where that limit is off.
    """
    digits, base = (text[2:], 16) if text[:2] in ("0x", "0X") else (text, 10)
    if not digits or not _DIGITS[base].issuperset(digits):
        return None
    significant = digits.lstrip("0") or "0"  # int() counts leading zeros too
    return int(significant, base) if len(significant) <= 78 else 1 << 256


def _tag_uri_error(text: object) -> EpcIpv6Error:
    """The error for text that is not a tag URI ``parse_tag_uri`` takes: the
    first fault, read field by field in the README's order of errors."""
    if text.__class__ is not str:
        return TagUriError(f"expected tag URI text, got {type(text).__name__}")
    if not text.startswith(_URI_PREFIX):
        return TagUriError(f"tag URI must start with {_URI_PREFIX!r}: {text!r}")
    scheme_name, sep, fields_text = text[len(_URI_PREFIX):].partition(":")
    if not sep or not fields_text:
        return TagUriError(f"tag URI has no field section: {text!r}")
    layout = _URI_LAYOUTS.get(scheme_name)
    if layout is None:
        return UnknownSchemeError(f"unknown tag scheme {scheme_name!r}")
    _, middle_name, shared_digits, serial_bits = layout

    fields = fields_text.split(".")
    for field in fields:
        if field and not (field.isascii() and field.isdigit()):
            return TagUriError(f"non-decimal field {field!r} in {text!r}")
    field_count = 3 if middle_name is None else 4
    if len(fields) != field_count:
        return TagUriError(
            f"{scheme_name} URI needs {field_count} fields, got {len(fields)}: {text!r}"
        )
    filter_field, company_field, serial_field = fields[0], fields[1], fields[-1]
    if len(filter_field) != 1:
        return FieldRangeError(f"filter field {filter_field!r} must be a single digit")
    if int(filter_field) > 7:
        return FieldRangeError(f"filter value {filter_field} outside 0..7")
    partition = _COMPANY_DIGITS_TO_PARTITION.get(len(company_field))
    if partition is None:
        return FieldRangeError(f"company prefix {company_field!r} must be 6..12 digits")
    if middle_name is not None:
        middle_field = fields[2]
        middle_digits = shared_digits - len(company_field)
        if len(middle_field) != middle_digits:
            return FieldRangeError(
                f"{middle_name} {middle_field!r} must be {middle_digits} digits "
                f"for a {len(company_field)}-digit company prefix"
            )
    # serials are plain numbers: no leading zeros in the URI form
    if not serial_field or (len(serial_field) > 1 and serial_field[0] == "0"):
        return FieldRangeError(f"serial field {serial_field!r} must be a plain decimal number")
    # the pattern takes every other text that gets this far, so its serial overflows
    max_bits = serial_bits or 82 - SGTIN96_PARTITIONS[partition][0]
    return FieldRangeError(f"serial {serial_field} overflows {max_bits} bits")


# every scheme but raw has a tag URI form, filter.company-prefix[.middle].serial:
# scheme name -> (scheme, middle field's name or None, digits the company prefix
# and the middle field share, serial bits or None for the 82 bits left after
# header, filter, partition and company prefix: 42..62 for GIAI-96)
_URI_LAYOUTS = {layout[0].value: layout for layout in (
    (EpcScheme.SGTIN96, "item reference", 13, SGTIN96_SERIAL_BITS),
    (EpcScheme.GIAI96, None, None, None),
    (EpcScheme.SGLN96, "location reference", 12, SERIAL_BITS[EpcScheme.SGLN96]),
)}

# every rule of the tag URI grammar but the middle field's presence and width
# and the serial's bits: a scheme of _URI_LAYOUTS, filter 0..7, a 6..12-digit
# company prefix, an optional middle field and a serial without leading zeros.
# [0-9] takes ASCII digits only, as \d would not; parse_tag_uri applies it with
# fullmatch, which, unlike $, takes no line end after the serial. No quantifier
# repeats another (the middle group is taken once or not at all), so a match
# is linear in the length of the text
_TAG_URI = re.compile(
    rf"{_URI_PREFIX}({'|'.join(_URI_LAYOUTS)}):([0-7])\.([0-9]{{6,12}})"
    r"(?:\.([0-9]*))?\.(0|[1-9][0-9]*)"
)


def render_tag_uri(epc: Epc) -> str:
    """Canonical tag URI for an EPC: the one it carries, which the parser and
    ``Epc(...)`` make its own; for a URI-less SGTIN-96 EPC with a value, the
    URI rebuilt through :func:`decode_sgtin96`."""
    if epc.uri is not None:
        return epc.uri
    if epc.scheme is _SGTIN96 and epc.value is not None:
        return _sgtin96_uri(epc.value)
    raise TagUriError(f"no URI form available for {epc!r}")


def _sgtin96_uri(value: int) -> str:
    """The tag URI of an SGTIN-96 value; :func:`decode_sgtin96` refuses one without."""
    f = decode_sgtin96(value)
    return (
        f"{_URI_PREFIX}sgtin-96:{f.filter_value}"
        f".{f.company_prefix:0{f.company_digits}d}"
        f".{f.item_reference:0{f.item_digits}d}"
        f".{f.serial}"
    )


def company_prefix_of(epc: Epc) -> str | None:
    """Company-prefix digits of an EPC, leading zeros preserved, read from its
    tag URI (see :func:`render_tag_uri`); ``None`` when it has no URI form."""
    # a tag URI reads urn:epc:tag:<scheme>:<filter>.<company>.…
    if epc.uri is not None:
        return epc.uri.split(".", 2)[1]
    if epc.scheme is _SGTIN96 and epc.value is not None:
        return _sgtin96_uri(epc.value).split(".", 2)[1]
    return None
