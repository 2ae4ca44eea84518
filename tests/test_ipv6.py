import ipaddress
import re

import pytest
from hypothesis import given, strategies as st

from epc_ipv6 import Ipv6Address, format_canonical, parse_ipv6
from epc_ipv6.errors import Ipv6TextError

_GROUP_RE = re.compile(r"^(0|[1-9a-f][0-9a-f]{0,3})$")


def groups_of(text: str) -> list[str]:
    """Expand canonical text back to its 8 groups, independent validator logic.

    Asserts every canonical-form rule along the way: lowercase hex, no
    leading zeros, at most one '::' covering at least two groups, and the
    compressed run being the longest (leftmost on ties).
    """
    assert text == text.lower()
    assert " " not in text
    if "::" in text:
        assert text.count("::") == 1
        head, tail = text.split("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        hidden = 8 - len(head_groups) - len(tail_groups)
        assert hidden >= 2, "a single zero group must not be compressed"
        groups = head_groups + ["0"] * hidden + tail_groups
        compressed_start = len(head_groups)
        compressed_len = hidden
    else:
        groups = text.split(":")
        compressed_start = None
        compressed_len = 0
    assert len(groups) == 8
    for group in groups:
        assert _GROUP_RE.match(group), f"bad group {group!r} in {text!r}"

    # every zero run must be at most as long as the compressed one, and no
    # equal-length run may start earlier
    runs = []
    start = None
    for i, group in enumerate(groups + ["sentinel"]):
        if group == "0":
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - start))
            start = None
    for run_start, run_len in runs:
        if compressed_start is None:
            assert run_len < 2, f"uncompressed zero run of {run_len} in {text!r}"
        elif run_start == compressed_start:
            # no explicit zero group may adjoin the '::' on either side
            assert run_len == compressed_len, f"extendable '::' in {text!r}"
        else:
            assert run_len < compressed_len or (
                run_len == compressed_len and run_start > compressed_start
            ), f"compressed run is not the leftmost longest in {text!r}"
    return groups


def value_of(text: str) -> int:
    """Recompute the 128-bit value from canonical text, no stdlib parsing."""
    value = 0
    for group in groups_of(text):
        value = (value << 16) | int(group, 16)
    return value


# (text, exact message); every message is ipaddress's but the zone check's,
# which parse_ipv6 makes first
MALFORMED = [
    ("", "Address cannot be empty"),
    ("1::2::3", "At most one '::' permitted in '1::2::3'"),
    ("12345::", "At most 4 characters permitted in '12345' in '12345::'"),
    ("1:2:3", "Exactly 8 parts expected without '::' in '1:2:3'"),
    (":::", "At most one '::' permitted in ':::'"),
    ("2001:db8::1%eth0", "zone identifiers are not addresses: '2001:db8::1%eth0'"),
    ("g::1", "Only hex digits permitted in 'g' in 'g::1'"),
    # the C parser raises ValueError for these two, not OSError
    ("::1\x00", "Only hex digits permitted in '1\\x00' in '::1\\x00'"),
    ("\udcff::", "Only hex digits permitted in '\\udcff' in '\\udcff::'"),
    ("\u0661::1", "Only hex digits permitted in '\u0661' in '\u0661::1'"),
    (" ::1", "Only hex digits permitted in ' ' in ' ::1'"),
    ("::1.2.3.04",
     "Leading zeros are not permitted in '04' in '1.2.3.04' in '::1.2.3.04'"),
    ("::256.1.1.1",
     "Octet 256 (> 255) not permitted in '256.1.1.1' in '::256.1.1.1'"),
]


class TestFormat:
    def test_reference_ons_value(self):
        addr = parse_ipv6("3ffe:ffff:4004:1952:0000:7251:bc9b:a73f")
        assert format_canonical(addr) == "3ffe:ffff:4004:1952:0:7251:bc9b:a73f"

    def test_zero(self):
        assert format_canonical(Ipv6Address(0)) == "::"

    def test_one(self):
        assert format_canonical(Ipv6Address(1)) == "::1"

    def test_single_zero_group_not_compressed(self):
        addr = parse_ipv6("1:2:3:4:0:6:7:8")
        assert format_canonical(addr) == "1:2:3:4:0:6:7:8"

    def test_longest_run_compressed(self):
        addr = parse_ipv6("1:0:0:2:0:0:0:3")
        assert format_canonical(addr) == "1:0:0:2::3"

    def test_leftmost_run_wins_ties(self):
        addr = parse_ipv6("1:0:0:2:0:0:3:4")
        assert format_canonical(addr) == "1::2:0:0:3:4"

    def test_str_is_canonical(self):
        assert str(Ipv6Address(1)) == "::1"

    @pytest.mark.parametrize(
        "text, canonical",
        [
            # RFC 5952 section 4: lowercase, no leading zeros, longest run wins,
            # leftmost run on ties, a single zero group stays, runs at either end
            ("2001:0DB8:0000:0000:0000:0000:0002:0001", "2001:db8::2:1"),
            ("2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"),
            ("2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"),
            ("0:0:1:2:3:4:5:6", "::1:2:3:4:5:6"),
            ("1:2:3:4:5:6:0:0", "1:2:3:4:5:6::"),
            ("1:0:0:0:0:0:0:0", "1::"),
            ("0:0:0:0:0:0:0:0", "::"),
            ("0:1:0:0:0:0:0:0", "0:1::"),
            ("0:0:0:0:0:0:1:0", "::1:0"),
            ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
        ],
    )
    def test_rfc5952_section_4(self, text, canonical):
        assert format_canonical(parse_ipv6(text)) == canonical


class TestParse:
    def test_full_form(self):
        addr = parse_ipv6("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert addr.value == 0x20010DB8000000000000000000000001

    def test_zero_suppressed(self):
        assert parse_ipv6("2001:db8:0:0:0:0:0:1").value == parse_ipv6("2001:db8::1").value

    @pytest.mark.parametrize("text, message", MALFORMED, ids=[text for text, _ in MALFORMED])
    def test_malformed(self, text, message):
        with pytest.raises(Ipv6TextError) as info:
            parse_ipv6(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("1:2:3:4:5:6:7::", "1:2:3:4:5:6:7:0"),
            ("::ffff:1.2.3.4", "::ffff:102:304"),
            (type("Text", (str,), {})("::1"), "::1"),
        ],
        ids=["compressed-last-group", "ipv4-tail", "str-subclass"],
    )
    def test_accepted(self, text, canonical):
        assert format_canonical(parse_ipv6(text)) == canonical

    def test_non_string(self):
        with pytest.raises(Ipv6TextError, match="^expected IPv6 text, got int$"):
            parse_ipv6(42)


class TestValueBounds:
    def test_overflow(self):
        with pytest.raises(ValueError):
            Ipv6Address(1 << 128)

    def test_negative(self):
        with pytest.raises(ValueError):
            Ipv6Address(-1)

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None])
    def test_value_must_be_an_int(self, value):
        # a float built and only failed later, in str(), with an AttributeError
        message = f"Ipv6Address.value must be int, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Ipv6Address(value)


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_parse_format_identity(self, value):
        addr = Ipv6Address(value)
        text = format_canonical(addr)
        assert parse_ipv6(text) == addr
        # the independent reconstruction agrees too
        assert value_of(text) == value

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_format_is_canonical(self, value):
        groups_of(format_canonical(Ipv6Address(value)))


def _from_groups(groups: list[int]) -> int:
    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


# each group is drawn from {0, 0, small, any}, so zero runs of every length are common
zero_heavy_values = st.lists(
    st.one_of(st.just(0), st.just(0), st.integers(1, 0xF), st.integers(0, 0xFFFF)),
    min_size=8,
    max_size=8,
).map(_from_groups)


# the top 96 bits at and next to ::/96 and ::ffff:0:0/96, the two ranges the C
# library writes with a dotted-quad tail
dotted_range_edges = st.builds(
    lambda high, low: high << 32 | low,
    st.sampled_from([0, 1, 0xFFFE, 0xFFFF, 0x10000]),
    st.integers(0, 2**32 - 1),
)


HEX_DIGITS = "0123456789abcdefABCDEF"


@st.composite
def ipv6_grammar_text(draw):
    """Text built from the IPv6 grammar, valid or nearly so: 0-9 groups of 0-6
    mixed-case hex digits, ``::`` between any two groups or at either end, an
    IPv4 tail of 3-5 octets up to 300 with or without leading zeros, and stray
    characters anywhere."""
    # most groups are valid, so a fair share of the text is an address
    valid_group = st.text(HEX_DIGITS, min_size=1, max_size=4)
    group = st.one_of(valid_group, valid_group, valid_group, st.text(HEX_DIGITS, max_size=6))
    count = draw(st.integers(0, 9))
    parts = draw(st.lists(group, min_size=count, max_size=count))
    if draw(st.booleans()):
        octets = draw(st.lists(st.integers(0, 300), min_size=3, max_size=5))
        widths = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]),
                               min_size=len(octets), max_size=len(octets)))
        parts.append(".".join(f"{octet:0{width}d}" for octet, width in zip(octets, widths)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(parts)))
        text = ":".join(parts[:at]) + "::" + ":".join(parts[at:])
    else:
        text = ":".join(parts)
    strays = st.lists(st.sampled_from(" .g%\x00\u00e9"), min_size=1, max_size=2)
    for char in draw(st.just(()) | st.just(()) | strays):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + char + text[at:]
    return text


def _ipaddress_outcome(text):
    if "%" in text:  # ipaddress reads a zone; parse_ipv6 refuses it first
        return "error", f"zone identifiers are not addresses: {text!r}"
    try:
        return "value", int(ipaddress.IPv6Address(text))
    except ipaddress.AddressValueError as exc:
        return "error", str(exc)


class TestAgainstStdlib:
    @given(st.integers(min_value=0, max_value=2**128 - 1) | zero_heavy_values | dotted_range_edges)
    def test_format_matches_ipaddress(self, value):
        text = format_canonical(Ipv6Address(value))
        assert text == ipaddress.IPv6Address(value).compressed
        assert parse_ipv6(text) == Ipv6Address(value)

    @given(ipv6_grammar_text())
    def test_parse_matches_ipaddress(self, text):
        try:
            outcome = "value", parse_ipv6(text).value
        except Ipv6TextError as exc:
            outcome = "error", str(exc)
        assert outcome == _ipaddress_outcome(text)
