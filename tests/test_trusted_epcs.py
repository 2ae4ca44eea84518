"""Values built without the constructor's checks are ones it would accept.

Tag URI parsers, ``decode_sgtin96``, ``plan`` and ``parse_ipv6`` build their
values unchecked once every field has been proven valid; the public
constructor must accept each such value as is, and pickle and copy, which
rebuild through it, must give it back equal.
"""

import copy
import ipaddress
import pickle

from hypothesis import given, strategies as st

from epc_ipv6 import (
    DerivationPlan,
    Epc,
    EpcScheme,
    Ipv6Address,
    Sgtin96Fields,
    decode_sgtin96,
    encode_sgtin96,
    parse_epc,
    parse_ipv6,
    parse_tag_uri,
    plan,
    render_tag_uri,
)
from epc_ipv6.epc import SGTIN96_PARTITIONS, pack_sgtin96


@st.composite
def tag_uris(draw):
    """A valid SGTIN-96, GIAI-96 or SGLN-96 tag URI."""
    scheme = draw(st.sampled_from([EpcScheme.SGTIN96, EpcScheme.GIAI96, EpcScheme.SGLN96]))
    company_bits, company_digits, _, item_digits = SGTIN96_PARTITIONS[draw(st.integers(0, 6))]
    filter_value = draw(st.integers(0, 7))
    company = f"{draw(st.integers(0, 10**company_digits - 1)):0{company_digits}d}"
    if scheme is EpcScheme.SGTIN96:
        item = f"{draw(st.integers(0, 10**item_digits - 1)):0{item_digits}d}"
        fields = [company, item, draw(st.integers(0, 2**38 - 1))]
    elif scheme is EpcScheme.GIAI96:
        fields = [company, draw(st.integers(0, 2 ** (82 - company_bits) - 1))]
    else:
        location_digits = 12 - company_digits
        # a 12-digit company prefix leaves an empty location reference
        location = (f"{draw(st.integers(0, 10**location_digits - 1)):0{location_digits}d}"
                    if location_digits else "")
        fields = [company, location, draw(st.integers(0, 2**41 - 1))]
    return f"urn:epc:tag:{scheme.value}:" + ".".join(map(str, [filter_value, *fields]))


@given(tag_uris())
def test_parsed_uri_round_trips(uri):
    epc = parse_tag_uri(uri)
    assert type(epc) is Epc and epc.uri == uri
    assert Epc(*epc._astuple()) == epc
    assert pickle.loads(pickle.dumps(epc)) == epc
    assert copy.copy(epc) == epc


@st.composite
def sgtin96_values(draw):
    """A 96-bit SGTIN-96 value whose fields fit the digit counts of its partition."""
    partition = draw(st.integers(0, 6))
    _, company_digits, _, item_digits = SGTIN96_PARTITIONS[partition]
    return pack_sgtin96(
        draw(st.integers(0, 7)), partition, draw(st.integers(0, 10**company_digits - 1)),
        draw(st.integers(0, 10**item_digits - 1)), draw(st.integers(0, 2**38 - 1)),
    )


@given(sgtin96_values())
def test_decoded_fields_rebuild_equal(value):
    fields = decode_sgtin96(value)
    assert type(fields) is Sgtin96Fields
    assert Sgtin96Fields(*fields._astuple()) == fields
    assert encode_sgtin96(fields) == value


@given(sgtin96_values())
def test_sgtin96_bank_reads_as_its_tag_uri(value):
    serial = decode_sgtin96(value).serial
    expected = parse_tag_uri(render_tag_uri(Epc(EpcScheme.SGTIN96, 96, value, serial)))
    for text in (f"0x{value:024x}", f"0X{value:024X}"):
        epc = parse_epc(text)
        assert epc == expected
        assert Epc(*epc._astuple()) == epc


# raw EPCs up to 128 bits, so every payload width 1..128 is planned
RAW_EPCS = st.integers(1, 128).flatmap(
    lambda width: st.integers(0, 2**width - 1).map(
        lambda value: Epc(EpcScheme.RAW, width, value, value)
    )
)


@given(st.one_of(tag_uris().map(parse_tag_uri), RAW_EPCS))
def test_plan_rebuilds_equal(epc):
    derivation_plan = plan(epc)
    assert type(derivation_plan) is DerivationPlan
    assert DerivationPlan(*derivation_plan._astuple()) == derivation_plan
    assert pickle.loads(pickle.dumps(derivation_plan)) == derivation_plan


@given(st.integers(0, 2**128 - 1), st.booleans())
def test_parsed_address_rebuilds_equal(value, exploded):
    stdlib = ipaddress.IPv6Address(value)
    address = parse_ipv6(stdlib.exploded if exploded else str(stdlib))
    assert type(address) is Ipv6Address and address.value == value
    assert Ipv6Address(*address._astuple()) == address
    assert copy.copy(address) == address
