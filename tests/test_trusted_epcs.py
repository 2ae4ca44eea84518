"""EPCs built without the constructor's checks are ones it would accept.

Tag URI parsers build their ``Epc`` values unchecked once every field has
been checked; the public constructor must accept each such value as is,
and pickle and copy, which rebuild through it, must give it back equal.
"""

import copy
import pickle

from hypothesis import given, strategies as st

from epc_ipv6 import Epc, EpcScheme, parse_tag_uri
from epc_ipv6.epc import SGTIN96_PARTITIONS


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
