"""Per-EPC paths load no enum member and no ``_trusted`` classmethod through
its class, only the module-level aliases the ``epc`` module docstring
describes: no code object of these functions, nested comprehensions
included, names the class or the classmethod.
"""

from types import CodeType

import pytest

from epc_ipv6 import addressing, bench, epc, ipv6, ons

HOT_PATHS = [
    epc.parse_tag_uri,
    epc.Epc.__init__,
    epc.parse_epc,
    epc.render_tag_uri,
    epc.company_prefix_of,
    epc.decode_sgtin96,
    epc.pack_sgtin96,
    ons._parse_pattern,
    ons.OnsRegistry.lookup,
    ons.resolve,
    ipv6.parse_ipv6,
    ipv6.format_canonical,
    addressing._takes_full_epc,
    addressing.method_function(addressing.AddressingMethodId.HYBRID_ONS),
    addressing.integer_kernel(addressing.AddressingMethodId.HYBRID_ONS),
    addressing._hybrid_step,
    addressing._direct64_step,
    addressing._pad_step,  # and the step it returns, a nested code object
    addressing._one_pad_step,
    addressing._epc_standard_step,
    addressing._iso_standard_step,
    bench.generate_population,
    bench._sgtin96_class,
    bench._distinct_serials,
    bench.compare,
    bench._measure,
]

CLASS_LEVEL_NAMES = {"EpcScheme", "AddressingMethodId", "TagStandard", "PayloadSource",
                     "_trusted"}


def code_objects(code: CodeType):
    """A code object and every one nested in it: functions, lambdas and, before
    Python 3.12, comprehensions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_objects(const)


@pytest.mark.parametrize("function", HOT_PATHS, ids=lambda f: f.__qualname__)
def test_no_class_level_load(function):
    names = {name for code in code_objects(function.__code__) for name in code.co_names}
    assert not names & CLASS_LEVEL_NAMES


def test_a_class_level_load_is_seen():
    def build(value):
        return [epc.Epc._trusted(epc.EpcScheme.RAW, 8, v, v, None) for v in value]

    names = {name for code in code_objects(build.__code__) for name in code.co_names}
    assert names & CLASS_LEVEL_NAMES == {"EpcScheme", "_trusted"}
