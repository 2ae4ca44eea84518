import json
import sys

import pytest
from hypothesis import settings

from epc_ipv6 import Ipv6Address, parse_ipv6

# CI runs the properties that back every unchecked build with
# --hypothesis-profile ci; a local run keeps Hypothesis's default budget
settings.register_profile("ci", max_examples=1000)

# ONS address used throughout: high bits seed every derived address
ONS_TEXT = "3ffe:ffff:4004:1952:0:7251:bc9b:a73f"


@pytest.fixture
def ons_address() -> Ipv6Address:
    return parse_ipv6(ONS_TEXT)


@pytest.fixture
def registry_file(tmp_path):
    """Write a registry JSON file and return its path."""

    def _write(entries, name="registry.json"):
        path = tmp_path / name
        path.write_text(json.dumps(entries), encoding="utf-8")
        return path

    return _write


@pytest.fixture
def wildcard_registry_path(registry_file):
    return registry_file([{"pattern": "*", "ons_ip": ONS_TEXT}])


@pytest.fixture
def int_limit_off():
    """Python's limit on the digits int() reads from text switched off, as by
    PYTHONINTMAXSTRDIGITS=0, for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)
