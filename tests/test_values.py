"""Value semantics shared by the immutable value types.

Each type is built positionally and by keyword; equal values compare and
hash equal, fields cannot be assigned or deleted, the repr names every
field, class patterns bind fields in order, and pickle and deepcopy give
back an equal, working value.
"""

import copy
import importlib
import pickle
import pkgutil
from enum import Enum

import pytest

import epc_ipv6
from epc_ipv6 import (
    DerivationPlan,
    Epc,
    EpcScheme,
    Ipv6Address,
    OnsRecord,
    OnsRegistry,
    PayloadSource,
    PopulationSpec,
    Sgtin96Fields,
    resolve,
)
from epc_ipv6._frozen import Frozen

ONS = Ipv6Address(0x2001_0DB8 << 96 | 1)
OTHER_ONS = Ipv6Address(0x2001_0DB8 << 96 | 2)
RECORD = OnsRecord("sgtin-96", ONS)
WILDCARD = OnsRecord("*", OTHER_ONS)

# name -> (type, positional args, the same value by keyword, one field changed,
#          expected repr)
CASES = {
    "Epc": (
        Epc,
        (EpcScheme.GIAI96, 96, None, 5, "urn:epc:tag:giai-96:3.0614141.5"),
        dict(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=5,
             uri="urn:epc:tag:giai-96:3.0614141.5"),
        dict(scheme=EpcScheme.GIAI96, declared_bits=96, serial_number=5,
             uri="urn:epc:tag:giai-96:3.0614142.5"),
        f"Epc(scheme={EpcScheme.GIAI96!r}, declared_bits=96, value=None, "
        f"serial_number=5, uri='urn:epc:tag:giai-96:3.0614141.5')",
    ),
    "Sgtin96Fields": (
        Sgtin96Fields,
        (3, 5, 614141, 812345, 6789),
        dict(filter_value=3, partition=5, company_prefix=614141,
             item_reference=812345, serial=6789),
        dict(filter_value=3, partition=5, company_prefix=614141,
             item_reference=812345, serial=6790),
        "Sgtin96Fields(filter_value=3, partition=5, company_prefix=614141, "
        "item_reference=812345, serial=6789)",
    ),
    "Ipv6Address": (
        Ipv6Address,
        (7,),
        dict(value=7),
        dict(value=8),
        "Ipv6Address(value=7)",
    ),
    "DerivationPlan": (
        DerivationPlan,
        (PayloadSource.SERIAL_NUMBER, 13, 115),
        dict(source=PayloadSource.SERIAL_NUMBER, input_bits=13, prefix_bits=115),
        dict(source=PayloadSource.FULL_EPC, input_bits=13, prefix_bits=115),
        f"DerivationPlan(source={PayloadSource.SERIAL_NUMBER!r}, "
        f"input_bits=13, prefix_bits=115)",
    ),
    "OnsRecord": (
        OnsRecord,
        ("sgtin-96", ONS),
        dict(pattern="sgtin-96", ons_ip=ONS),
        dict(pattern="sgtin-96", ons_ip=OTHER_ONS),
        f"OnsRecord(pattern='sgtin-96', ons_ip={ONS!r})",
    ),
    "OnsRegistry": (
        OnsRegistry,
        ((RECORD, WILDCARD),),
        dict(records=(RECORD, WILDCARD)),
        dict(records=(WILDCARD,)),
        f"OnsRegistry(records=({RECORD!r}, {WILDCARD!r}))",
    ),
    "PopulationSpec": (
        PopulationSpec,
        (EpcScheme.RAW, 10, 7, None, None),
        dict(scheme=EpcScheme.RAW, count=10, seed=7),
        dict(scheme=EpcScheme.RAW, count=10, seed=8),
        "PopulationSpec(scheme=<EpcScheme.RAW: 'raw'>, count=10, seed=7, "
        "serial_width_bits=None, serials_per_class=None)",
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    cls, args, kwargs, changed, expected_repr = CASES[request.param]
    return cls, cls(*args), cls(**kwargs), cls(**changed), expected_repr


def test_positional_and_keyword_construction_agree(case):
    _, positional, keyword, _, _ = case
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert not positional != keyword


def test_changed_field_compares_unequal(case):
    _, value, _, changed, _ = case
    assert value != changed
    assert not value == changed


def test_other_types_never_compare_equal(case):
    _, value, _, _, _ = case
    assert value != object()
    assert value != tuple(getattr(value, name) for name in _field_names(value))


def test_equal_values_share_a_set_entry(case):
    _, value, keyword, changed, _ = case
    assert len({value, keyword, changed}) == 2


def test_fields_cannot_be_assigned_or_deleted(case):
    _, value, _, changed, _ = case
    for name in _field_names(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(changed, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == case[2]


def test_repr_names_every_field(case):
    _, value, _, _, expected_repr = case
    assert repr(value) == expected_repr


def test_pickle_round_trip(case):
    cls, value, _, _, _ = case
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is cls
        assert restored == value
        assert hash(restored) == hash(value)
        assert repr(restored) == repr(value)


def test_copy_and_deepcopy(case):
    cls, value, _, _, _ = case
    for restored in (copy.copy(value), copy.deepcopy(value)):
        assert type(restored) is cls
        assert restored == value
        assert hash(restored) == hash(value)


def test_class_pattern_binds_fields_in_order(case):
    cls, value, _, _, _ = case
    names = _field_names(value)
    match value:
        case cls(first):
            assert first == getattr(value, names[0])
        case _:
            raise AssertionError(f"{cls.__name__} did not match its class pattern")
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls", [cls for cls, *_ in CASES.values()], ids=list(CASES))
def test_check_store_and_trusted_come_from_one_compile(cls):
    # one exec per class: the four functions share the namespace it ran in
    scope = cls._check.__globals__
    assert cls._store.__globals__ is scope and cls._trusted.__func__.__globals__ is scope
    assert cls._astuple.__globals__ is scope


def test_restored_registry_still_resolves():
    registry = OnsRegistry((RECORD, WILDCARD))
    epc = Epc(EpcScheme.GIAI96, 96, serial_number=5)
    raw = Epc(EpcScheme.RAW, 8, value=5)
    for restored in (pickle.loads(pickle.dumps(registry)), copy.deepcopy(registry)):
        assert resolve(restored, epc) == OTHER_ONS
        assert resolve(restored, raw) == OTHER_ONS
        assert restored.resolve(epc) == OTHER_ONS


def test_restored_record_keeps_its_key():
    restored = pickle.loads(pickle.dumps(OnsRecord("sgtin-96:0614141", ONS)))
    assert restored.key == (EpcScheme.SGTIN96, "0614141")


def test_ipv6_addresses_order_by_value():
    addresses = [Ipv6Address(v) for v in (3, 1 << 127, 0, 2, 1)]
    assert sorted(addresses) == [Ipv6Address(v) for v in (0, 1, 2, 3, 1 << 127)]
    low, high = Ipv6Address(1), Ipv6Address(2)
    assert low < high and low <= high and high > low and high >= low
    assert low <= Ipv6Address(1) and low >= Ipv6Address(1)
    assert not low > high
    with pytest.raises(TypeError):
        low < 2  # noqa: B015


# each built at first and failed later, far from the constructor: encode_sgtin96
# raised TypeError, _parse_pattern or resolve AttributeError, resolve returned
# the text "::1" as an address, and a plan carried floats or a plain string;
# name -> (type, positional args, the field the refusal names)
WRONG_CLASS = {
    "float partition": (Sgtin96Fields, (3, 5.0, 614141, 812345, 6789), "partition"),
    "float company prefix": (Sgtin96Fields, (3, 5, 614141.0, 812345, 6789), "company_prefix"),
    "bool filter": (Sgtin96Fields, (True, 5, 614141, 812345, 6789), "filter_value"),
    "int pattern": (OnsRecord, (5, ONS), "pattern"),
    "text ons_ip": (OnsRecord, ("*", "::1"), "ons_ip"),
    "int records": (OnsRegistry, ((1, 2),), "records"),
    "None as records": (OnsRegistry, (None,), "records"),
    "int as records": (OnsRegistry, (5,), "records"),
    "float as records": (OnsRegistry, (1.5,), "records"),
    "float bits": (DerivationPlan, (PayloadSource.FULL_EPC, 64.0, 64.0), "input_bits"),
    "float prefix bits": (DerivationPlan, (PayloadSource.FULL_EPC, 64, 64.0), "prefix_bits"),
    "text source": (DerivationPlan, ("full_epc", 64, 64), "source"),
}


class Text(str):
    """A str subclass, which no field takes."""


# type -> (valid positional args, fields that take None, fields that take text)
VALID_ARGS = {
    **{cls: (args, set(), set()) for cls, args, *_ in CASES.values()},
    Epc: (CASES["Epc"][1], {"value", "serial_number", "uri"}, {"uri"}),
    OnsRecord: (CASES["OnsRecord"][1], set(), {"pattern"}),
    PopulationSpec: ((EpcScheme.RAW, 10, 7, None, None), {"serial_width_bits", "serials_per_class"},
                     set()),
}


def _wrong_values(valid, optional, text):
    """A float, a bool, text, a str subclass and None, each where the field takes none."""
    as_text = valid.value if isinstance(valid, Enum) else str(valid)
    yield "float", float(valid) if type(valid) is int else 1.5
    yield "bool", True
    if not text:
        yield "text", as_text  # an enum's own text in place of the enum
    yield "str subclass", Text(as_text)
    if not optional:
        yield "None", None


# every field of every value type, made wrong in each way with the others valid;
# a registry's records are made wrong by one record
for cls, (args, optional, text) in VALID_ARGS.items():
    for index, field in enumerate(cls.__match_args__):
        for kind, wrong in _wrong_values(args[index], field in optional, field in text):
            if cls is OnsRegistry:
                wrong = (RECORD, wrong)
            row = args[:index] + (wrong,) + args[index + 1:]
            WRONG_CLASS[f"{cls.__name__}.{field} {kind}"] = (cls, row, field)


@pytest.mark.parametrize("cls, args, field", WRONG_CLASS.values(), ids=list(WRONG_CLASS))
def test_fields_of_the_wrong_class_are_refused(cls, args, field):
    with pytest.raises(ValueError) as excinfo:
        cls(*args)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value).startswith(f"{cls.__name__}.{field} must ")


def test_wrong_class_table_covers_every_value_type():
    # a value type added to the package must join the table
    for module in pkgutil.iter_modules(epc_ipv6.__path__):
        importlib.import_module(f"epc_ipv6.{module.name}")
    value_types = {
        cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("epc_ipv6.")
    }
    assert value_types == set(VALID_ARGS)
    assert {(cls, field) for cls, _, field in WRONG_CLASS.values()} == {
        (cls, field) for cls in VALID_ARGS for field in cls.__match_args__
    }


class PlainEpc(Epc):
    pass


class SlottedEpc(Epc):
    __slots__ = ()


class TaggedEpc(Epc):
    # a slot of its own, left unset: the inherited __init__ still stores Epc's fields
    __slots__ = ("tag",)


class PlainAddress(Ipv6Address):
    pass


class SlottedAddress(Ipv6Address):
    __slots__ = ()


class Redeclared(Ipv6Address):
    # its own _fields compiles its own check, store and trusted build; the
    # annotation is text, as the package's modules write theirs
    _fields = ("value",)
    value: "int"


class SlottedRedeclared(Ipv6Address):
    # slotted too: its _store and _trusted set the slot Ipv6Address declares
    __slots__ = ()
    _fields = ("value",)
    value: "int"


class Reslotted(Ipv6Address):
    # redeclares Ipv6Address's slot as well: its _store sets its own, which it reads
    __slots__ = ("value",)
    _fields = ("value",)
    value: "int"


@pytest.mark.parametrize("cls, args", [
    (PlainEpc, (EpcScheme.GIAI96, 96, None, 5)),
    (SlottedEpc, (EpcScheme.RAW, 8, 5, 5)),
    (TaggedEpc, (EpcScheme.SGTIN96, 96, None, 5)),
    (PlainAddress, (7,)),
    (SlottedAddress, (7,)),
    (Redeclared, (7,)),
    (SlottedRedeclared, (7,)),
    (Reslotted, (7,)),
])
def test_user_subclasses_build_compare_and_pickle(cls, args):
    value = cls(*args)
    assert value._astuple()[:len(args)] == args
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    assert value != cls.__mro__[1](*args)  # never equal to a value of another class
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(restored) is cls and restored == value
    with pytest.raises(AttributeError):
        value.value = 8


@pytest.mark.parametrize("cls", [PlainEpc, SlottedEpc, TaggedEpc, PlainAddress, SlottedAddress])
def test_subclass_declaring_no_fields_inherits_every_method(cls):
    assert not {"_check", "_store", "_trusted", "_astuple", "__match_args__"} & set(vars(cls))
    assert cls._store is cls.__mro__[1]._store and cls.__match_args__ == cls.__mro__[1]._fields


def test_slotted_redeclared_fields_are_checked():
    with pytest.raises(ValueError, match=r"^SlottedRedeclared\.value must be int, got 7\.5$"):
        SlottedRedeclared(7.5)
    assert SlottedRedeclared._trusted(7) == SlottedRedeclared(7)


def test_redeclaring_subclass_with_a_slot_of_its_own_never_misstores():
    # _store and _trusted take Ipv6Address's slot, then its own; the inherited
    # __init__ passes one value, which must not land in the tag slot
    class TaggedRedeclared(Ipv6Address):
        __slots__ = ("tag",)
        _fields = ("value",)
        value: "int"

    with pytest.raises(TypeError, match=r"_store\(\) missing 1 required positional argument: 'tag'"):
        TaggedRedeclared(7)
    value = TaggedRedeclared._trusted(7, "t")
    assert (value.value, value.tag) == (7, "t") and value._astuple() == (7,)


def test_annotation_may_be_a_class():
    # a module without ``from __future__ import annotations`` stores the class
    # itself as a field's annotation, not its name
    namespace = {"__name__": __name__, "Ipv6Address": Ipv6Address}
    exec("class ClassAnnotated(Ipv6Address):\n"
         "    _fields = ('value',)\n"
         "    value: int\n", namespace)
    cls = namespace["ClassAnnotated"]
    assert cls.__annotations__ == {"value": int}
    value = cls(7)
    assert value._astuple() == (7,) and value == cls(7) and value != Ipv6Address(7)
    assert cls._trusted(7) == value
    with pytest.raises(ValueError, match=r"^ClassAnnotated\.value must be int, got 7\.5$"):
        cls(7.5)


@pytest.mark.parametrize("cls, args", [
    *((cls, args) for cls, args, *_ in CASES.values()),
    (PlainEpc, (EpcScheme.GIAI96, 96, None, 5)),
    (TaggedEpc, (EpcScheme.SGTIN96, 96, None, 5)),
    (SlottedAddress, (7,)),
], ids=[*CASES, "PlainEpc", "TaggedEpc", "SlottedAddress"])
def test_trusted_builds_what_the_constructor_builds(cls, args):
    # _trusted takes a value per slot of the class whose _store it shares, in
    # __slots__ order, and builds an instance of the class it is called on
    checked = cls(*args)
    slots = next(c for c in cls.__mro__ if "_store" in c.__dict__).__slots__
    values = [getattr(checked, name) for name in slots]
    trusted = cls._trusted(*values)
    assert type(trusted) is cls and trusted == checked
    assert [getattr(trusted, name) for name in slots] == values


def _field_names(value):
    return {
        Epc: ("scheme", "declared_bits", "value", "serial_number", "uri"),
        Sgtin96Fields: (
            "filter_value", "partition", "company_prefix", "item_reference", "serial"
        ),
        Ipv6Address: ("value",),
        DerivationPlan: ("source", "input_bits", "prefix_bits"),
        OnsRecord: ("pattern", "ons_ip"),
        OnsRegistry: ("records",),
        PopulationSpec: ("scheme", "count", "seed", "serial_width_bits", "serials_per_class"),
    }[type(value)]
