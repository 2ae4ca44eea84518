"""Address derivation strategies.

The hybrid method splices a variable number of high-order bits from the
ONS server's address onto the EPC (or its serial number): with an n-bit
payload v, the result is ``(ons >> n << n) | v``, so the low n bits are
the payload and the remaining 128-n bits keep their ONS values. The five
baseline methods all use a fixed 64/64 split between network prefix and
interface identifier.

Every operation here is a pure function of its arguments; outputs are
reproducible golden vectors.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from functools import partial

from ._frozen import Frozen, setfield
from .epc import Epc, EpcScheme, bit_length
from .errors import (
    EpcTooWideError,
    MissingSerialError,
    MissingValueError,
    SerialTooWideError,
)
from .ipv6 import Ipv6Address

IPV6_BITS = 128
IID_BITS = 64
_IID_MASK = (1 << IID_BITS) - 1


class PayloadSource(str, Enum):
    """Which EPC component feeds the low bits of the derived address."""

    FULL_EPC = "full_epc"
    SERIAL_NUMBER = "serial_number"


class DerivationPlan(Frozen):
    """Bit budget of one hybrid derivation: n payload bits, 128-n prefix bits."""

    __slots__ = _fields = ("source", "input_bits", "prefix_bits")
    source: PayloadSource
    input_bits: int
    prefix_bits: int

    def __init__(self, source: PayloadSource, input_bits: int, prefix_bits: int):
        if not 1 <= input_bits <= IPV6_BITS:
            raise ValueError(f"input_bits {input_bits} outside 1..{IPV6_BITS}")
        if input_bits + prefix_bits != IPV6_BITS:
            raise ValueError(
                f"input_bits {input_bits} + prefix_bits {prefix_bits} "
                f"must equal {IPV6_BITS}"
            )
        setfield(self, "source", source)
        setfield(self, "input_bits", input_bits)
        setfield(self, "prefix_bits", prefix_bits)


class AddressingMethodId(str, Enum):
    """Closed inventory of derivation methods; each maps to one operation."""

    HYBRID_ONS = "hybrid_ons"
    DIRECT64 = "direct64"
    XOR_PAD = "xor_pad"
    OR_PAD = "or_pad"
    ONE_PAD_SERIAL = "one_pad_serial"
    ISO_EPC = "iso_epc"


class TagStandard(str, Enum):
    """Input tagging for the ISO/EPC method: full value vs serial number."""

    EPC = "epc"
    ISO = "iso"


# hoisted for the per-derivation hot path
_RAW = EpcScheme.RAW
_FULL_EPC = PayloadSource.FULL_EPC
_SERIAL_NUMBER = PayloadSource.SERIAL_NUMBER


def _choose_payload(epc: Epc) -> tuple[PayloadSource, int]:
    """Pick the payload per the hybrid branch rule.

    EPCs at most 64 bits wide contribute their full value; wider ones
    contribute the serial number. The branch looks at the declared scheme
    width, except that raw EPCs are judged by the actual value width.
    """
    value = epc.value
    if epc.declared_bits <= IID_BITS or (
        epc.scheme is _RAW and value is not None and value.bit_length() <= IID_BITS
    ):
        if value is None:
            raise MissingValueError("EPC has no numeric value to derive from")
        return _FULL_EPC, value
    serial = epc.serial_number
    if serial is None:
        raise MissingSerialError(
            f"{epc.declared_bits}-bit EPC needs a serial number for derivation"
        )
    return _SERIAL_NUMBER, serial


def plan(epc: Epc) -> DerivationPlan:
    """Bit-budget split the hybrid method will use for this EPC.

    The payload width is the minimal binary width of the chosen value,
    not the declared width of the scheme.
    """
    source, payload = _choose_payload(epc)
    n = bit_length(payload)
    if n > IPV6_BITS:
        raise SerialTooWideError(f"{n}-bit payload exceeds the {IPV6_BITS}-bit address")
    return DerivationPlan(source=source, input_bits=n, prefix_bits=IPV6_BITS - n)


def derive_hybrid(epc: Epc, ons_ip: Ipv6Address) -> Ipv6Address:
    """Splice the high 128-n ONS bits onto the n-bit payload."""
    _, payload = _choose_payload(epc)
    n = payload.bit_length() or 1
    if n > IPV6_BITS:
        raise SerialTooWideError(f"{n}-bit payload exceeds the {IPV6_BITS}-bit address")
    return Ipv6Address((ons_ip.value >> n << n) | payload)


def derive_direct64(epc: Epc, net_prefix: Ipv6Address) -> Ipv6Address:
    """Fixed split: 64-bit network prefix plus the zero-extended EPC value."""
    if epc.declared_bits > IID_BITS:
        raise EpcTooWideError(
            f"{epc.declared_bits}-bit EPC does not fit a {IID_BITS}-bit interface id"
        )
    if epc.value is None:
        raise MissingValueError("EPC has no numeric value to derive from")
    return Ipv6Address((net_prefix.value >> IID_BITS << IID_BITS) | epc.value)


def _fold64(value: int) -> int:
    """XOR-fold successive 64-bit chunks; identity below 2**64."""
    folded = 0
    while value:
        folded ^= value & _IID_MASK
        value >>= IID_BITS
    return folded


def _check_salt(salt: int) -> None:
    if not 0 <= salt < 1 << IID_BITS:
        raise ValueError(f"salt {salt:#x} does not fit {IID_BITS} bits")


def derive_xor_pad(epc: Epc, net_prefix: Ipv6Address, salt: int = 0) -> Ipv6Address:
    """XOR method: fold the EPC to 64 bits, XOR a salt, append to the prefix.

    Values at most 64 bits wide are zero-extended, so with salt 0 this
    reduces to :func:`derive_direct64`.
    """
    _check_salt(salt)
    if epc.value is None:
        raise MissingValueError("EPC has no numeric value to derive from")
    iid = _fold64(epc.value) ^ salt
    return Ipv6Address((net_prefix.value >> IID_BITS << IID_BITS) | iid)


def derive_or_pad(epc: Epc, net_prefix: Ipv6Address, salt: int = 0) -> Ipv6Address:
    """OR method: as the XOR method but the salt is combined with bitwise OR."""
    _check_salt(salt)
    if epc.value is None:
        raise MissingValueError("EPC has no numeric value to derive from")
    iid = _fold64(epc.value) | salt
    return Ipv6Address((net_prefix.value >> IID_BITS << IID_BITS) | iid)


def derive_one_pad(epc: Epc, net_prefix: Ipv6Address) -> Ipv6Address:
    """Serial-number method: pad the serial to 64 bits with one-bits on the left."""
    if epc.serial_number is None:
        raise MissingSerialError("one-padding needs a serial number")
    serial = epc.serial_number
    m = bit_length(serial)
    if m > IID_BITS:
        raise SerialTooWideError(f"{m}-bit serial does not fit {IID_BITS} bits")
    iid = ((1 << IID_BITS) - (1 << m)) | serial
    return Ipv6Address((net_prefix.value >> IID_BITS << IID_BITS) | iid)


def derive_iso_epc(
    epc: Epc,
    net_prefix: Ipv6Address,
    standard: TagStandard = TagStandard.EPC,
) -> Ipv6Address:
    """ISO/EPC method: 64-bit interface id from either standard's identifier.

    EPC-tagged inputs use the full value, zero-extended below 64 bits and
    cut to the low-order 64 bits above; ISO-tagged inputs use the serial
    number the same way.
    """
    if standard is TagStandard.EPC:
        if epc.value is None:
            raise MissingValueError("EPC-standard input has no numeric value")
        iid = epc.value & _IID_MASK
    else:
        if epc.serial_number is None:
            raise MissingSerialError("ISO-standard input has no serial number")
        iid = epc.serial_number & _IID_MASK
    return Ipv6Address((net_prefix.value >> IID_BITS << IID_BITS) | iid)


# method -> (operation, the keyword option it takes, if any); the address
# argument is the ONS address for hybrid_ons and the network prefix otherwise
_METHODS: dict[AddressingMethodId, tuple[Callable[..., Ipv6Address], str | None]] = {
    AddressingMethodId.HYBRID_ONS: (derive_hybrid, None),
    AddressingMethodId.DIRECT64: (derive_direct64, None),
    AddressingMethodId.XOR_PAD: (derive_xor_pad, "salt"),
    AddressingMethodId.OR_PAD: (derive_or_pad, "salt"),
    AddressingMethodId.ONE_PAD_SERIAL: (derive_one_pad, None),
    AddressingMethodId.ISO_EPC: (derive_iso_epc, "standard"),
}


def _operation(
    method: AddressingMethodId, salt: int, standard: TagStandard
) -> tuple[Callable[..., Ipv6Address], dict | None]:
    """The method's operation and its option as a keyword argument, if it takes one."""
    if not isinstance(method, AddressingMethodId):
        raise ValueError(f"unknown addressing method {method!r}")
    operation, option = _METHODS[method]
    if option is None:
        return operation, None
    return operation, {option: salt if option == "salt" else standard}


def method_function(
    method: AddressingMethodId,
    salt: int = 0,
    standard: TagStandard = TagStandard.EPC,
) -> Callable[[Epc, Ipv6Address], Ipv6Address]:
    """Bind a method id to a ``(epc, address) -> address`` callable.

    The address argument is the ONS address for ``hybrid_ons`` and the
    network prefix for every baseline.
    """
    operation, options = _operation(method, salt, standard)
    return operation if options is None else partial(operation, **options)


def derive(
    method: AddressingMethodId,
    epc: Epc,
    address: Ipv6Address,
    salt: int = 0,
    standard: TagStandard = TagStandard.EPC,
) -> Ipv6Address:
    """Derive one address with the named method."""
    operation, options = _operation(method, salt, standard)
    if options is None:
        return operation(epc, address)
    return operation(epc, address, **options)
