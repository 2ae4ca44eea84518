"""Address derivation strategies.

Every method is one splice: with an n-bit payload v, the address is
``(ons >> n << n) | v``, so the low n bits are the payload and the high
128-n bits are those of the given address. The hybrid method's payload is
the EPC or its serial number, n its width; the five baselines put a
64-bit interface id under a 64-bit network prefix. Each method is a
payload step ``epc -> (payload, n)``; :func:`integer_kernel` binds it to
the splice on plain integers, and :func:`method_function` is the checked
``Ipv6Address`` of that kernel's result. Every operation here is a pure
function of its arguments; outputs are reproducible golden vectors.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from operator import or_, xor

from ._frozen import Frozen
# per-EPC code loads enum members and _trusted through module-level aliases,
# each bound where its class is defined: see the epc module docstring
from .epc import _RAW, Epc
from .errors import (
    EpcTooWideError,
    InvalidOptionError,
    MissingSerialError,
    MissingValueError,
    SerialTooWideError,
)
from .ipv6 import _ADDRESS_LIMIT, Ipv6Address, _trusted_address

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
        self._check(source, input_bits, prefix_bits)
        if not 1 <= input_bits <= IPV6_BITS:
            raise ValueError(f"input_bits {input_bits} outside 1..{IPV6_BITS}")
        if input_bits + prefix_bits != IPV6_BITS:
            raise ValueError(
                f"input_bits {input_bits} + prefix_bits {prefix_bits} "
                f"must equal {IPV6_BITS}"
            )
        self._store(source, input_bits, prefix_bits)


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


def _takes_full_epc(epc: Epc) -> bool:
    """Hybrid branch rule: the payload is the full value of a raw EPC whose
    value is at most 64 bits wide, else the serial number. ``Epc`` makes
    every other scheme 96 bits wide and gives every raw EPC a value."""
    return epc.scheme is _RAW and epc.value.bit_length() <= IID_BITS


# payload steps: epc -> (payload, n); a baseline's payload is its interface id
def _hybrid_step(epc: Epc) -> tuple[int, int]:
    """The hybrid payload and its minimal binary width n, 1 for zero."""
    payload = epc.value if _takes_full_epc(epc) else epc.serial_number
    if payload is None:  # only a serial number can be absent
        raise MissingSerialError(
            f"{epc.declared_bits}-bit EPC needs a serial number for derivation"
        )
    n = payload.bit_length() or 1
    if n > IPV6_BITS:
        raise SerialTooWideError(f"{n}-bit payload exceeds the {IPV6_BITS}-bit address")
    return payload, n


def plan(epc: Epc) -> DerivationPlan:
    """Bit-budget split of the hybrid method for this EPC: n is the minimal
    binary width of the chosen value, not the declared width of the scheme."""
    _, n = _hybrid_step(epc)  # 1 <= n <= 128
    full = _takes_full_epc(epc)
    source = PayloadSource.FULL_EPC if full else PayloadSource.SERIAL_NUMBER
    return DerivationPlan._trusted(source, n, IPV6_BITS - n)


def _direct64_step(epc: Epc) -> tuple[int, int]:
    # only a raw EPC is this narrow, and a raw EPC always has a value
    if epc.declared_bits > IID_BITS:
        raise EpcTooWideError(
            f"{epc.declared_bits}-bit EPC does not fit a {IID_BITS}-bit interface id"
        )
    return epc.value, IID_BITS


def _pad_step(combine: Callable[[int, int], int], salt: int) -> Callable:
    """XOR-fold the EPC's 64-bit chunks (identity below 2**64), combine the salt.

    An ``Epc`` value is below 2**256, so its four chunks fold in one expression."""
    # a float salt would fail in combine on the first EPC, and True would act as 1
    if salt.__class__ is not int:
        raise InvalidOptionError(f"salt must be an int, got {salt!r}")
    if not 0 <= salt < 1 << IID_BITS:
        raise InvalidOptionError(f"salt {salt:#x} does not fit {IID_BITS} bits")

    def step(epc: Epc) -> tuple[int, int]:
        value = epc.value
        if value is None:
            raise MissingValueError("EPC has no numeric value to derive from")
        folded = (value ^ value >> 64 ^ value >> 128 ^ value >> 192) & _IID_MASK
        return combine(folded, salt), IID_BITS

    return step


def _one_pad_step(epc: Epc) -> tuple[int, int]:
    serial = epc.serial_number
    if serial is None:
        raise MissingSerialError("one-padding needs a serial number")
    m = serial.bit_length() or 1
    if m > IID_BITS:
        raise SerialTooWideError(f"{m}-bit serial does not fit {IID_BITS} bits")
    return ((1 << IID_BITS) - (1 << m)) | serial, IID_BITS


def _epc_standard_step(epc: Epc) -> tuple[int, int]:
    if epc.value is None:
        raise MissingValueError("EPC-standard input has no numeric value")
    return epc.value & _IID_MASK, IID_BITS


def _iso_standard_step(epc: Epc) -> tuple[int, int]:
    if epc.serial_number is None:
        raise MissingSerialError("ISO-standard input has no serial number")
    return epc.serial_number & _IID_MASK, IID_BITS


def _iso_epc_step(standard: TagStandard | str) -> Callable:
    try:
        standard = TagStandard(standard)
    except ValueError:
        raise InvalidOptionError(
            f"unknown tag standard {standard!r}; choose from epc, iso"
        ) from None
    return _epc_standard_step if standard is TagStandard.EPC else _iso_standard_step


# method -> its payload step, given the salt and the standard; only the
# option a method takes is checked, once, when the step is bound
_STEPS: dict[AddressingMethodId, Callable[..., Callable]] = {
    AddressingMethodId.HYBRID_ONS: lambda salt, standard: _hybrid_step,
    AddressingMethodId.DIRECT64: lambda salt, standard: _direct64_step,
    AddressingMethodId.XOR_PAD: lambda salt, standard: _pad_step(xor, salt),
    AddressingMethodId.OR_PAD: lambda salt, standard: _pad_step(or_, salt),
    AddressingMethodId.ONE_PAD_SERIAL: lambda salt, standard: _one_pad_step,
    AddressingMethodId.ISO_EPC: lambda salt, standard: _iso_epc_step(standard),
}


def integer_kernel(
    method: AddressingMethodId, salt: int = 0, standard: TagStandard | str = TagStandard.EPC
) -> Callable[[Epc, int], int]:
    """Bind a method to an ``(epc, address value) -> address value`` kernel.

    The address is the ONS address for ``hybrid_ons`` and the network prefix
    for every baseline. The method and the option it takes are checked here,
    once, not per call: a method that is not an :class:`AddressingMethodId`
    raises ``ValueError``, and a salt that is not an int in 64 bits or an
    unknown standard raises :class:`InvalidOptionError`. Each step yields
    ``payload < 2**n <= 2**128``, so an in-range address gives an in-range
    result.
    """
    if not isinstance(method, AddressingMethodId):
        raise ValueError(f"method must be AddressingMethodId, got {method!r}")
    step = _STEPS[method](salt, standard)

    def kernel(epc: Epc, ons: int) -> int:
        payload, n = step(epc)
        return ons >> n << n | payload

    return kernel


def method_function(
    method: AddressingMethodId, salt: int = 0, standard: TagStandard | str = TagStandard.EPC
) -> Callable[[Epc, Ipv6Address], Ipv6Address]:
    """Bind a method id to a ``(epc, address) -> address`` callable, the
    ``Ipv6Address`` of :func:`integer_kernel`'s result; see it for the address
    and the options. ``Ipv6Address``'s class and range check runs inline: an
    ``int`` in 128 bits is stored unchecked, and any other value goes to
    ``Ipv6Address(...)``, which raises its own error."""
    kernel = integer_kernel(method, salt, standard)

    def bound(epc: Epc, address: Ipv6Address) -> Ipv6Address:
        value = kernel(epc, address.value)
        if value.__class__ is int and 0 <= value < _ADDRESS_LIMIT:
            return _trusted_address(value)
        return Ipv6Address(value)

    return bound


def derive(
    method: AddressingMethodId, epc: Epc, address: Ipv6Address,
    salt: int = 0, standard: TagStandard | str = TagStandard.EPC,
) -> Ipv6Address:
    """Derive one address with the named method."""
    return method_function(method, salt, standard)(epc, address)


# the methods that take no option, bound once
_hybrid = method_function(AddressingMethodId.HYBRID_ONS)
_direct64 = method_function(AddressingMethodId.DIRECT64)
_one_pad = method_function(AddressingMethodId.ONE_PAD_SERIAL)


def derive_hybrid(epc: Epc, ons_ip: Ipv6Address) -> Ipv6Address:
    """Splice the high 128-n ONS bits onto the n-bit payload."""
    return _hybrid(epc, ons_ip)


def derive_direct64(epc: Epc, net_prefix: Ipv6Address) -> Ipv6Address:
    """Fixed split: 64-bit network prefix plus the zero-extended EPC value."""
    return _direct64(epc, net_prefix)


def derive_xor_pad(epc: Epc, net_prefix: Ipv6Address, salt: int = 0) -> Ipv6Address:
    """XOR method: fold the EPC to 64 bits, XOR a salt, append to the prefix;
    with salt 0, EPCs of at most 64 bits give :func:`derive_direct64`."""
    return derive(AddressingMethodId.XOR_PAD, epc, net_prefix, salt=salt)


def derive_or_pad(epc: Epc, net_prefix: Ipv6Address, salt: int = 0) -> Ipv6Address:
    """OR method: as the XOR method but the salt is combined with bitwise OR."""
    return derive(AddressingMethodId.OR_PAD, epc, net_prefix, salt=salt)


def derive_one_pad(epc: Epc, net_prefix: Ipv6Address) -> Ipv6Address:
    """Serial-number method: pad the serial to 64 bits with one-bits on the left."""
    return _one_pad(epc, net_prefix)


def derive_iso_epc(
    epc: Epc, net_prefix: Ipv6Address, standard: TagStandard | str = TagStandard.EPC
) -> Ipv6Address:
    """ISO/EPC method: the low 64 bits of the EPC value (standard ``epc``) or
    of the serial number (``iso``), zero-extended, under the prefix."""
    return derive(AddressingMethodId.ISO_EPC, epc, net_prefix, standard=standard)
