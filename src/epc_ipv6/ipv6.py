"""128-bit IPv6 address values and their canonical text form.

Text goes through the platform C library's ``inet_pton`` and ``inet_ntop``.
The canonical form is RFC 5952's section 4: lowercase hex, no leading zeros
inside a group, the longest run of two or more zero groups (leftmost on
ties) compressed to ``::``, and a single zero group never compressed. It
writes only hex groups where section 5 allows a dotted-quad tail, as
``ipaddress`` does; the C library writes ``::/96`` and ``::ffff:0:0/96``
with one, so those two ranges, led by five or more zero groups, are written
here with that run compressed. Parsing accepts every full, zero-suppressed
and ``::``-compressed form, with or without an IPv4 tail; text the C parser
refuses goes to the stdlib ``ipaddress``, whose message the error carries.
"""

from __future__ import annotations

from functools import total_ordering

# the C core of ``socket``: importing ``socket`` itself would add its enums
# and Python wrappers to every CLI start-up
from _socket import AF_INET6, inet_ntop, inet_pton

from ._frozen import Frozen
from .errors import Ipv6TextError

# CPython folds no constant this wide, so ``1 << 128`` inline is computed per call
_ADDRESS_LIMIT = 1 << 128


def format_canonical(addr: Ipv6Address) -> str:
    """Canonical text form of an address; inverse of :func:`parse_ipv6`."""
    value = addr.value
    # inet_ntop writes these two ranges as dotted quads, ::1.2.3.4 and ::ffff:1.2.3.4
    if value >> 32 not in (0, 0xFFFF):
        return inet_ntop(AF_INET6, value.to_bytes(16, "big"))
    if value >> 32:
        return "::ffff:%x:%x" % (value >> 16 & 0xFFFF, value & 0xFFFF)
    if value >> 16:
        return "::%x:%x" % (value >> 16, value & 0xFFFF)
    return "::%x" % value if value else "::"


@total_ordering
class Ipv6Address(Frozen):
    """An IPv6 address as one unsigned 128-bit integer; ordered by value."""

    __slots__ = _fields = ("value",)
    value: int

    def __init__(self, value: int):
        self._check(value)
        if not 0 <= value < _ADDRESS_LIMIT:
            raise ValueError(f"address value {value:#x} does not fit 128 bits")
        self._store(value)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value < other.value

    __str__ = format_canonical


_trusted_address = Ipv6Address._trusted


def parse_ipv6(text: str) -> Ipv6Address:
    """Parse full, zero-suppressed, or ``::``-compressed IPv6 text."""
    if not isinstance(text, str):
        raise Ipv6TextError(f"expected IPv6 text, got {type(text).__name__}")
    if "%" in text:
        raise Ipv6TextError(f"zone identifiers are not addresses: {text!r}")
    try:
        # 16 bytes always hold a value below 2**128
        return _trusted_address(int.from_bytes(inet_pton(AF_INET6, text), "big"))
    except (OSError, ValueError):  # ValueError: an embedded NUL or a lone surrogate
        pass
    # ipaddress words the error; loaded only here, it stays off the start-up path
    import ipaddress

    try:
        return _trusted_address(int(ipaddress.IPv6Address(text)))
    except ipaddress.AddressValueError as exc:
        raise Ipv6TextError(str(exc)) from None
