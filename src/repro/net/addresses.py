"""Ethernet (MAC) and IPv4 addresses.

Both address types are small immutable value objects backed by integers, so
they hash fast and compare cheaply inside switch tables and ARP caches.
The multicast group bit of a MAC address (least-significant bit of the
first octet) is what lets the ST-TCP testbed flood client traffic to both
the primary and the backup (Figure 2 of the paper).
"""

from __future__ import annotations

import re
from functools import total_ordering

from repro.errors import AddressError

__all__ = ["MacAddress", "IPAddress", "BROADCAST_MAC"]

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")
_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


@total_ordering
class MacAddress:
    """A 48-bit Ethernet address.

    Construct from a string (``"02:00:00:00:00:01"``) or an int.  The
    *multicast bit* is bit 0 of the first transmitted octet; frames sent to
    a multicast address are flooded by the switch to every port.
    """

    __slots__ = ("_value", "_str")

    def __init__(self, value: "str | int | MacAddress"):
        self._str = None  # rendered on first str(); the value never changes
        if isinstance(value, MacAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise AddressError(f"MAC integer out of range: {value:#x}")
            self._value = value
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"malformed MAC address: {value!r}")
            self._value = int(value.replace("-", ":").replace(":", ""), 16)
        else:
            raise AddressError(f"cannot build MacAddress from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The raw integer value of the address."""
        return self._value

    @property
    def is_multicast(self) -> bool:
        """True if the group (multicast) bit is set — includes broadcast."""
        return bool((self._value >> 40) & 0x01)

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self._value == (1 << 48) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self._value == other._value

    def __lt__(self, other: "MacAddress") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        text = self._str
        if text is None:
            raw = f"{self._value:012x}"
            text = self._str = ":".join(raw[i:i + 2]
                                        for i in range(0, 12, 2))
        return text

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


BROADCAST_MAC = MacAddress("ff:ff:ff:ff:ff:ff")


@total_ordering
class IPAddress:
    """An IPv4 address (dotted quad or int)."""

    __slots__ = ("_value", "_str")

    def __init__(self, value: "str | int | IPAddress"):
        self._str = None  # rendered on first str(); the value never changes
        if isinstance(value, IPAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise AddressError(f"IPv4 integer out of range: {value:#x}")
            self._value = value
        elif isinstance(value, str):
            match = _IP_RE.match(value)
            if not match:
                raise AddressError(f"malformed IPv4 address: {value!r}")
            octets = [int(g) for g in match.groups()]
            if any(o > 255 for o in octets):
                raise AddressError(f"IPv4 octet out of range: {value!r}")
            self._value = (octets[0] << 24 | octets[1] << 16
                           | octets[2] << 8 | octets[3])
        else:
            raise AddressError(f"cannot build IPAddress from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The raw integer value of the address."""
        return self._value

    def in_subnet(self, network: "IPAddress", prefix_len: int) -> bool:
        """True if this address lies inside ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad prefix length: {prefix_len}")
        if prefix_len == 0:
            return True
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
        return (self._value & mask) == (network._value & mask)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPAddress) and self._value == other._value

    def __lt__(self, other: "IPAddress") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        text = self._str
        if text is None:
            v = self._value
            text = self._str = (f"{v >> 24 & 255}.{v >> 16 & 255}."
                                f"{v >> 8 & 255}.{v & 255}")
        return text

    def __repr__(self) -> str:
        return f"IPAddress('{self}')"
