"""MAC (EUI-48) address type.

MAC addresses are central to the paper: they are the persistent device
identifiers leaked via ARP, DHCP, mDNS, SSDP and UPnP payloads, and the
unit by which the AP capture splits traffic into per-device pcaps.
"""

from __future__ import annotations

import re
from functools import total_ordering

from repro.net.ipv4 import ipv4_is_multicast, ipv4_packed

_MAC_RE = re.compile(
    r"^([0-9A-Fa-f]{2})[:-]([0-9A-Fa-f]{2})[:-]([0-9A-Fa-f]{2})"
    r"[:-]([0-9A-Fa-f]{2})[:-]([0-9A-Fa-f]{2})[:-]([0-9A-Fa-f]{2})$"
)
_MAC_BARE_RE = re.compile(r"^[0-9A-Fa-f]{12}$")


@total_ordering
class MacAddress:
    """An immutable EUI-48 MAC address.

    Accepts colon/dash separated strings, bare 12-hex-digit strings,
    6-byte ``bytes``, or another :class:`MacAddress`.
    """

    __slots__ = ("_octets",)

    def __init__(self, value):
        # Bytes first: every decoded frame builds two addresses this way.
        # Exact bytes are kept as they are; calling ``bytes()`` on them
        # would return the same object, only slower.
        if isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC address needs 6 bytes, got {len(value)}")
            self._octets = value if type(value) is bytes else bytes(value)
        elif isinstance(value, MacAddress):
            self._octets = value._octets
        elif isinstance(value, str):
            self._octets = self._parse_str(value)
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise ValueError(f"MAC integer out of range: {value:#x}")
            self._octets = value.to_bytes(6, "big")
        else:
            raise TypeError(f"cannot build MacAddress from {type(value).__name__}")

    @staticmethod
    def _parse_str(text: str) -> bytes:
        match = _MAC_RE.match(text)
        if match:
            return bytes(int(group, 16) for group in match.groups())
        if _MAC_BARE_RE.match(text):
            return bytes.fromhex(text)
        raise ValueError(f"invalid MAC address: {text!r}")

    @property
    def packed(self) -> bytes:
        """The 6-byte big-endian wire representation."""
        return self._octets

    @property
    def oui(self) -> str:
        """The first three octets ("organizationally unique identifier")."""
        return ":".join(f"{byte:02x}" for byte in self._octets[:3])

    @property
    def nic_suffix(self) -> str:
        """The last three octets (device-specific part)."""
        return ":".join(f"{byte:02x}" for byte in self._octets[3:])

    @property
    def is_broadcast(self) -> bool:
        return self._octets == b"\xff" * 6

    @property
    def is_multicast(self) -> bool:
        """True when the I/G bit is set (includes broadcast)."""
        return bool(self._octets[0] & 0x01)

    @property
    def is_unicast(self) -> bool:
        return not self.is_multicast

    @property
    def is_locally_administered(self) -> bool:
        return bool(self._octets[0] & 0x02)

    def compact(self) -> str:
        """Bare lowercase hex without separators (e.g. ``9c8ecd0a331b``)."""
        return self._octets.hex()

    def __str__(self) -> str:
        return self._octets.hex(":")

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, MacAddress):
            return self._octets == other._octets
        if isinstance(other, str):
            try:
                return self._octets == MacAddress(other)._octets
            except ValueError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, MacAddress):
            return self._octets < other._octets
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._octets)

    def __int__(self) -> int:
        return int.from_bytes(self._octets, "big")


BROADCAST_MAC = MacAddress("ff:ff:ff:ff:ff:ff")

#: The multicast MAC used by mDNS (224.0.0.251 mapped per RFC 1112).
MDNS_V4_MAC = MacAddress("01:00:5e:00:00:fb")

#: The multicast MAC used by SSDP (239.255.255.250 mapped per RFC 1112).
SSDP_V4_MAC = MacAddress("01:00:5e:7f:ff:fa")


def ipv4_multicast_mac(group: str) -> MacAddress:
    """Map an IPv4 multicast group to its Ethernet multicast MAC (RFC 1112)."""
    if not ipv4_is_multicast(group):
        raise ValueError(f"{group} is not an IPv4 multicast group")
    packed = ipv4_packed(group)
    return MacAddress(bytes([0x01, 0x00, 0x5E, packed[1] & 0x7F]) + packed[2:])


def ipv6_multicast_mac(group: str) -> MacAddress:
    """Map an IPv6 multicast group to its Ethernet multicast MAC (RFC 2464)."""
    import ipaddress

    addr = ipaddress.IPv6Address(group)
    if not addr.is_multicast:
        raise ValueError(f"{group} is not an IPv6 multicast group")
    return MacAddress(b"\x33\x33" + addr.packed[-4:])
