"""Ethernet II frame codec.

The paper's traffic classifier uses the Ethernet ``type`` field to
separate non-IP traffic (ARP, EAPOL, LLC) from IP traffic (§3.5), and
the local-traffic filter (Appendix C.1) relies on the destination MAC's
I/G bit to keep multicast/broadcast frames.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.net.mac import MacAddress
from repro.net.guard import guarded_decode


class EtherType(enum.IntEnum):
    """EtherType values used across the testbed."""

    IPV4 = 0x0800
    ARP = 0x0806
    IPV6 = 0x86DD
    EAPOL = 0x888E
    #: Anything below 1536 is an IEEE 802.3 length, treated as LLC.
    LLC = 0x0000

    @classmethod
    def classify(cls, value: int) -> "EtherType":
        return _ETHERTYPES.get(value, cls.LLC)


#: Every EtherType member by value; any other value (an 802.3 length
#: below 0x600 or an unknown type) classifies as LLC.
_ETHERTYPES = {member.value: member for member in EtherType}

_HEADER = struct.Struct("!6s6sH")


@dataclass
class EthernetFrame:
    """A decoded Ethernet II frame (or 802.3/LLC when ``ethertype < 0x600``)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: bytes = b""

    def __post_init__(self):
        if not isinstance(self.dst, MacAddress):
            self.dst = MacAddress(self.dst)
        if not isinstance(self.src, MacAddress):
            self.src = MacAddress(self.src)

    @property
    def kind(self) -> EtherType:
        return EtherType.classify(self.ethertype)

    @property
    def is_multicast(self) -> bool:
        """True when the destination has the I/G bit set (incl. broadcast)."""
        return self.dst.is_multicast

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast

    def encode(self) -> bytes:
        return _HEADER.pack(self.dst.packed, self.src.packed, self.ethertype) + self.payload

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "EthernetFrame":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated Ethernet frame: {len(data)} bytes")
        dst, src, ethertype = _HEADER.unpack_from(data)
        return cls(
            dst=MacAddress(dst),
            src=MacAddress(src),
            ethertype=ethertype,
            payload=data[_HEADER.size:],
        )

    def __len__(self) -> int:
        return _HEADER.size + len(self.payload)
