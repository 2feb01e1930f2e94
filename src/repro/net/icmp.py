"""ICMP and ICMPv6 codecs.

ICMP is used by 78% of testbed devices; ICMPv6 neighbor discovery
(55% of devices, §5.1) leaks sender MAC addresses through the source
link-layer address option (RFC 4861), which we encode for real.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.net.ipv4 import internet_checksum
from repro.net.mac import MacAddress
from repro.net.guard import guarded_decode

_HEADER = struct.Struct("!BBH")


class IcmpType(enum.IntEnum):
    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8


#: The echo builders' types as plain ``int``, which is what ``decode``
#: reads, so a built echo equals its decode in type as well as value.
_ECHO_REQUEST, _ECHO_REPLY = int(IcmpType.ECHO_REQUEST), int(IcmpType.ECHO_REPLY)


class Icmpv6Type(enum.IntEnum):
    ECHO_REQUEST = 128
    ECHO_REPLY = 129
    MLD_REPORT = 131
    ROUTER_SOLICITATION = 133
    ROUTER_ADVERTISEMENT = 134
    NEIGHBOR_SOLICITATION = 135
    NEIGHBOR_ADVERTISEMENT = 136
    MLDV2_REPORT = 143


@dataclass
class IcmpMessage:
    """A decoded ICMPv4 message."""

    icmp_type: int
    code: int = 0
    body: bytes = b""

    def encode(self) -> bytes:
        msg = _HEADER.pack(self.icmp_type, self.code, 0) + self.body
        checksum = internet_checksum(msg)
        return msg[:2] + struct.pack("!H", checksum) + msg[4:]

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "IcmpMessage":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated ICMP message: {len(data)} bytes")
        icmp_type, code, _checksum = _HEADER.unpack_from(data)
        return cls(icmp_type=icmp_type, code=code, body=data[_HEADER.size:])

    @classmethod
    def echo_request(cls, ident: int = 1, seq: int = 1, data: bytes = b"") -> "IcmpMessage":
        return cls(_ECHO_REQUEST, 0, struct.pack("!HH", ident, seq) + data)

    @classmethod
    def echo_reply(cls, ident: int = 1, seq: int = 1, data: bytes = b"") -> "IcmpMessage":
        return cls(_ECHO_REPLY, 0, struct.pack("!HH", ident, seq) + data)


@dataclass
class Icmpv6Message:
    """A decoded ICMPv6 message, with neighbor-discovery helpers."""

    icmp_type: int
    code: int = 0
    body: bytes = b""

    def encode(self) -> bytes:
        # The real ICMPv6 checksum covers an IPv6 pseudo-header; on the
        # simulated LAN we checksum the message alone, which is
        # sufficient for integrity checks during decoding.
        msg = _HEADER.pack(self.icmp_type, self.code, 0) + self.body
        checksum = internet_checksum(msg)
        return msg[:2] + struct.pack("!H", checksum) + msg[4:]

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "Icmpv6Message":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated ICMPv6 message: {len(data)} bytes")
        icmp_type, code, _checksum = _HEADER.unpack_from(data)
        return cls(icmp_type=icmp_type, code=code, body=data[_HEADER.size:])

    @classmethod
    def neighbor_solicitation(cls, target_ip6_packed: bytes, source_mac) -> "Icmpv6Message":
        """Build an NS carrying the source link-layer address option.

        The embedded MAC is exactly the identifier leak §5.1 describes.
        """
        mac = MacAddress(source_mac)
        body = b"\x00" * 4 + target_ip6_packed
        body += struct.pack("!BB", 1, 1) + mac.packed  # option: SLLA
        return cls(Icmpv6Type.NEIGHBOR_SOLICITATION, 0, body)

    @classmethod
    def neighbor_advertisement(cls, target_ip6_packed: bytes, target_mac) -> "Icmpv6Message":
        mac = MacAddress(target_mac)
        body = struct.pack("!I", 0x60000000)  # solicited + override flags
        body += target_ip6_packed
        body += struct.pack("!BB", 2, 1) + mac.packed  # option: TLLA
        return cls(Icmpv6Type.NEIGHBOR_ADVERTISEMENT, 0, body)

    def embedded_mac(self) -> "MacAddress | None":
        """Extract a link-layer address option from an ND message, if any."""
        if self.icmp_type not in (
            Icmpv6Type.NEIGHBOR_SOLICITATION,
            Icmpv6Type.NEIGHBOR_ADVERTISEMENT,
        ):
            return None
        offset = 20  # 4 reserved/flags + 16 target address
        while offset + 2 <= len(self.body):
            opt_type = self.body[offset]
            opt_len = self.body[offset + 1] * 8
            if opt_len == 0:
                break
            if opt_type in (1, 2) and offset + 8 <= len(self.body):
                return MacAddress(self.body[offset + 2 : offset + 8])
            offset += opt_len
        return None
