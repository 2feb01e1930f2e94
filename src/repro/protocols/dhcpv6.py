"""DHCPv6 codec (RFC 8415) — Solicit/Advertise and the client-id leak.

Figure 2 shows DHCPv6 among the multicast protocols; IPv6-capable
devices solicit on ff02::1:2 and expose a DUID that commonly embeds the
MAC address (DUID-LL / DUID-LLT) — one more persistent-identifier leak.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.mac import MacAddress
from repro.net.guard import guarded_decode

DHCPV6_CLIENT_PORT = 546
DHCPV6_SERVER_PORT = 547
ALL_DHCP_RELAY_AGENTS = "ff02::1:2"


class Dhcpv6MessageType(enum.IntEnum):
    SOLICIT = 1
    ADVERTISE = 2
    REQUEST = 3
    REPLY = 7
    INFORMATION_REQUEST = 11


class Dhcpv6Option(enum.IntEnum):
    CLIENT_ID = 1
    SERVER_ID = 2
    ORO = 6  # option request option
    ELAPSED_TIME = 8
    DNS_SERVERS = 23
    FQDN = 39


def duid_ll(mac) -> bytes:
    """DUID-LL: type 3, hardware type 1 (Ethernet), the raw MAC."""
    return struct.pack("!HH", 3, 1) + MacAddress(mac).packed


def mac_from_duid(duid: bytes) -> Optional[MacAddress]:
    """Recover the MAC from a DUID-LL / DUID-LLT, if it embeds one."""
    if len(duid) < 4:
        return None
    duid_type, hardware = struct.unpack_from("!HH", duid)
    if hardware != 1:
        return None
    if duid_type == 3 and len(duid) >= 10:  # DUID-LL
        return MacAddress(duid[4:10])
    if duid_type == 1 and len(duid) >= 14:  # DUID-LLT (4-byte time first)
        return MacAddress(duid[8:14])
    return None


@dataclass
class Dhcpv6Message:
    """A DHCPv6 message: 1-byte type, 3-byte transaction id, TLV options."""

    message_type: Dhcpv6MessageType
    transaction_id: int  # 24 bits
    options: Dict[int, bytes] = field(default_factory=dict)

    def encode(self) -> bytes:
        out = bytearray(struct.pack("!I", (int(self.message_type) << 24) | (self.transaction_id & 0xFFFFFF)))
        for code, value in self.options.items():
            out += struct.pack("!HH", code, len(value)) + value
        return bytes(out)

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "Dhcpv6Message":
        if len(data) < 4:
            raise ValueError(f"truncated DHCPv6 message: {len(data)} bytes")
        (head,) = struct.unpack_from("!I", data)
        try:
            message_type = Dhcpv6MessageType(head >> 24)
        except ValueError as error:
            raise ValueError(f"unknown DHCPv6 message type {head >> 24}") from error
        message = cls(message_type=message_type, transaction_id=head & 0xFFFFFF)
        offset = 4
        while offset + 4 <= len(data):
            code, length = struct.unpack_from("!HH", data, offset)
            offset += 4
            if offset + length > len(data):
                raise ValueError("truncated DHCPv6 option")
            message.options[code] = data[offset : offset + length]
            offset += length
        if offset != len(data):
            raise ValueError("trailing bytes after DHCPv6 options")
        return message

    @classmethod
    def solicit(cls, mac, transaction_id: int, fqdn: str = "") -> "Dhcpv6Message":
        message = cls(Dhcpv6MessageType.SOLICIT, transaction_id & 0xFFFFFF)
        message.options[Dhcpv6Option.CLIENT_ID] = duid_ll(mac)
        message.options[Dhcpv6Option.ELAPSED_TIME] = b"\x00\x00"
        message.options[Dhcpv6Option.ORO] = struct.pack("!H", Dhcpv6Option.DNS_SERVERS)
        if fqdn:
            message.options[Dhcpv6Option.FQDN] = b"\x00" + fqdn.encode("utf-8")
        return message

    @property
    def client_mac(self) -> Optional[MacAddress]:
        duid = self.options.get(Dhcpv6Option.CLIENT_ID)
        return mac_from_duid(duid) if duid else None

    @property
    def fqdn(self) -> Optional[str]:
        raw = self.options.get(Dhcpv6Option.FQDN)
        return raw[1:].decode("utf-8", "replace") if raw and len(raw) > 1 else None
