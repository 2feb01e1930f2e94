"""ARP packet codec (RFC 826, Ethernet/IPv4 only).

ARP is both the most prevalent protocol in the testbed (92% of devices,
Fig. 2) and a harvesting vector: Amazon Echo devices broadcast-scan the
entire local IP space daily and unicast-probe most other devices (§5.1),
collecting MAC addresses that act as persistent identifiers.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.net.guard import guarded_decode
from repro.net.ipv4 import ipv4_packed, ipv4_text
from repro.net.mac import MacAddress


class ArpOp(enum.IntEnum):
    REQUEST = 1
    REPLY = 2


_HEADER = struct.Struct("!HHBBH6s4s6s4s")


@dataclass
class ArpPacket:
    """An Ethernet/IPv4 ARP request or reply."""

    op: ArpOp
    sender_mac: MacAddress
    sender_ip: str
    target_mac: MacAddress
    target_ip: str

    def __post_init__(self):
        self.op = ArpOp(self.op)
        self.sender_mac = MacAddress(self.sender_mac)
        self.target_mac = MacAddress(self.target_mac)
        self.sender_ip = ipv4_text(self.sender_ip)
        self.target_ip = ipv4_text(self.target_ip)

    def encode(self) -> bytes:
        return _HEADER.pack(
            1,  # hardware type: Ethernet
            0x0800,  # protocol type: IPv4
            6,  # hardware address length
            4,  # protocol address length
            int(self.op),
            self.sender_mac.packed,
            ipv4_packed(self.sender_ip),
            self.target_mac.packed,
            ipv4_packed(self.target_ip),
        )

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "ArpPacket":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated ARP packet: {len(data)} bytes")
        (htype, ptype, hlen, plen, op, smac, sip, tmac, tip) = _HEADER.unpack_from(data)
        if htype != 1 or ptype != 0x0800 or hlen != 6 or plen != 4:
            raise ValueError(
                f"unsupported ARP encoding: htype={htype} ptype={ptype:#x}"
            )
        return cls(
            op=ArpOp(op),
            sender_mac=MacAddress(smac),
            sender_ip=sip,  # packed; __post_init__ makes it text
            target_mac=MacAddress(tmac),
            target_ip=tip,
        )

    def __len__(self) -> int:
        return _HEADER.size

    @property
    def is_probe(self) -> bool:
        """True for an ARP probe (sender IP 0.0.0.0, RFC 5227)."""
        return self.op is ArpOp.REQUEST and self.sender_ip == "0.0.0.0"

    @property
    def is_gratuitous(self) -> bool:
        """True for a gratuitous announcement (sender IP == target IP)."""
        return self.sender_ip == self.target_ip and self.sender_ip != "0.0.0.0"
