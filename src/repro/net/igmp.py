"""IGMP codec (RFC 2236 v2 / RFC 3376 v3 membership reports).

56% of testbed devices emit IGMP (Fig. 2); devices join multicast
groups (mDNS 224.0.0.251, SSDP 239.255.255.250) via IGMP reports, so
the reports themselves reveal which discovery protocols a device runs.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.net.ipv4 import internet_checksum, ipv4_packed, ipv4_text
from repro.net.guard import guarded_decode


class IgmpType(enum.IntEnum):
    MEMBERSHIP_QUERY = 0x11
    V2_MEMBERSHIP_REPORT = 0x16
    LEAVE_GROUP = 0x17
    V3_MEMBERSHIP_REPORT = 0x22


_HEADER = struct.Struct("!BBH4s")


@dataclass
class IgmpMessage:
    """A decoded IGMPv2 message (v3 reports are carried as one group record)."""

    igmp_type: int
    group: str = "0.0.0.0"
    max_resp_time: int = 0

    def encode(self) -> bytes:
        msg = _HEADER.pack(
            self.igmp_type,
            self.max_resp_time,
            0,
            ipv4_packed(self.group),
        )
        checksum = internet_checksum(msg)
        return msg[:2] + struct.pack("!H", checksum) + msg[4:]

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "IgmpMessage":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated IGMP message: {len(data)} bytes")
        igmp_type, max_resp, _checksum, group = _HEADER.unpack_from(data)
        return cls(
            igmp_type=igmp_type,
            group=ipv4_text(group),
            max_resp_time=max_resp,
        )

    @classmethod
    def join(cls, group: str) -> "IgmpMessage":
        return cls(IgmpType.V2_MEMBERSHIP_REPORT, group)

    @classmethod
    def leave(cls, group: str) -> "IgmpMessage":
        return cls(IgmpType.LEAVE_GROUP, group)
