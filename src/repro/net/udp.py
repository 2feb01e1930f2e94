"""UDP datagram codec (RFC 768) with pseudo-header checksums."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.ipv4 import IpProtocol, pseudo_header_checksum
from repro.net.guard import guarded_decode

_HEADER = struct.Struct("!HHHH")


@dataclass
class UdpDatagram:
    """A decoded UDP datagram."""

    src_port: int
    dst_port: int
    payload: bytes = b""

    def __post_init__(self):
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")

    def encode(self, src_ip: str = None, dst_ip: str = None) -> bytes:
        """Encode the datagram.

        When ``src_ip``/``dst_ip`` are given, a real RFC 768 checksum over
        the IPv4 pseudo-header is computed; otherwise the checksum is 0
        (legal for UDP over IPv4, and common on embedded stacks).
        """
        length = _HEADER.size + len(self.payload)
        segment = _HEADER.pack(self.src_port, self.dst_port, length, 0) + self.payload
        if src_ip is None or dst_ip is None:
            return segment
        checksum = pseudo_header_checksum(src_ip, dst_ip, IpProtocol.UDP, segment)
        if checksum == 0:
            checksum = 0xFFFF  # RFC 768: transmitted as all ones
        return segment[:6] + struct.pack("!H", checksum) + segment[8:]

    def round_trips(self) -> bool:
        """True when ``decode(encode())`` rebuilds this datagram exactly:
        plain ``int`` ports and an exact ``bytes`` payload, as ``decode``
        yields them."""
        return (
            type(self.payload) is bytes
            and type(self.src_port) is int
            and type(self.dst_port) is int
        )

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "UdpDatagram":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated UDP datagram: {len(data)} bytes")
        src_port, dst_port, length, _checksum = _HEADER.unpack_from(data)
        if length < _HEADER.size:
            raise ValueError(f"bad UDP length field: {length}")
        payload = data[_HEADER.size:length]
        return cls(src_port=src_port, dst_port=dst_port, payload=payload)

    def __len__(self) -> int:
        return _HEADER.size + len(self.payload)
