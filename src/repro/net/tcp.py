"""TCP segment codec (RFC 793).

Used both by the simulator's lightweight connection handshakes and by
the port scanner, which sends SYNs and interprets SYN/ACK vs. RST
exactly as nmap's TCP SYN scan does (§3.1).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.net.ipv4 import IpProtocol, pseudo_header_checksum
from repro.net.guard import guarded_decode


class TcpFlags(enum.IntFlag):
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


#: ``TcpFlags(b)`` for every flag byte, so that decoding a segment does
#: not run the enum constructor.
_FLAGS_BY_BYTE = tuple(TcpFlags(value) for value in range(256))

#: Plain-int masks: ``&`` on a ``TcpFlags`` runs the enum constructor.
_SYN, _ACK, _RST = int(TcpFlags.SYN), int(TcpFlags.ACK), int(TcpFlags.RST)
_SYN_ACK = _SYN | _ACK

_HEADER = struct.Struct("!HHIIBBHHH")


@dataclass
class TcpSegment:
    """A decoded TCP segment (no options support; data offset is 5)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: TcpFlags = TcpFlags(0)
    window: int = 65535
    payload: bytes = b""

    def __post_init__(self):
        if not isinstance(self.flags, TcpFlags):
            self.flags = TcpFlags(self.flags)
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")

    @property
    def is_syn(self) -> bool:
        return int(self.flags) & _SYN_ACK == _SYN

    @property
    def is_synack(self) -> bool:
        return int(self.flags) & _SYN_ACK == _SYN_ACK

    @property
    def is_rst(self) -> bool:
        return bool(int(self.flags) & _RST)

    def round_trips(self) -> bool:
        """True when ``decode(encode())`` rebuilds this segment exactly.

        ``decode`` yields plain ``int`` fields, 32-bit ``seq``/``ack``
        and an exact ``bytes`` payload; a segment holding anything else
        (an enum port, a ``bytearray``, a sequence number ``encode``
        masks) decodes to something unequal in type or value.
        """
        return (
            type(self.payload) is bytes
            and type(self.flags) is TcpFlags
            and type(self.src_port) is int
            and type(self.dst_port) is int
            and type(self.window) is int
            and type(self.seq) is int
            and type(self.ack) is int
            and 0 <= self.seq <= 0xFFFFFFFF
            and 0 <= self.ack <= 0xFFFFFFFF
        )

    def encode(self, src_ip: str = None, dst_ip: str = None) -> bytes:
        segment = (
            _HEADER.pack(
                self.src_port,
                self.dst_port,
                self.seq & 0xFFFFFFFF,
                self.ack & 0xFFFFFFFF,
                5 << 4,  # data offset
                int(self.flags),
                self.window,
                0,  # checksum placeholder
                0,  # urgent pointer
            )
            + self.payload
        )
        if src_ip is None or dst_ip is None:
            return segment
        checksum = pseudo_header_checksum(src_ip, dst_ip, IpProtocol.TCP, segment)
        return segment[:16] + struct.pack("!H", checksum) + segment[18:]

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "TcpSegment":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated TCP segment: {len(data)} bytes")
        (src_port, dst_port, seq, ack, offset_byte, flags, window, _ck, _urg) = (
            _HEADER.unpack_from(data)
        )
        header_len = (offset_byte >> 4) * 4
        if header_len < 20 or len(data) < header_len:
            raise ValueError(f"bad TCP data offset: {header_len}")
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=_FLAGS_BY_BYTE[flags],
            window=window,
            payload=data[header_len:],
        )

    def __len__(self) -> int:
        return _HEADER.size + len(self.payload)
