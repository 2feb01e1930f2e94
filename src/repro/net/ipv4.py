"""IPv4 packet codec with real header checksums.

The classifier (§3.5) extracts the ``protocol`` field from IP headers to
identify transport protocols, and the Appendix C.1 filter keeps packets
whose source *and* destination fall in RFC 1918 space.

Every frame the simulator sends or receives converts its addresses
between dotted-quad text and packed bytes, while a home LAN has only a
few hundred distinct addresses.  :func:`ipv4_text`, :func:`ipv4_packed`
and :func:`ipv4_is_multicast` therefore parse each value through
:mod:`ipaddress` once and remember the result.  They accept exactly what
``ipaddress.IPv4Address`` accepts and raise what it raises, every time:
a failed parse is never remembered.
"""

from __future__ import annotations

import enum
import functools
import ipaddress
import struct
from dataclasses import dataclass
from typing import Tuple

from repro.net.guard import guarded_decode

#: How many distinct address values the codec remembers, least recently
#: used first out.  A seed-7 study fills 518 entries (259 addresses, as
#: text and as bytes), ingest of a 600 s lab capture 259, and a capture
#: recorded under a chaos fault plan 502, the extra values read from
#: damaged headers, most of them once.  4096 leaves room for networks
#: several times the lab's size, at about 300 bytes an entry (1.3 MB
#: when full).  A miss costs up to twice one ``ipaddress`` parse, but
#: ``Ipv4Packet.decode`` makes one lookup per address where it used to
#: parse twice, so a capture whose addresses never repeat decodes no
#: slower than before.
IPV4_CACHE_SIZE = 4096


# ``typed``: True and 1.0 are equal keys, but only the bool is an address.
@functools.lru_cache(maxsize=IPV4_CACHE_SIZE, typed=True)
def _parse(value) -> Tuple[str, bytes, bool]:
    address = ipaddress.IPv4Address(value)
    return str(address), address.packed, address.is_multicast


def _lookup(value) -> Tuple[str, bytes, bool]:
    try:
        return _parse(value)
    except TypeError:
        # An unhashable value (bytearray, list) cannot be a cache key:
        # parse it uncached so the caller sees ipaddress's own error.
        return _parse.__wrapped__(value)


def ipv4_text(value) -> str:
    """Canonical dotted-quad text of an IPv4 text, packed or int value."""
    return _lookup(value)[0]


def ipv4_packed(value) -> bytes:
    """The 4-byte network-order form of an IPv4 text, packed or int value."""
    return _lookup(value)[1]


def ipv4_is_multicast(value) -> bool:
    """True when the IPv4 value lies in 224.0.0.0/4."""
    return _lookup(value)[2]


class IpProtocol(enum.IntEnum):
    """IP protocol numbers observed across the study."""

    ICMP = 1
    IGMP = 2
    TCP = 6
    UDP = 17
    IPV6_ICMP = 58

    @classmethod
    def name_of(cls, value: int) -> str:
        try:
            return cls(value).name
        except ValueError:
            return f"IPPROTO_{value}"


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum.

    Since 2**16 is 1 modulo 0xFFFF, the one's-complement sum of the
    16-bit words is the whole input, read as one big-endian integer,
    modulo 0xFFFF, except that a nonzero sum folds to 0xFFFF where the
    residue is 0.  An odd trailing byte is padded with a zero byte.
    """
    value = int.from_bytes(data, "big")
    if len(data) % 2:
        value <<= 8
    if not value:
        return 0xFFFF
    return 0xFFFF - (value % 0xFFFF or 0xFFFF)


_HEADER = struct.Struct("!BBHHHBBH4s4s")


@dataclass
class Ipv4Packet:
    """A decoded IPv4 packet (no options support; IHL is always 5)."""

    src: str
    dst: str
    protocol: int
    payload: bytes = b""
    ttl: int = 64
    identification: int = 0
    dscp: int = 0

    def __post_init__(self):
        self.src = ipv4_text(self.src)
        self.dst = ipv4_text(self.dst)

    @property
    def is_multicast(self) -> bool:
        return ipv4_is_multicast(self.dst)

    def encode(self) -> bytes:
        total_length = _HEADER.size + len(self.payload)
        header_wo_checksum = _HEADER.pack(
            (4 << 4) | 5,  # version 4, IHL 5
            self.dscp << 2,
            total_length,
            self.identification,
            0,  # flags/fragment offset: never fragmented in our LAN
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            ipv4_packed(self.src),
            ipv4_packed(self.dst),
        )
        checksum = internet_checksum(header_wo_checksum)
        header = header_wo_checksum[:10] + struct.pack("!H", checksum) + header_wo_checksum[12:]
        return header + self.payload

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes, verify_checksum: bool = False) -> "Ipv4Packet":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated IPv4 packet: {len(data)} bytes")
        (ver_ihl, tos, total_length, ident, _flags, ttl, proto, checksum, src, dst) = (
            _HEADER.unpack_from(data)
        )
        version = ver_ihl >> 4
        ihl = ver_ihl & 0x0F
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        header_len = ihl * 4
        if header_len < 20 or len(data) < header_len:
            raise ValueError(f"bad IPv4 header length: {header_len}")
        if verify_checksum and internet_checksum(data[:header_len]) != 0:
            raise ValueError("IPv4 header checksum mismatch")
        payload = data[header_len:total_length] if total_length else data[header_len:]
        return cls(
            src=src,  # packed; __post_init__ makes it text
            dst=dst,
            protocol=proto,
            payload=payload,
            ttl=ttl,
            identification=ident,
            dscp=tos >> 2,
        )


def pseudo_header_checksum(src: str, dst: str, protocol: int, segment: bytes) -> int:
    """Transport checksum over the IPv4 pseudo-header + segment (RFC 793/768)."""
    pseudo = ipv4_packed(src) + ipv4_packed(dst) + struct.pack("!BBH", 0, protocol, len(segment))
    return internet_checksum(pseudo + segment)
