"""DNS wire-format codec (RFC 1035), the substrate for mDNS (RFC 6762).

Implements header, questions, and resource records (A, AAAA, PTR, TXT,
SRV) with full name-compression support on decode and optional
compression on encode.  mDNS payloads in the testbed and in the IoT
Inspector dataset are plain DNS messages on UDP 5353.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.guard import guarded_decode
from repro.net.ipv4 import ipv4_packed


class DnsType(enum.IntEnum):
    A = 1
    PTR = 12
    TXT = 16
    AAAA = 28
    SRV = 33
    NSEC = 47
    ANY = 255


CLASS_IN = 1
#: mDNS top bit of the class field: cache-flush (records) / QU (questions).
MDNS_FLUSH_OR_QU = 0x8000


#: Header flag bits: QR (a response) and AA (authoritative).
_QR = 0x8000
_AA = 0x0400

_POINTER = struct.Struct("!H").pack
_QUESTION_TAIL = struct.Struct("!HH").pack
_RECORD_TAIL = struct.Struct("!HHIH").pack
_SRV_FIELDS = struct.Struct("!HHH").pack


def encode_name(name: str, compression: Dict[str, int] = None, offset: int = 0) -> bytes:
    """Encode a dotted name as DNS labels, optionally using compression."""
    out = bytearray()
    _write_name(out, name, compression, offset)
    return bytes(out)


def _write_name(out: bytearray, name: str, compression: Optional[Dict[str, int]],
                offset: int) -> None:
    """Append ``name``'s labels to ``out``, whose byte ``i`` lies at message
    offset ``offset + i`` (compression pointers are message offsets)."""
    if name in ("", "."):
        out.append(0)
        return
    suffix = name.rstrip(".")
    for text in suffix.split("."):
        if compression is not None:
            # ``suffix`` is this label and every label after it.
            pointer = compression.get(suffix)
            if pointer is not None:
                out += _POINTER(0xC000 | pointer)
                return
            position = offset + len(out)
            if position < 0x3FFF:
                compression[suffix] = position
            suffix = suffix[len(text) + 1:]
        label = text.encode("utf-8")
        if len(label) > 63:
            raise ValueError(f"DNS label too long: {text!r}")
        out.append(len(label))
        out += label
    out.append(0)


def txt_rdata(entries: Dict[str, Optional[str]]) -> bytes:
    """TXT rdata: one length-prefixed ``key=value`` string per entry (the
    bare key when the value is ``None``), each cut to 255 bytes; no
    entries make one empty string."""
    rdata = bytearray()
    for key, value in entries.items():
        item = f"{key}={value}".encode("utf-8") if value is not None else key.encode("utf-8")
        if len(item) > 255:
            item = item[:255]
        rdata.append(len(item))
        rdata += item
    return bytes(rdata) if rdata else b"\x00"


def srv_rdata(target: str, port: int) -> bytes:
    """SRV rdata: priority 0, weight 0, ``port`` and the uncompressed target."""
    return _SRV_FIELDS(0, 0, port) + encode_name(target)


def decode_name(data: bytes, offset: int) -> Tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next_offset)."""
    labels: List[str] = []
    jumped = False
    next_offset = offset
    seen_pointers = set()
    while True:
        if offset >= len(data):
            raise ValueError("truncated DNS name")
        length = data[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(data):
                raise ValueError("truncated DNS compression pointer")
            pointer = struct.unpack("!H", data[offset : offset + 2])[0] & 0x3FFF
            if pointer in seen_pointers:
                raise ValueError("DNS compression pointer loop")
            seen_pointers.add(pointer)
            if not jumped:
                next_offset = offset + 2
                jumped = True
            offset = pointer
            continue
        if length == 0:
            if not jumped:
                next_offset = offset + 1
            break
        if length > 63:
            raise ValueError(f"bad DNS label length: {length}")
        offset += 1
        labels.append(data[offset : offset + length].decode("utf-8", "replace"))
        offset += length
    return ".".join(labels), next_offset


@dataclass
class DnsQuestion:
    name: str
    qtype: int = DnsType.ANY
    qclass: int = CLASS_IN
    unicast_response: bool = False  # mDNS "QU" bit

    def encode(self, compression: Dict[str, int] = None, offset: int = 0) -> bytes:
        out = bytearray()
        self._write(out, compression, offset)
        return bytes(out)

    def _write(self, out: bytearray, compression: Optional[Dict[str, int]], offset: int) -> None:
        _write_name(out, self.name, compression, offset)
        qclass = self.qclass | (MDNS_FLUSH_OR_QU if self.unicast_response else 0)
        out += _QUESTION_TAIL(self.qtype, qclass)


@dataclass
class DnsRecord:
    name: str
    rtype: int
    rdata: bytes = b""
    ttl: int = 120
    rclass: int = CLASS_IN
    cache_flush: bool = False  # mDNS cache-flush bit

    def encode(self, compression: Dict[str, int] = None, offset: int = 0) -> bytes:
        out = bytearray()
        self._write(out, compression, offset)
        return bytes(out)

    def _write(self, out: bytearray, compression: Optional[Dict[str, int]], offset: int) -> None:
        _write_name(out, self.name, compression, offset)
        rclass = self.rclass | (MDNS_FLUSH_OR_QU if self.cache_flush else 0)
        rdata = self.rdata
        out += _RECORD_TAIL(self.rtype, rclass, self.ttl, len(rdata))
        out += rdata

    # -- typed rdata constructors / accessors ---------------------------------

    @classmethod
    def a(cls, name: str, address: str, ttl: int = 120, flush: bool = True) -> "DnsRecord":
        return cls(name, DnsType.A, ipv4_packed(address), ttl, cache_flush=flush)

    @classmethod
    def aaaa(cls, name: str, address: str, ttl: int = 120, flush: bool = True) -> "DnsRecord":
        import ipaddress

        return cls(name, DnsType.AAAA, ipaddress.IPv6Address(address).packed, ttl, cache_flush=flush)

    @classmethod
    def ptr(cls, name: str, target: str, ttl: int = 4500) -> "DnsRecord":
        return cls(name, DnsType.PTR, encode_name(target), ttl)

    @classmethod
    def txt(cls, name: str, entries: Dict[str, str], ttl: int = 4500, flush: bool = True) -> "DnsRecord":
        return cls(name, DnsType.TXT, txt_rdata(entries), ttl, cache_flush=flush)

    @classmethod
    def srv(cls, name: str, target: str, port: int, ttl: int = 120, flush: bool = True) -> "DnsRecord":
        return cls(name, DnsType.SRV, srv_rdata(target, port), ttl, cache_flush=flush)

    def address(self) -> Optional[str]:
        import ipaddress

        if self.rtype == DnsType.A and len(self.rdata) == 4:
            return str(ipaddress.IPv4Address(self.rdata))
        if self.rtype == DnsType.AAAA and len(self.rdata) == 16:
            return str(ipaddress.IPv6Address(self.rdata))
        return None

    def ptr_target(self) -> Optional[str]:
        if self.rtype != DnsType.PTR:
            return None
        name, _ = decode_name(self.rdata, 0)
        return name

    def txt_entries(self) -> Dict[str, str]:
        if self.rtype != DnsType.TXT:
            return {}
        entries: Dict[str, str] = {}
        offset = 0
        while offset < len(self.rdata):
            length = self.rdata[offset]
            offset += 1
            item = self.rdata[offset : offset + length].decode("utf-8", "replace")
            offset += length
            if not item:
                continue
            key, _, value = item.partition("=")
            entries[key] = value
        return entries

    def srv_target(self) -> Optional[Tuple[str, int]]:
        if self.rtype != DnsType.SRV or len(self.rdata) < 7:
            return None
        _prio, _weight, port = struct.unpack("!HHH", self.rdata[:6])
        name, _ = decode_name(self.rdata, 6)
        return name, port


_HEADER = struct.Struct("!HHHHHH")


@dataclass
class DnsMessage:
    """A complete DNS message: header + questions + three record sections."""

    transaction_id: int = 0
    is_response: bool = False
    authoritative: bool = False
    questions: List[DnsQuestion] = field(default_factory=list)
    answers: List[DnsRecord] = field(default_factory=list)
    authorities: List[DnsRecord] = field(default_factory=list)
    additionals: List[DnsRecord] = field(default_factory=list)

    def encode(self, compress: bool = True) -> bytes:
        flags = 0
        if self.is_response:
            flags |= _QR
        if self.authoritative:
            flags |= _AA
        out = bytearray(
            _HEADER.pack(
                self.transaction_id,
                flags,
                len(self.questions),
                len(self.answers),
                len(self.authorities),
                len(self.additionals),
            )
        )
        compression: Optional[Dict[str, int]] = {} if compress else None
        # Each part is written into ``out`` itself, so its offsets in
        # ``out`` are message offsets.
        for question in self.questions:
            question._write(out, compression, 0)
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                record._write(out, compression, 0)
        return bytes(out)

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "DnsMessage":
        if len(data) < _HEADER.size:
            raise ValueError(f"truncated DNS message: {len(data)} bytes")
        txid, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(data)
        message = cls(
            transaction_id=txid,
            is_response=bool(flags & _QR),
            authoritative=bool(flags & _AA),
        )
        offset = _HEADER.size
        for _ in range(qdcount):
            name, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise ValueError("truncated DNS question")
            qtype, qclass = struct.unpack_from("!HH", data, offset)
            offset += 4
            message.questions.append(
                DnsQuestion(
                    name=name,
                    qtype=qtype,
                    qclass=qclass & 0x7FFF,
                    unicast_response=bool(qclass & MDNS_FLUSH_OR_QU),
                )
            )
        for section, count in (
            (message.answers, ancount),
            (message.authorities, nscount),
            (message.additionals, arcount),
        ):
            for _ in range(count):
                record, offset = cls._decode_record(data, offset)
                section.append(record)
        return message

    @staticmethod
    def _decode_record(data: bytes, offset: int) -> Tuple[DnsRecord, int]:
        name, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise ValueError("truncated DNS record")
        rtype, rclass, ttl, rdlength = struct.unpack_from("!HHIH", data, offset)
        offset += 10
        rdata = data[offset : offset + rdlength]
        if len(rdata) < rdlength:
            raise ValueError("truncated DNS rdata")
        offset += rdlength
        # PTR/SRV rdata may contain compression pointers into the full
        # message; re-encode them uncompressed so accessors work on the
        # record in isolation.
        if rtype == DnsType.PTR:
            target, _ = decode_name(data, offset - rdlength)
            rdata = encode_name(target)
        elif rtype == DnsType.SRV and rdlength >= 6:
            target, _ = decode_name(data, offset - rdlength + 6)
            rdata = rdata[:6] + encode_name(target)
        record = DnsRecord(
            name=name,
            rtype=rtype,
            rdata=rdata,
            ttl=ttl,
            rclass=rclass & 0x7FFF,
            cache_flush=bool(rclass & MDNS_FLUSH_OR_QU),
        )
        return record, offset

    @property
    def all_records(self) -> List[DnsRecord]:
        return self.answers + self.authorities + self.additionals
