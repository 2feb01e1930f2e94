"""TLS record/handshake metadata codec.

§5.2 analyzes local TLS without decrypting it: protocol versions
(Google/Amazon use 1.2, Apple 1.3), certificate lifetimes (Google leaf
certs valid 20 years, Amazon self-signed 3 months with IP-address
common names, D-Link/SmartThings/Philips 20-28 years), mutual
authentication, and weak 64-122-bit keys on port 8009 (SWEET32).

We encode real TLS record framing (content type 22/23, version bytes)
and ClientHello/ServerHello version negotiation.  Certificates travel
as a compact JSON body inside the Certificate handshake message — the
*metadata* (issuer, subject, validity, key bits) is exactly what the
passive analysis needs, without reimplementing X.509 DER.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field, asdict
from typing import List, Optional
from repro.net.guard import guarded_decode


class TlsVersion(enum.IntEnum):
    TLS_1_0 = 0x0301
    TLS_1_1 = 0x0302
    TLS_1_2 = 0x0303
    TLS_1_3 = 0x0304

    @property
    def dotted(self) -> str:
        return {"TLS_1_0": "1.0", "TLS_1_1": "1.1", "TLS_1_2": "1.2", "TLS_1_3": "1.3"}[self.name]


class ContentType(enum.IntEnum):
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


class HandshakeType(enum.IntEnum):
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    CERTIFICATE = 11


#: ``CertificateInfo`` field -> the type its JSON value must have.
_CERT_FIELD_TYPES = {"subject_cn": str, "issuer_cn": str, "not_before": float,
                     "not_after": float, "key_bits": int, "self_signed": bool}
#: The fields without a default.
_CERT_REQUIRED = ("subject_cn", "issuer_cn", "not_before", "not_after")


@dataclass
class CertificateInfo:
    """The certificate metadata the passive TLS analysis extracts."""

    subject_cn: str
    issuer_cn: str
    not_before: float  # unix seconds
    not_after: float
    key_bits: int = 2048
    self_signed: bool = False

    @property
    def validity_days(self) -> float:
        return (self.not_after - self.not_before) / 86400.0

    @property
    def validity_years(self) -> float:
        return self.validity_days / 365.25

    def to_der_like(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True).encode("utf-8")

    @classmethod
    def from_der_like(cls, data: bytes) -> "CertificateInfo":
        """Parse :meth:`to_der_like` bytes.

        Raises ``ValueError`` unless the body is a JSON object of
        certificate fields with every field without a default present
        and every value of its declared type; an integral time is taken
        as a float.
        """
        fields = json.loads(data.decode("utf-8"))
        if not isinstance(fields, dict):
            raise ValueError("certificate body is not a JSON object")
        missing = [name for name in _CERT_REQUIRED if name not in fields]
        if missing:
            raise ValueError(f"certificate lacks {', '.join(missing)}")
        for name, value in fields.items():
            kind = _CERT_FIELD_TYPES.get(name)
            if kind is None:
                raise ValueError(f"unknown certificate field {name!r}")
            if kind is float and type(value) is int:
                try:
                    fields[name] = value = float(value)
                except OverflowError:
                    raise ValueError(f"certificate field {name!r} out of range") from None
            if type(value) is not kind:
                raise ValueError(f"certificate field {name!r} must be {kind.__name__}")
        return cls(**fields)


@dataclass
class TlsHandshake:
    """A ClientHello, ServerHello, or Certificate handshake message."""

    handshake_type: HandshakeType
    version: TlsVersion = TlsVersion.TLS_1_2
    certificates: List[CertificateInfo] = field(default_factory=list)

    def encode(self) -> bytes:
        if self.handshake_type is HandshakeType.CERTIFICATE:
            body = b"".join(
                struct.pack("!H", len(der := cert.to_der_like())) + der
                for cert in self.certificates
            )
        else:
            # legacy_version + 32-byte random (zeroed: content is irrelevant
            # to passive metadata analysis)
            body = struct.pack("!H", int(self.version)) + bytes(32)
        return struct.pack("!B", int(self.handshake_type)) + struct.pack("!I", len(body))[1:] + body

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "TlsHandshake":
        if len(data) < 4:
            raise ValueError("truncated TLS handshake")
        handshake_type = HandshakeType(data[0])
        length = int.from_bytes(data[1:4], "big")
        body = data[4 : 4 + length]
        if handshake_type is HandshakeType.CERTIFICATE:
            certificates = []
            offset = 0
            while offset + 2 <= len(body):
                (cert_len,) = struct.unpack_from("!H", body, offset)
                offset += 2
                certificates.append(CertificateInfo.from_der_like(body[offset : offset + cert_len]))
                offset += cert_len
            return cls(handshake_type, certificates=certificates)
        if len(body) < 2:
            raise ValueError("truncated hello body")
        (version,) = struct.unpack_from("!H", body)
        return cls(handshake_type, version=TlsVersion(version))


@dataclass
class TlsRecord:
    """A TLS record: 5-byte header + fragment."""

    content_type: ContentType
    version: TlsVersion
    fragment: bytes = b""

    def encode(self) -> bytes:
        return (
            struct.pack("!BHH", int(self.content_type), int(self.version), len(self.fragment))
            + self.fragment
        )

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "TlsRecord":
        if len(data) < 5:
            raise ValueError(f"truncated TLS record: {len(data)} bytes")
        content_type, version, length = struct.unpack_from("!BHH", data)
        return cls(
            content_type=ContentType(content_type),
            version=TlsVersion(version),
            fragment=data[5 : 5 + length],
        )

    @classmethod
    def client_hello(cls, version: TlsVersion) -> "TlsRecord":
        # Record-layer version stays 1.2 for TLS 1.3 (RFC 8446 §5.1).
        record_version = min(version, TlsVersion.TLS_1_2)
        return cls(
            ContentType.HANDSHAKE,
            record_version,
            TlsHandshake(HandshakeType.CLIENT_HELLO, version).encode(),
        )

    @classmethod
    def server_hello(cls, version: TlsVersion) -> "TlsRecord":
        record_version = min(version, TlsVersion.TLS_1_2)
        return cls(
            ContentType.HANDSHAKE,
            record_version,
            TlsHandshake(HandshakeType.SERVER_HELLO, version).encode(),
        )

    @classmethod
    def certificate(cls, certificates: List[CertificateInfo], version: TlsVersion) -> "TlsRecord":
        record_version = min(version, TlsVersion.TLS_1_2)
        return cls(
            ContentType.HANDSHAKE,
            record_version,
            TlsHandshake(HandshakeType.CERTIFICATE, version, list(certificates)).encode(),
        )

    @classmethod
    def application_data(cls, size: int, version: TlsVersion = TlsVersion.TLS_1_2) -> "TlsRecord":
        record_version = min(version, TlsVersion.TLS_1_2)
        return cls(ContentType.APPLICATION_DATA, record_version, bytes(size))

    def handshake(self) -> Optional[TlsHandshake]:
        if self.content_type is not ContentType.HANDSHAKE:
            return None
        try:
            return TlsHandshake.decode(self.fragment)
        except (ValueError, KeyError):
            return None


def iter_records(data: bytes):
    """Iterate TLS records in a reassembled TCP payload."""
    offset = 0
    while offset + 5 <= len(data):
        try:
            record = TlsRecord.decode(data[offset:])
        except ValueError:
            return
        yield record
        offset += 5 + len(record.fragment)
