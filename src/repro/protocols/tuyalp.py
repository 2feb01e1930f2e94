"""TuyaLP codec — Tuya's local UDP discovery protocol.

Documented by the TinyTuya project the paper cites [27]: frames are
``0x000055aa`` prefixed, with sequence number, command word, length, a
CRC32, and an ``0x0000aa55`` suffix.  Devices broadcast on UDP 6666
(plaintext, protocol 3.1) or 6667 (encrypted, 3.3+).  §5.1: the Jinvoo
Bulb "sends its GWid and Product key in plaintext"; devices only answer
their companion apps.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Optional
from repro.net.guard import guarded_decode

TUYA_PORT_PLAIN = 6666
TUYA_PORT_ENCRYPTED = 6667
TUYA_PORTS = (TUYA_PORT_PLAIN, TUYA_PORT_ENCRYPTED)

PREFIX = 0x000055AA
SUFFIX = 0x0000AA55
CMD_UDP_DISCOVER = 0x13  # UDP_NEW in TinyTuya's command table

#: Fixed key Tuya 3.3+ derives from "yGAdlopoPVldABfn" (md5); we model the
#: obfuscation as a keyed XOR stream so "encrypted" port-6667 payloads are
#: not trivially readable but remain deterministic and reversible.
_BROADCAST_KEY = b"6c1ec8e2bb9bb59ab50b0daf649b410a"


def _xor_obfuscate(data: bytes, key: bytes = _BROADCAST_KEY) -> bytes:
    return bytes(byte ^ key[index % len(key)] for index, byte in enumerate(data))


@dataclass
class TuyaLpMessage:
    """A TuyaLP discovery frame."""

    payload: Dict
    sequence: int = 0
    command: int = CMD_UDP_DISCOVER
    encrypted: bool = False

    def encode(self) -> bytes:
        body = json.dumps(self.payload, separators=(",", ":")).encode("utf-8")
        if self.encrypted:
            body = _xor_obfuscate(body)
        # length counts body + CRC(4) + suffix(4)
        head = struct.pack("!IIII", PREFIX, self.sequence, self.command, len(body) + 8)
        crc = zlib.crc32(head + body) & 0xFFFFFFFF
        return head + body + struct.pack("!II", crc, SUFFIX)

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes, verify_crc: bool = True) -> "TuyaLpMessage":
        if len(data) < 24:
            raise ValueError(f"truncated TuyaLP frame: {len(data)} bytes")
        prefix, sequence, command, length = struct.unpack_from("!IIII", data)
        if prefix != PREFIX:
            raise ValueError(f"bad TuyaLP prefix: {prefix:#x}")
        if length < 8 or 16 + length > len(data):
            raise ValueError(f"bad TuyaLP length field: {length}")
        body = data[16 : 16 + length - 8]
        crc, suffix = struct.unpack_from("!II", data, 16 + length - 8)
        if suffix != SUFFIX:
            raise ValueError(f"bad TuyaLP suffix: {suffix:#x}")
        if verify_crc and crc != (zlib.crc32(data[: 16 + length - 8]) & 0xFFFFFFFF):
            raise ValueError("TuyaLP CRC mismatch")
        encrypted = False
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = json.loads(_xor_obfuscate(body).decode("utf-8"))
            encrypted = True
        return cls(payload=payload, sequence=sequence, command=command, encrypted=encrypted)

    @classmethod
    def discovery(
        cls,
        gw_id: str,
        product_key: str,
        ip: str,
        version: str = "3.1",
        encrypted: bool = False,
    ) -> "TuyaLpMessage":
        """The periodic broadcast advertising gwId and productKey (§5.1)."""
        return cls(
            payload={
                "ip": ip,
                "gwId": gw_id,
                "active": 2,
                "ability": 0,
                "mode": 0,
                "encrypt": encrypted,
                "productKey": product_key,
                "version": version,
            },
            encrypted=encrypted,
        )

    @property
    def gw_id(self) -> Optional[str]:
        return self.payload.get("gwId")

    @property
    def product_key(self) -> Optional[str]:
        return self.payload.get("productKey")
