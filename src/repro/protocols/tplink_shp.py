"""TPLINK-SHP (TP-Link Smart Home Protocol) codec.

Implements the XOR-autokey "encryption" (initial key 171) documented by
the softScheck dissector the paper cites [28].  §5.1: TP-Link devices
answer UDP broadcast ``get_sysinfo`` queries with their system info
*including plaintext latitude/longitude*, device name, deviceId, hwId
and oemId (Table 5) — and the same protocol over TCP allows
unauthenticated control.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Dict, Optional
from repro.net.guard import guarded_decode

TPLINK_SHP_PORT = 9999
_INITIAL_KEY = 171


def tplink_encrypt(plaintext: bytes) -> bytes:
    """XOR-autokey encrypt: each ciphertext byte keys the next."""
    key = _INITIAL_KEY
    out = bytearray()
    for byte in plaintext:
        cipher = key ^ byte
        key = cipher
        out.append(cipher)
    return bytes(out)


def tplink_decrypt(ciphertext: bytes) -> bytes:
    """Inverse of :func:`tplink_encrypt`."""
    key = _INITIAL_KEY
    out = bytearray()
    for byte in ciphertext:
        out.append(key ^ byte)
        key = byte
    return bytes(out)


@dataclass
class TplinkShpMessage:
    """A (decrypted) TPLINK-SHP JSON command or response."""

    body: Dict

    def encode(self, transport: str = "udp") -> bytes:
        """Encode for the wire.

        TCP framing prefixes a 4-byte big-endian length; UDP sends the
        encrypted JSON bare — both per the softScheck dissector.
        """
        payload = tplink_encrypt(json.dumps(self.body, separators=(",", ":")).encode("utf-8"))
        if transport == "tcp":
            return struct.pack("!I", len(payload)) + payload
        return payload

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes, transport: str = "udp") -> "TplinkShpMessage":
        if transport == "tcp":
            if len(data) < 4:
                raise ValueError("truncated TPLINK-SHP TCP frame")
            (length,) = struct.unpack_from("!I", data)
            data = data[4 : 4 + length]
        plaintext = tplink_decrypt(data)
        try:
            body = json.loads(plaintext.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"not a TPLINK-SHP message: {exc}") from exc
        if not isinstance(body, dict):
            raise ValueError("TPLINK-SHP body is not a JSON object")
        return cls(body=body)

    # -- canonical messages ----------------------------------------------------

    @classmethod
    def get_sysinfo_query(cls) -> "TplinkShpMessage":
        """The discovery broadcast Google/Amazon speakers send (§5.1)."""
        return cls({"system": {"get_sysinfo": {}}})

    @classmethod
    def sysinfo_response(
        cls,
        alias: str,
        device_id: str,
        hw_id: str,
        oem_id: str,
        model: str,
        dev_name: str,
        latitude: float,
        longitude: float,
        mac: str,
        relay_state: int = 0,
    ) -> "TplinkShpMessage":
        """A sysinfo reply exposing geolocation in plaintext (Table 5)."""
        return cls(
            {
                "system": {
                    "get_sysinfo": {
                        "sw_ver": "1.5.4 Build 180815 Rel.121440",
                        "hw_ver": "1.0",
                        "model": model,
                        "deviceId": device_id,
                        "hwId": hw_id,
                        "oemId": oem_id,
                        "alias": alias,
                        "dev_name": dev_name,
                        "mac": mac,
                        "relay_state": relay_state,
                        "latitude": latitude,
                        "longitude": longitude,
                        "err_code": 0,
                    }
                }
            }
        )

    @classmethod
    def set_relay_state(cls, on: bool) -> "TplinkShpMessage":
        """The unauthenticated control command (§5.1 local-attacker threat)."""
        return cls({"system": {"set_relay_state": {"state": 1 if on else 0}}})

    @property
    def is_sysinfo_query(self) -> bool:
        system = self.body.get("system")
        return isinstance(system, dict) and system.get("get_sysinfo") == {}

    @property
    def sysinfo(self) -> Optional[Dict]:
        system = self.body.get("system")
        if not isinstance(system, dict):
            return None
        info = system.get("get_sysinfo")
        return info if isinstance(info, dict) and info else None
