"""CoAP codec (RFC 7252).

Three testbed devices use CoAP (§5.1): a Samsung fridge requesting an
IoTivity URI and two HomePod Minis with undecodable payloads.  We
implement the 4-byte header, token, and Uri-Path options.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List
from repro.net.guard import guarded_decode

COAP_PORT = 5683


class CoapType(enum.IntEnum):
    CONFIRMABLE = 0
    NON_CONFIRMABLE = 1
    ACKNOWLEDGEMENT = 2
    RESET = 3


class CoapCode(enum.IntEnum):
    EMPTY = 0
    GET = 1
    POST = 2
    PUT = 3
    DELETE = 4
    CONTENT = (2 << 5) | 5  # 2.05
    NOT_FOUND = (4 << 5) | 4  # 4.04


OPTION_URI_PATH = 11


@dataclass
class CoapMessage:
    """A CoAP message with Uri-Path options and payload."""

    code: int
    message_id: int = 0
    coap_type: CoapType = CoapType.CONFIRMABLE
    token: bytes = b""
    uri_path: List[str] = field(default_factory=list)
    payload: bytes = b""

    def encode(self) -> bytes:
        if len(self.token) > 8:
            raise ValueError("CoAP token too long")
        first = (1 << 6) | (int(self.coap_type) << 4) | len(self.token)
        out = bytearray(struct.pack("!BBH", first, int(self.code), self.message_id))
        out += self.token
        previous_option = 0
        for segment in self.uri_path:
            delta = OPTION_URI_PATH - previous_option
            encoded = segment.encode("utf-8")
            if delta > 12 or len(encoded) > 12:
                out += self._extended_option(delta, encoded)
            else:
                out.append((delta << 4) | len(encoded))
                out += encoded
            previous_option = OPTION_URI_PATH
        if self.payload:
            out.append(0xFF)
            out += self.payload
        return bytes(out)

    @staticmethod
    def _extended_option(delta: int, value: bytes) -> bytes:
        # Only the "13" (one extra byte) extension is needed for our
        # option space; deltas/lengths above 268 never occur here.
        first_delta = 13 if delta > 12 else delta
        first_len = 13 if len(value) > 12 else len(value)
        out = bytearray([(first_delta << 4) | first_len])
        if first_delta == 13:
            out.append(delta - 13)
        if first_len == 13:
            out.append(len(value) - 13)
        out += value
        return bytes(out)

    @classmethod
    @guarded_decode
    def decode(cls, data: bytes) -> "CoapMessage":
        if len(data) < 4:
            raise ValueError(f"truncated CoAP message: {len(data)} bytes")
        first, code, message_id = struct.unpack_from("!BBH", data)
        version = first >> 6
        if version != 1:
            raise ValueError(f"unsupported CoAP version: {version}")
        token_length = first & 0x0F
        if token_length > 8:
            raise ValueError(f"bad CoAP token length: {token_length}")
        coap_type = CoapType((first >> 4) & 0x03)
        offset = 4
        token = data[offset : offset + token_length]
        offset += token_length
        uri_path: List[str] = []
        current_option = 0
        payload = b""
        while offset < len(data):
            byte = data[offset]
            if byte == 0xFF:
                payload = data[offset + 1 :]
                break
            delta = byte >> 4
            length = byte & 0x0F
            offset += 1
            if delta == 13:
                delta = 13 + data[offset]
                offset += 1
            if length == 13:
                length = 13 + data[offset]
                offset += 1
            current_option += delta
            value = data[offset : offset + length]
            offset += length
            if current_option == OPTION_URI_PATH:
                uri_path.append(value.decode("utf-8", "replace"))
        return cls(
            code=code,
            message_id=message_id,
            coap_type=coap_type,
            token=token,
            uri_path=uri_path,
            payload=payload,
        )

    @classmethod
    def get(cls, path: str, message_id: int = 0) -> "CoapMessage":
        segments = [segment for segment in path.split("/") if segment]
        return cls(code=CoapCode.GET, message_id=message_id, uri_path=segments)

    @property
    def path(self) -> str:
        return "/" + "/".join(self.uri_path)
