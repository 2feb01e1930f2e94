"""Unit tests for TPLINK-SHP, TuyaLP, HTTP, TLS, RTP, STUN codecs."""

import json

import pytest

from repro.protocols.http import HttpRequest, HttpResponse
from repro.protocols.rtp import RtpPacket, looks_like_rtp
from repro.protocols.stun import BINDING_REQUEST, StunMessage, looks_like_stun
from repro.protocols.tls import (
    CertificateInfo,
    ContentType,
    HandshakeType,
    TlsRecord,
    TlsVersion,
    iter_records,
)
from repro.protocols.tplink_shp import (
    TplinkShpMessage,
    tplink_decrypt,
    tplink_encrypt,
)
from repro.protocols.tuyalp import TUYA_PORTS, TuyaLpMessage


class TestTplinkCrypto:
    def test_xor_autokey_roundtrip(self):
        plaintext = b'{"system":{"get_sysinfo":{}}}'
        assert tplink_decrypt(tplink_encrypt(plaintext)) == plaintext

    def test_known_first_byte(self):
        # First plaintext byte '{' (0x7b) XOR initial key 171 (0xab) = 0xd0.
        assert tplink_encrypt(b"{")[0] == 0x7B ^ 171

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b'{"system":{}}'
        assert tplink_encrypt(plaintext) != plaintext


class TestTplinkMessages:
    def test_sysinfo_query_roundtrip(self):
        query = TplinkShpMessage.get_sysinfo_query()
        decoded = TplinkShpMessage.decode(query.encode())
        assert decoded.is_sysinfo_query
        assert decoded.sysinfo is None

    def test_sysinfo_response_exposes_geolocation(self):
        response = TplinkShpMessage.sysinfo_response(
            alias="TP-Link Plug",
            device_id="8006E8E9017F556D283C850B4E29BC1F185334E5",
            hw_id="60FF6B258734EA6880E186F8C96DDC61",
            oem_id="FFF22CFF774A0B89F7624BFC6F50D5DE",
            model="HS110(US)",
            dev_name="Wi-Fi Smart Plug With Energy Monitoring",
            latitude=42.337681,
            longitude=-71.087036,
            mac="50:C7:BF:AA:BB:CC",
        )
        info = TplinkShpMessage.decode(response.encode()).sysinfo
        assert info["latitude"] == 42.337681
        assert info["longitude"] == -71.087036
        assert info["oemId"] == "FFF22CFF774A0B89F7624BFC6F50D5DE"
        assert info["mac"] == "50:C7:BF:AA:BB:CC"

    def test_tcp_framing(self):
        message = TplinkShpMessage.set_relay_state(True)
        wire = message.encode("tcp")
        assert int.from_bytes(wire[:4], "big") == len(wire) - 4
        decoded = TplinkShpMessage.decode(wire, transport="tcp")
        assert decoded.body["system"]["set_relay_state"]["state"] == 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            TplinkShpMessage.decode(b"\x00\x01\x02\x03")

    def test_rejects_non_object(self):
        wire = tplink_encrypt(json.dumps([1, 2, 3]).encode())
        with pytest.raises(ValueError):
            TplinkShpMessage.decode(wire)


class TestTuyaLp:
    def test_plaintext_discovery_roundtrip(self):
        message = TuyaLpMessage.discovery("gw-jinvoo", "prodkey123", "192.168.10.33")
        decoded = TuyaLpMessage.decode(message.encode())
        assert decoded.gw_id == "gw-jinvoo"
        assert decoded.product_key == "prodkey123"
        assert not decoded.encrypted
        assert decoded.payload["version"] == "3.1"

    def test_encrypted_discovery_roundtrip(self):
        message = TuyaLpMessage.discovery("gw2", "pk2", "192.168.10.34",
                                          version="3.3", encrypted=True)
        wire = message.encode()
        assert b"gw2" not in wire  # payload is obfuscated on the wire
        decoded = TuyaLpMessage.decode(wire)
        assert decoded.encrypted
        assert decoded.gw_id == "gw2"

    def test_frame_magic(self):
        wire = TuyaLpMessage.discovery("g", "p", "10.0.0.1").encode()
        assert wire[:4] == b"\x00\x00\x55\xaa"
        assert wire[-4:] == b"\x00\x00\xaa\x55"

    def test_crc_validation(self):
        wire = bytearray(TuyaLpMessage.discovery("g", "p", "10.0.0.1").encode())
        wire[20] ^= 0xFF
        with pytest.raises(ValueError):
            TuyaLpMessage.decode(bytes(wire))
        # but decodes with verification off (if payload still parses) or raises cleanly
        with pytest.raises(ValueError):
            TuyaLpMessage.decode(bytes(wire), verify_crc=True)

    def test_bad_prefix(self):
        with pytest.raises(ValueError):
            TuyaLpMessage.decode(b"\x00\x00\x00\x00" + b"\x00" * 24)

    def test_ports_constant(self):
        assert TUYA_PORTS == (6666, 6667)


class TestHttp:
    def test_request_roundtrip(self):
        request = HttpRequest("GET", "/api/config", {"Host": "192.168.10.12",
                                                     "User-Agent": "Chromecast OS/1.56"})
        decoded = HttpRequest.decode(request.encode())
        assert decoded.method == "GET"
        assert decoded.path == "/api/config"
        assert decoded.user_agent == "Chromecast OS/1.56"

    def test_request_with_body_sets_content_length(self):
        request = HttpRequest("POST", "/x", body=b"abc")
        wire = request.encode().decode()
        assert "Content-Length: 3" in wire

    def test_soap_detection(self):
        request = HttpRequest("POST", "/ctl", {"SOAPACTION": '"urn:...#SetAVTransportURI"'})
        assert HttpRequest.decode(request.encode()).is_soap

    def test_response_roundtrip(self):
        response = HttpResponse(200, "OK", {"Server": "GoAhead-Webs/2.5"}, b"<html/>")
        decoded = HttpResponse.decode(response.encode())
        assert decoded.status == 200
        assert decoded.server_banner == "GoAhead-Webs/2.5"
        assert decoded.body == b"<html/>"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            HttpRequest.decode(b"\x16\x03\x01\x00\x00")
        with pytest.raises(ValueError):
            HttpResponse.decode(b"NOT HTTP")


class TestTls:
    def test_client_hello_versions(self):
        for version in (TlsVersion.TLS_1_2, TlsVersion.TLS_1_3):
            record = TlsRecord.client_hello(version)
            handshake = TlsRecord.decode(record.encode()).handshake()
            assert handshake.handshake_type is HandshakeType.CLIENT_HELLO
            assert handshake.version is version

    def test_record_layer_version_stays_12_for_13(self):
        record = TlsRecord.client_hello(TlsVersion.TLS_1_3)
        assert record.version is TlsVersion.TLS_1_2  # RFC 8446 §5.1

    def test_certificate_metadata_roundtrip(self):
        cert = CertificateInfo("192.168.0.5", "192.168.0.5", 0.0, 90 * 86400.0,
                               key_bits=96, self_signed=True)
        record = TlsRecord.certificate([cert], TlsVersion.TLS_1_2)
        got = TlsRecord.decode(record.encode()).handshake().certificates[0]
        assert got.subject_cn == "192.168.0.5"
        assert abs(got.validity_days - 90) < 1e-9
        assert got.key_bits == 96 and got.self_signed

    def test_validity_years(self):
        cert = CertificateInfo("x", "ca", 0.0, 20 * 365.25 * 86400.0)
        assert abs(cert.validity_years - 20) < 0.01

    @pytest.mark.parametrize("body", [
        [],                                               # not an object
        {"subjectWcn": "x", "issuer_cn": "ca", "not_before": 0.0,
         "not_after": 1.0},                               # unknown key
        {"subject_cn": "x", "issuer_cn": "ca", "not_before": 0.0},  # missing key
        {"subject_cn": "x", "issuer_cn": "ca", "not_before": "0",
         "not_after": 1.0},                               # time of the wrong type
        {"subject_cn": "x", "issuer_cn": "ca", "not_before": 0.0,
         "not_after": 10 ** 400},                         # time past a float
        {"subject_cn": "x", "issuer_cn": "ca", "not_before": 0.0,
         "not_after": 1.0, "key_bits": True},             # bool is not an int
    ])
    def test_malformed_certificate_is_a_valueerror(self, body):
        der = json.dumps(body).encode()
        with pytest.raises(ValueError):
            CertificateInfo.from_der_like(der)
        fragment = bytes([HandshakeType.CERTIFICATE]) + (len(der) + 2).to_bytes(3, "big") \
            + len(der).to_bytes(2, "big") + der
        assert TlsRecord(ContentType.HANDSHAKE, TlsVersion.TLS_1_2, fragment).handshake() is None

    def test_integral_times_are_floats(self):
        der = json.dumps({"subject_cn": "x", "issuer_cn": "ca", "not_before": 0,
                          "not_after": 86400}).encode()
        cert = CertificateInfo.from_der_like(der)
        assert type(cert.not_after) is float and cert.validity_days == 1.0

    def test_application_data(self):
        record = TlsRecord.application_data(128)
        decoded = TlsRecord.decode(record.encode())
        assert decoded.content_type is ContentType.APPLICATION_DATA
        assert len(decoded.fragment) == 128
        assert decoded.handshake() is None

    def test_iter_records(self):
        blob = (TlsRecord.client_hello(TlsVersion.TLS_1_2).encode()
                + TlsRecord.application_data(32).encode())
        records = list(iter_records(blob))
        assert [r.content_type for r in records] == [
            ContentType.HANDSHAKE, ContentType.APPLICATION_DATA,
        ]

    def test_iter_records_stops_on_garbage(self):
        blob = TlsRecord.application_data(8).encode() + b"\xff\xff\xff\xff\xff"
        assert len(list(iter_records(blob))) == 1

    def test_truncated(self):
        with pytest.raises(ValueError):
            TlsRecord.decode(b"\x16\x03")


class TestRtpStun:
    def test_rtp_roundtrip(self):
        packet = RtpPacket(97, 12, 48000, 0xCAFE, b"audio-frame", marker=True)
        decoded = RtpPacket.decode(packet.encode())
        assert decoded.payload_type == 97
        assert decoded.sequence == 12
        assert decoded.marker
        assert decoded.payload == b"audio-frame"

    def test_rtp_heuristic_accepts_dynamic_types(self):
        assert looks_like_rtp(RtpPacket(96, 1, 1, 1, b"x" * 20).encode())
        assert looks_like_rtp(RtpPacket(0, 1, 1, 1, b"x" * 20).encode())

    def test_rtp_heuristic_rejects(self):
        assert not looks_like_rtp(b"GET / HTTP/1.1\r\n")
        assert not looks_like_rtp(b"\x80")  # too short

    def test_rtp_rejects_wrong_version(self):
        raw = bytearray(RtpPacket(96, 1, 1, 1).encode())
        raw[0] = 0x40  # version 1
        with pytest.raises(ValueError):
            RtpPacket.decode(bytes(raw))

    def test_stun_roundtrip(self):
        message = StunMessage(BINDING_REQUEST, b"tttttttttttt", b"")
        decoded = StunMessage.decode(message.encode())
        assert decoded.message_type == BINDING_REQUEST
        assert decoded.transaction_id == b"tttttttttttt"

    def test_stun_magic_cookie_checked(self):
        raw = bytearray(StunMessage(transaction_id=b"x" * 12).encode())
        raw[4] ^= 0xFF
        with pytest.raises(ValueError):
            StunMessage.decode(bytes(raw))

    def test_stun_heuristic(self):
        assert looks_like_stun(StunMessage(transaction_id=b"x" * 12).encode())
        assert not looks_like_stun(RtpPacket(96, 1, 1, 1, b"payload").encode())

    def test_stun_bad_transaction_length(self):
        with pytest.raises(ValueError):
            StunMessage(transaction_id=b"short").encode()
