"""Tests for the tshark-like / nDPI-like classifiers and manual rules."""

import pytest

from repro.classify.labels import DISCOVERY_LABELS, Label
from repro.classify.ndpi_like import NdpiLikeClassifier
from repro.classify.rules import CorrectedClassifier, ManualRules, default_rules
from repro.classify.tshark_like import TsharkLikeClassifier
from repro.net.decode import decode_frame
from repro.net.ether import EthernetFrame, EtherType
from repro.net.ipv4 import IpProtocol, Ipv4Packet
from repro.net.mac import BROADCAST_MAC
from repro.net.udp import UdpDatagram
from repro.net.tcp import TcpFlags, TcpSegment
from repro.protocols.mdns import mdns_query
from repro.protocols.rtp import RtpPacket
from repro.protocols.ssdp import SsdpMessage
from repro.protocols.stun import StunMessage
from repro.protocols.tls import TlsRecord, TlsVersion
from repro.protocols.tplink_shp import TplinkShpMessage
from repro.protocols.tuyalp import TuyaLpMessage


def udp_packet(payload, sport, dport, src_mac="02:00:00:00:00:01"):
    datagram = UdpDatagram(sport, dport, payload)
    packet = Ipv4Packet("192.168.10.1", "192.168.10.2", IpProtocol.UDP, datagram.encode())
    frame = EthernetFrame("02:00:00:00:00:02", src_mac, EtherType.IPV4, packet.encode())
    return decode_frame(frame.encode())


def tcp_packet(payload, sport, dport):
    segment = TcpSegment(sport, dport, flags=TcpFlags.ACK | TcpFlags.PSH, payload=payload)
    packet = Ipv4Packet("192.168.10.1", "192.168.10.2", IpProtocol.TCP, segment.encode())
    frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01", EtherType.IPV4, packet.encode())
    return decode_frame(frame.encode())


@pytest.fixture
def tshark():
    return TsharkLikeClassifier()


@pytest.fixture
def ndpi():
    return NdpiLikeClassifier()


class TestTsharkLike:
    def test_port_based_labels(self, tshark):
        assert tshark.classify_packet(udp_packet(b"\x00" * 20, 5000, 5353)) is Label.MDNS
        assert tshark.classify_packet(udp_packet(b"x" * 20, 5000, 1900)) is Label.SSDP
        assert tshark.classify_packet(udp_packet(b"x" * 300, 68, 67)) is Label.DHCP
        assert tshark.classify_packet(tcp_packet(b"\x16\x03\x03\x00\x00", 5000, 443)) is Label.HTTPS

    def test_misses_ssdp_response_to_ephemeral(self, tshark):
        # The Appendix C.2 failure mode: the dissector keys on the
        # destination port, so 1900 -> 50000 responses come back generic.
        response = SsdpMessage.response("http://x/", "upnp:rootdevice", "uuid:1::r", "srv").encode()
        assert tshark.classify_packet(udp_packet(response, 1900, 50000)) is Label.UNKNOWN

    def test_tplink_claims_reverse_direction(self, tshark):
        reply = TplinkShpMessage.get_sysinfo_query().encode()
        assert tshark.classify_packet(udp_packet(reply, 9999, 51000)) is Label.TPLINK_SHP

    def test_stun_heuristic_on_10000_range(self, tshark):
        rtp = RtpPacket(97, 1, 1, 1, b"x" * 32).encode()
        assert tshark.classify_packet(udp_packet(rtp, 10002, 10002)) is Label.STUN

    def test_http_heuristic_any_port(self, tshark):
        assert tshark.classify_packet(tcp_packet(b"GET /x HTTP/1.1\r\n\r\n", 5000, 8060)) is Label.HTTP

    def test_non_ip_labels(self, tshark):
        arp_frame = EthernetFrame(BROADCAST_MAC, "02:00:00:00:00:01", EtherType.ARP, b"\x00" * 28)
        assert tshark.classify_packet(decode_frame(arp_frame.encode())) is Label.ARP
        eapol_frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01", EtherType.EAPOL, b"\x02\x03\x00\x00")
        assert tshark.classify_packet(decode_frame(eapol_frame.encode())) is Label.EAPOL

    def test_tls_confirmed_by_record_header(self, tshark):
        # Payload on 443 that is not TLS -> generic, not HTTPS.
        assert tshark.classify_packet(tcp_packet(b"garbage-bytes", 5000, 443)) is Label.UNKNOWN


class TestNdpiLike:
    def test_content_based_ssdp_any_port(self, ndpi):
        response = SsdpMessage.response("http://x/", "upnp:rootdevice", "uuid:1::r", "srv").encode()
        assert ndpi.classify_packet(udp_packet(response, 1900, 50000)) is Label.SSDP
        msearch = SsdpMessage.msearch().encode()
        assert ndpi.classify_packet(udp_packet(msearch, 50000, 1900)) is Label.SSDP

    def test_tls_by_record_header(self, ndpi):
        record = TlsRecord.client_hello(TlsVersion.TLS_1_2).encode()
        assert ndpi.classify_packet(tcp_packet(record, 5000, 8009)) is Label.TLS

    def test_tplink_by_decryption(self, ndpi):
        query = TplinkShpMessage.get_sysinfo_query().encode()
        assert ndpi.classify_packet(udp_packet(query, 51000, 9999)) is Label.TPLINK_SHP

    def test_tuyalp_by_magic(self, ndpi):
        frame = TuyaLpMessage.discovery("gw", "pk", "10.0.0.1").encode()
        assert ndpi.classify_packet(udp_packet(frame, 6666, 6666)) is Label.TUYALP

    def test_mdns_vs_dns(self, ndpi):
        query = mdns_query(["_hue._tcp.local"]).encode()
        assert ndpi.classify_packet(udp_packet(query, 5353, 5353)) is Label.MDNS
        assert ndpi.classify_packet(udp_packet(query, 5000, 53)) is Label.DNS

    def test_stun_by_magic_cookie(self, ndpi):
        stun = StunMessage(transaction_id=b"x" * 12).encode()
        assert ndpi.classify_packet(udp_packet(stun, 5000, 3478)) is Label.STUN

    def test_rtp_mislabeled_stun_in_10000_range(self, ndpi):
        # Appendix C.2: Google's RTP on 10000-10010 labeled STUN.
        rtp = RtpPacket(97, 1, 1, 1, b"x" * 32).encode()
        assert ndpi.classify_packet(udp_packet(rtp, 10005, 10005)) is Label.STUN
        # Outside the range it is correctly RTP.
        assert ndpi.classify_packet(udp_packet(rtp, 55444, 55444)) is Label.RTP

    def test_nintendo_eapol_mislabeled_amazonaws(self, ndpi):
        frame = EthernetFrame("02:00:00:00:00:02", "98:b6:e9:01:02:03",
                              EtherType.EAPOL, b"\x02\x03\x00\x00")
        assert ndpi.classify_packet(decode_frame(frame.encode())) is Label.AMAZON_AWS

    def test_ciscovpn_artifact_on_specific_notify_length(self, ndpi):
        base = SsdpMessage.notify("http://x/", "upnp:rootdevice", "uuid:1::r", "srv")
        wire = base.encode()
        padding = (97 - len(wire) % 97) % 97
        padded = wire[:-2] + b" " * padding + b"\r\n"
        assert len(padded) % 97 == 0
        assert ndpi.classify_packet(udp_packet(padded, 50000, 1900)) is Label.CISCOVPN

    def test_unknown_payload_unlabeled(self, ndpi):
        assert ndpi.classify_packet(udp_packet(b"\xa7\x01\x02\x03", 40000, 40001)) is None

    def test_http_by_method(self, ndpi):
        assert ndpi.classify_packet(tcp_packet(b"GET /api HTTP/1.1\r\n\r\n", 5000, 8123)) is Label.HTTP


class TestManualRules:
    def test_stun_in_10000_range_corrected_to_rtp(self):
        classifier = CorrectedClassifier()
        rtp = RtpPacket(97, 1, 1, 1, b"x" * 32).encode()
        assert classifier.classify_packet(udp_packet(rtp, 10005, 10005)) is Label.RTP

    def test_55444_is_rtp(self):
        classifier = CorrectedClassifier()
        rtp = RtpPacket(97, 1, 1, 1, b"x" * 32).encode()
        assert classifier.classify_packet(udp_packet(rtp, 55444, 55444)) is Label.RTP

    def test_ciscovpn_artifact_corrected(self):
        classifier = CorrectedClassifier()
        base = SsdpMessage.notify("http://x/", "upnp:rootdevice", "uuid:1::r", "srv")
        wire = base.encode()
        padding = (97 - len(wire) % 97) % 97
        padded = wire[:-2] + b" " * padding + b"\r\n"
        assert classifier.classify_packet(udp_packet(padded, 50000, 1900)) is Label.SSDP

    def test_amazonaws_artifact_corrected(self):
        classifier = CorrectedClassifier()
        frame = EthernetFrame("02:00:00:00:00:02", "98:b6:e9:01:02:03",
                              EtherType.EAPOL, b"\x02\x03\x00\x00")
        assert classifier.classify_packet(decode_frame(frame.encode())) is Label.EAPOL

    def test_lifx_broadcast_unknown(self):
        classifier = CorrectedClassifier()
        packet = udp_packet(b"\x24\x00" + b"\x00" * 34, 50000, 56700)
        assert classifier.classify_packet(packet) is Label.UNKNOWN

    def test_unlabeled_transport_becomes_unknown(self):
        classifier = CorrectedClassifier()
        assert classifier.classify_packet(udp_packet(b"\xa7\x01", 40000, 40001)) is Label.UNKNOWN

    def test_rules_are_ordered(self):
        rules = default_rules()
        names = [rule.name for rule in rules]
        assert names.index("google-10000-range-is-rtp") < names.index("unlabeled-transport-is-unknown")


class TestCrossValidation:
    def test_crossval_on_capture(self, mini_capture):
        from repro.classify.crossval import cross_validate

        testbed, _ = mini_capture
        result = cross_validate(testbed.lan.capture.index())
        assert result.total_units > 0
        assert 0.5 < result.tshark_coverage <= 1.0
        assert 0.5 < result.ndpi_coverage <= 1.0
        # The documented dominant disagreement mode is present.
        assert result.confusion.get(("UNKNOWN", "SSDP"), 0) > 0

    def test_heatmap_shape(self, mini_capture):
        from repro.classify.crossval import cross_validate

        testbed, _ = mini_capture
        result = cross_validate(testbed.lan.capture.index())
        tshark_axis, ndpi_axis, matrix = result.heatmap()
        assert len(matrix) == len(ndpi_axis)
        assert all(len(row) == len(tshark_axis) for row in matrix)
        assert sum(sum(row) for row in matrix) == result.total_units

    def test_https_tls_alias_agree(self):
        from repro.classify.crossval import cross_validate
        from repro.net.columnar import PacketTable
        from repro.net.index import CaptureIndex

        record = TlsRecord.client_hello(TlsVersion.TLS_1_2).encode()
        packets = [tcp_packet(record, 50000, 443)]
        result = cross_validate(CaptureIndex(PacketTable.from_packets(packets)))
        assert result.agree == 1 and result.disagree == 0
