"""Failure injection: decoding must be total over damaged input.

The AP capture can contain truncated or corrupted frames (snaplen,
radio loss); every analysis walks the capture, so decode_frame and the
classifiers must never raise on damaged bytes.
"""

import random

import pytest

from repro.classify.ndpi_like import NdpiLikeClassifier
from repro.classify.rules import CorrectedClassifier
from repro.classify.tshark_like import TsharkLikeClassifier
from repro.net.decode import decode_frame
from repro.net.ether import EthernetFrame, EtherType
from repro.net.ipv4 import Ipv4Packet
from repro.net.udp import UdpDatagram
from repro.protocols.dhcp import DhcpMessage
from repro.protocols.dns import DnsMessage
from repro.protocols.mdns import ServiceAdvertisement
from repro.protocols.ssdp import SsdpMessage
from repro.protocols.tplink_shp import TplinkShpMessage
from repro.protocols.tuyalp import TuyaLpMessage


def _sample_frames():
    """A representative frame of every protocol family."""
    frames = []
    advert = ServiceAdvertisement("_hue._tcp.local", "Hue", "h.local", 443, "192.168.10.2")
    payloads = [
        (5353, 5353, advert.to_response().encode()),
        (50000, 1900, SsdpMessage.msearch().encode()),
        (68, 67, DhcpMessage.discover("02:00:00:00:00:01", 7, hostname="x").encode()),
        (51000, 9999, TplinkShpMessage.get_sysinfo_query().encode()),
        (6666, 6666, TuyaLpMessage.discovery("g", "p", "10.0.0.1").encode()),
    ]
    for sport, dport, payload in payloads:
        datagram = UdpDatagram(sport, dport, payload)
        packet = Ipv4Packet("192.168.10.1", "192.168.10.2", 17, datagram.encode())
        frames.append(
            EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                          EtherType.IPV4, packet.encode()).encode()
        )
    return frames


class TestTruncation:
    @pytest.mark.parametrize("frame", _sample_frames(), ids=["mdns", "ssdp", "dhcp", "tplink", "tuya"])
    def test_every_truncation_decodes(self, frame):
        classifiers = [TsharkLikeClassifier(), NdpiLikeClassifier(), CorrectedClassifier()]
        for cut in range(14, len(frame)):
            packet = decode_frame(frame[:cut])
            for classifier in classifiers:
                classifier.classify_packet(packet)  # must never raise

    def test_too_short_for_ethernet_yields_quarantined_stub(self):
        """Decode is total: runt frames come back as marked stubs."""
        from repro.net.decode import DecodeErrorLog

        errors = DecodeErrorLog()
        packet = decode_frame(b"\x00" * 10, timestamp=1.5, errors=errors)
        assert packet.is_malformed
        assert packet.decode_error == "ethernet"
        assert packet.timestamp == 1.5
        assert errors.counts == {"ethernet": 1}


class TestBitflips:
    def test_random_corruption_never_crashes(self):
        rng = random.Random(99)
        classifiers = [TsharkLikeClassifier(), NdpiLikeClassifier(), CorrectedClassifier()]
        for frame in _sample_frames():
            for _ in range(50):
                corrupted = bytearray(frame)
                for _ in range(rng.randrange(1, 6)):
                    corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
                packet = decode_frame(bytes(corrupted))
                for classifier in classifiers:
                    classifier.classify_packet(packet)

    def test_random_garbage_payloads(self):
        rng = random.Random(7)
        for _ in range(100):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            datagram = UdpDatagram(rng.randrange(65536), rng.randrange(65536), payload)
            ip_packet = Ipv4Packet("192.168.10.1", "192.168.10.2", 17, datagram.encode())
            frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                                  EtherType.IPV4, ip_packet.encode()).encode()
            packet = decode_frame(frame)
            CorrectedClassifier().classify_packet(packet)


class TestAnalysisRobustness:
    def test_exposure_analysis_on_garbage(self):
        from repro.core.exposure import analyze_exposure
        from repro.net.columnar import PacketTable
        from repro.net.index import CaptureIndex

        rng = random.Random(3)
        packets = []
        for port in (67, 5353, 1900, 6666, 9999):
            payload = bytes(rng.randrange(256) for _ in range(64))
            datagram = UdpDatagram(50000, port, payload)
            ip_packet = Ipv4Packet("192.168.10.1", "192.168.10.2", 17, datagram.encode())
            frame = EthernetFrame("02:00:00:00:00:02", "02:00:00:00:00:01",
                                  EtherType.IPV4, ip_packet.encode()).encode()
            packets.append(decode_frame(frame))
        index = CaptureIndex(PacketTable.from_packets(packets))
        matrix = analyze_exposure(index, {"02:00:00:00:00:01": "dev"})
        # Garbage must not produce spurious geolocation/key exposure.
        assert not matrix.devices_exposing("TPLINK", "Geolocation")
        assert not matrix.devices_exposing("TuyaLP", "Prod. Key")

    def test_inspector_payloads_are_data_not_instructions(self):
        """A hostile device label/payload cannot break extraction."""
        from repro.inspector.entropy import device_identifiers
        from repro.inspector.schema import InspectedDevice

        hostile = InspectedDevice(
            device_id="x", oui="d8:31:34",
            dhcp_hostname="$(rm -rf /)'; DROP TABLE devices;--",
            ssdp_responses=[b"HTTP/1.1 200 OK\r\nUSN: uuid:\xff\xfe\x00broken\r\n\r\n"],
            mdns_responses=[b"\x00\x01\x02"],
        )
        identifiers = device_identifiers(hostile)
        assert identifiers["uuid"] == set()
        assert identifiers["mac"] == set()
