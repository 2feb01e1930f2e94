"""Tests for the honeypot deployment."""

import pytest

from repro.honeypot.base import HoneypotLog
from repro.honeypot.farm import HoneypotFarm
from repro.honeypot.http import HttpHoneypot
from repro.honeypot.mdns import MdnsHoneypot
from repro.honeypot.ssdp import SsdpHoneypot
from repro.honeypot.telnet import TelnetHoneypot
from repro.net.decode import DecodedPacket
from repro.net.tcp import TcpFlags, TcpSegment
from repro.protocols.dns import DnsMessage
from repro.protocols.http import HttpRequest, HttpResponse
from repro.protocols.mdns import encode_advertisements, mdns_query
from repro.protocols.ssdp import SSDP_GROUP_V4, SsdpMessage, SsdpMethod
from repro.simnet.node import Node


@pytest.fixture
def prober(lan):
    node = lan.attach(Node("prober", "02:00:00:00:00:66", "192.168.10.66"))
    inbox = []
    node.add_raw_hook(lambda _n, p: inbox.append(p))
    return node, inbox


class TestSsdpHoneypot:
    def test_answers_msearch_with_marker(self, lan, prober):
        node, inbox = prober
        honeypot = SsdpHoneypot().attach_to(lan)
        node.join_group(SSDP_GROUP_V4)
        node.send_udp(SSDP_GROUP_V4, 1900, SsdpMessage.msearch().encode(), src_port=50123)
        responses = [p for p in inbox if p.udp and p.udp.src_port == 1900]
        assert len(responses) == 1
        message = SsdpMessage.decode(responses[0].udp.payload)
        assert message.method is SsdpMethod.RESPONSE
        marker = message.uuid()
        assert marker and marker.startswith("hp-honeypot-ssdp-")
        # the contact is logged with the same marker
        assert honeypot.log.events[0].marker == marker
        assert honeypot.log.events[0].src_mac == str(node.mac)

    def test_logs_notify_without_responding(self, lan, prober):
        node, inbox = prober
        honeypot = SsdpHoneypot().attach_to(lan)
        notify = SsdpMessage.notify("http://x/", "upnp:rootdevice", "uuid:dev::r", "srv")
        node.send_udp(SSDP_GROUP_V4, 1900, notify.encode(), src_port=50124)
        assert len(honeypot.log) == 1
        assert not any(p.udp and p.udp.src_port == 1900 for p in inbox)

    def test_description_xml_carries_marker(self, lan):
        honeypot = SsdpHoneypot().attach_to(lan)
        xml = honeypot.description_xml("hp-test-000001")
        assert "hp-test-000001" in xml


class TestMdnsHoneypot:
    def test_answers_served_type(self, lan, prober):
        node, inbox = prober
        honeypot = MdnsHoneypot().attach_to(lan)
        node.join_group("224.0.0.251")
        query = mdns_query(["_googlecast._tcp.local"])
        node.send_udp("224.0.0.251", 5353, query.encode(), src_port=5353)
        responses = []
        for p in inbox:
            if p.udp and p.udp.src_port == 5353:
                message = DnsMessage.decode(p.udp.payload)
                if message.is_response:
                    responses.append(message)
        assert responses
        names = [record.name for record in responses[0].answers]
        assert any("_googlecast._tcp.local" == name for name in names)
        assert honeypot.log.events[-1].marker

    def test_meta_query_answers_every_marked_advertisement(self, lan, prober):
        node, inbox = prober
        honeypot = MdnsHoneypot().attach_to(lan)
        node.join_group("224.0.0.251")
        node.send_udp("224.0.0.251", 5353,
                      mdns_query(["_services._dns-sd._udp.local"]).encode(), src_port=5353)
        (payload,) = [p.udp.payload for p in inbox if p.udp and p.udp.src_port == 5353
                      and DnsMessage.decode(p.udp.payload).is_response]
        marker = honeypot.log.events[-1].marker
        adverts = honeypot.advertisements(marker)
        assert len(adverts) == len(MdnsHoneypot.SERVED_TYPES) - 1
        assert payload == encode_advertisements(adverts)

    def test_ignores_unserved_type_but_logs(self, lan, prober):
        node, inbox = prober
        honeypot = MdnsHoneypot().attach_to(lan)
        node.join_group("224.0.0.251")
        node.send_udp("224.0.0.251", 5353,
                      mdns_query(["_nosuch._tcp.local"]).encode(), src_port=5353)
        assert len(honeypot.log) == 1
        assert honeypot.log.events[0].marker is None

    def test_unicast_reply_for_qu_questions(self, lan, prober):
        node, inbox = prober
        MdnsHoneypot().attach_to(lan)
        query = mdns_query(["_airplay._tcp.local"], unicast_response=True)
        node.send_udp("224.0.0.251", 5353, query.encode(), src_port=5353)
        unicast = [p for p in inbox if p.udp and p.is_unicast and p.udp.src_port == 5353]
        assert unicast


class TestHttpHoneypot:
    def test_serves_marked_description(self, lan, prober):
        node, inbox = prober
        honeypot = HttpHoneypot().attach_to(lan)
        request = HttpRequest("GET", "/desc.xml", {"User-Agent": "test-agent"})
        segment = TcpSegment(50000, 49152, seq=1, flags=TcpFlags.ACK | TcpFlags.PSH,
                             payload=request.encode())
        node.send_tcp_segment(honeypot.ip, segment)
        replies = [p for p in inbox if p.tcp and p.tcp.payload]
        assert replies
        response = HttpResponse.decode(replies[0].tcp.payload)
        assert response.server_banner == "HoneyHTTPd/1.0"
        assert b"hp-honeypot-http-" in response.body
        assert "test-agent" in honeypot.log.events[0].summary

    def test_non_http_logged(self, lan, prober):
        node, _ = prober
        honeypot = HttpHoneypot().attach_to(lan)
        segment = TcpSegment(50000, 80, seq=1, flags=TcpFlags.ACK | TcpFlags.PSH,
                             payload=b"\x16\x03\x03\x00\x00")
        node.send_tcp_segment(honeypot.ip, segment)
        assert "non-HTTP" in honeypot.log.events[0].summary


class TestTelnetHoneypot:
    def test_banner_and_credential_capture(self, lan, prober):
        node, inbox = prober
        honeypot = TelnetHoneypot().attach_to(lan)
        segment = TcpSegment(50000, 23, seq=1, flags=TcpFlags.ACK | TcpFlags.PSH,
                             payload=b"admin:admin\r\n")
        node.send_tcp_segment(honeypot.ip, segment)
        assert honeypot.credential_attempts == [(node.ip, "admin:admin")]
        banners = [p for p in inbox if p.tcp and b"login:" in p.tcp.payload]
        assert banners

    def test_fragmented_line(self, lan, prober):
        node, _ = prober
        honeypot = TelnetHoneypot().attach_to(lan)
        for chunk in (b"roo", b"t:toor\r\n"):
            segment = TcpSegment(50001, 23, seq=1, flags=TcpFlags.ACK | TcpFlags.PSH,
                                 payload=chunk)
            node.send_tcp_segment(honeypot.ip, segment)
        assert honeypot.credential_attempts == [(node.ip, "root:toor")]


class TestFarm:
    def test_deploys_all_four(self, lan):
        farm = HoneypotFarm.deploy(lan)
        assert len(farm.honeypots) == 4
        protocols = {hp.protocol for hp in farm.honeypots}
        assert protocols == {"ssdp", "mdns", "http", "telnet"}

    def test_shared_log(self, lan, prober):
        node, _ = prober
        farm = HoneypotFarm.deploy(lan)
        node.send_udp(SSDP_GROUP_V4, 1900, SsdpMessage.msearch().encode(), src_port=50125)
        node.send_udp("224.0.0.251", 5353,
                      mdns_query(["_googlecast._tcp.local"]).encode(), src_port=5353)
        observed = farm.scanners_observed()
        assert str(node.mac) in observed
        assert set(observed[str(node.mac)]) == {"ssdp", "mdns"}
        assert farm.contact_count() == 2

    def test_honeypots_observe_device_scans(self, mini_testbed):
        farm = HoneypotFarm.deploy(mini_testbed.lan)
        mini_testbed.run(300.0)
        # Devices doing SSDP/mDNS discovery contact the honeypots.
        assert farm.contact_count() > 0
        protocols = {event.protocol for event in farm.log.events}
        assert "ssdp" in protocols or "mdns" in protocols

    def test_markers_are_unique(self, lan, prober):
        node, _ = prober
        honeypot = SsdpHoneypot().attach_to(lan)
        for index in range(5):
            node.send_udp(SSDP_GROUP_V4, 1900, SsdpMessage.msearch().encode(),
                          src_port=50200 + index)
        markers = honeypot.log.markers()
        assert len(markers) == 5 and len(set(markers)) == 5
