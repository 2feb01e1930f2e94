"""Tests for the behaviour engine: the traffic profiles actually emit."""

import pytest

from repro.devices.behaviors import DeviceNode, build_testbed
from repro.protocols.dhcp import DhcpMessage
from repro.protocols.dns import DnsMessage
from repro.protocols.ssdp import SsdpMessage, SsdpMethod
from repro.protocols.tplink_shp import TplinkShpMessage
from repro.protocols.tuyalp import TuyaLpMessage


class TestBootTraffic:
    def test_dhcp_carries_hostname_and_client_version(self, mini_capture):
        testbed, packets = mini_capture
        dhcp_requests = []
        for packet in packets:
            if packet.udp and packet.udp.dst_port == 67:
                try:
                    dhcp_requests.append(DhcpMessage.decode(packet.udp.payload))
                except ValueError:
                    pass
        assert dhcp_requests
        hostnames = {m.hostname for m in dhcp_requests if m.hostname}
        assert any("tp-link" in h.lower() or "tplink" in h.lower() for h in hostnames)
        versions = {m.vendor_class for m in dhcp_requests if m.vendor_class}
        assert any(v.startswith("udhcp") for v in versions)

    def test_dhcp_server_acks(self, mini_capture):
        testbed, packets = mini_capture
        acks = [p for p in packets if p.udp and p.udp.src_port == 67]
        assert acks  # the gateway answered

    def test_eapol_on_boot(self, mini_capture):
        testbed, packets = mini_capture
        eapol_senders = {str(p.frame.src) for p in packets if p.eapol}
        wireless = [n for n in testbed.devices if n.profile.uses_eapol]
        assert len(eapol_senders) >= len(wireless) - 1

    def test_gratuitous_arp_on_boot(self, mini_capture):
        testbed, packets = mini_capture
        gratuitous = [p for p in packets if p.arp and p.arp.is_gratuitous]
        assert gratuitous

    def test_igmp_joins_for_discovery_groups(self, mini_capture):
        testbed, packets = mini_capture
        groups = {p.igmp.group for p in packets if p.igmp}
        assert "224.0.0.251" in groups  # mDNS
        assert "239.255.255.250" in groups  # SSDP


class TestDiscoveryTraffic:
    def test_mdns_queries_and_responses(self, mini_capture):
        testbed, packets = mini_capture
        queries = responses = 0
        for packet in packets:
            if packet.udp and packet.udp.dst_port == 5353:
                try:
                    message = DnsMessage.decode(packet.udp.payload)
                except ValueError:
                    continue
                if message.is_response:
                    responses += 1
                else:
                    queries += 1
        assert queries > 0 and responses > 0

    def test_hue_mdns_instance_embeds_mac(self, mini_capture):
        testbed, packets = mini_capture
        hue = testbed.device("philips-hue-hub-1")
        suffix = hue.mac.nic_suffix.replace(":", "").upper()
        adverts = hue.mdns_advertisements()
        assert any(suffix in advert.instance_name for advert in adverts)

    def test_ssdp_msearch_sent(self, mini_capture):
        testbed, packets = mini_capture
        msearch = 0
        for packet in packets:
            if packet.udp and packet.udp.dst_port == 1900:
                try:
                    if SsdpMessage.decode(packet.udp.payload).method is SsdpMethod.MSEARCH:
                        msearch += 1
                except ValueError:
                    pass
        assert msearch > 0

    def test_ssdp_responses_unicast(self, mini_capture):
        testbed, packets = mini_capture
        responses = [
            p for p in packets
            if p.udp and p.udp.src_port == 1900 and p.is_unicast
            and p.udp.payload.startswith(b"HTTP/1.1 200")
        ]
        assert responses

    def test_lg_firmware_rotation_in_user_agent(self, mini_capture):
        testbed, packets = mini_capture
        agents = set()
        for packet in packets:
            if packet.udp and packet.udp.dst_port == 1900:
                try:
                    message = SsdpMessage.decode(packet.udp.payload)
                except ValueError:
                    continue
                agent = message.headers.get("USER-AGENT")
                if agent:
                    agents.add(agent)
        assert any("WebOS" in agent for agent in agents)

    def test_tplink_discovery_answered_with_geolocation(self, mini_capture):
        testbed, packets = mini_capture
        sysinfo_responses = []
        for packet in packets:
            if packet.udp and packet.udp.src_port == 9999:
                try:
                    message = TplinkShpMessage.decode(packet.udp.payload)
                except ValueError:
                    continue
                if message.sysinfo:
                    sysinfo_responses.append(message.sysinfo)
        assert sysinfo_responses
        assert all("latitude" in info for info in sysinfo_responses)

    def test_jinvoo_tuya_plaintext_gwid(self, mini_capture):
        testbed, packets = mini_capture
        jinvoo = testbed.device("tuya-automation-3")
        plaintext = []
        for packet in packets:
            if packet.udp and packet.udp.dst_port in (6666, 6667):
                try:
                    message = TuyaLpMessage.decode(packet.udp.payload)
                except ValueError:
                    continue
                if not message.encrypted:
                    plaintext.append(message)
        assert plaintext
        assert any(m.gw_id == jinvoo.tuya_gw_id for m in plaintext)

    def test_echo_unknown_broadcast_to_56700(self, mini_capture):
        testbed, packets = mini_capture
        lifx = [p for p in packets if p.udp and p.udp.dst_port == 56700 and p.is_broadcast]
        assert lifx

    def test_tuya_devices_do_not_answer_strangers(self, mini_capture):
        testbed, packets = mini_capture
        # §5.1: Tuya devices do not respond unless queried by their
        # companion app — no unicast traffic *from* tuya port 6667.
        unicast_from_tuya = [
            p for p in packets
            if p.udp and p.udp.src_port in (6666, 6667) and p.is_unicast
        ]
        assert unicast_from_tuya == []


class TestIdentifiers:
    def test_stable_per_device_identifiers(self):
        testbed_a = build_testbed(seed=99)
        testbed_b = build_testbed(seed=99)
        device_a = testbed_a.device("amazon-echo-spot-1")
        device_b = testbed_b.device("amazon-echo-spot-1")
        assert device_a.uuid == device_b.uuid
        assert device_a.mac == device_b.mac
        assert device_a.tuya_gw_id == device_b.tuya_gw_id

    def test_different_seeds_differ(self):
        a = build_testbed(seed=1).device("amazon-echo-spot-1")
        b = build_testbed(seed=2).device("amazon-echo-spot-1")
        assert a.uuid != b.uuid

    def test_macs_match_vendor_ouis(self):
        from repro.net.oui import DEFAULT_OUI_REGISTRY

        testbed = build_testbed(seed=5)
        mismatches = [
            node.name
            for node in testbed.devices
            if DEFAULT_OUI_REGISTRY.vendor_of(node.mac)
            not in (node.vendor, None)
        ]
        assert mismatches == []

    def test_randomized_hostname_changes(self, mini_testbed):
        # GE-style devices produce a fresh hostname per request.
        testbed = build_testbed(seed=3)
        ge = testbed.device("ge-microwave-1")
        assert ge.dhcp_hostname() != ge.dhcp_hostname()

    def test_display_name_hostname(self):
        testbed = build_testbed(seed=3)
        homepod = testbed.device("apple-homepod-mini-1")
        assert "Jane-Doe" in homepod.dhcp_hostname()


class TestClusters:
    def test_amazon_tls_star(self, full_testbed_run):
        testbed, index = full_testbed_run
        amazon_macs = {str(n.mac) for n in testbed.devices_of_vendor("Amazon")}
        tls_pairs = set()
        for packet in map(index.table.packet, index.tcp_payload):
            if (packet.tcp and packet.tcp.payload[:1] == b"\x16"
                    and str(packet.frame.src) in amazon_macs
                    and str(packet.frame.dst) in amazon_macs):
                tls_pairs.add((str(packet.frame.src), str(packet.frame.dst)))
        assert tls_pairs  # Echo cluster talks TLS internally

    def test_apple_uses_tls13(self, full_testbed_run):
        from repro.protocols.tls import HandshakeType, TlsVersion, iter_records

        testbed, index = full_testbed_run
        apple_macs = {str(n.mac) for n in testbed.devices_of_vendor("Apple")}
        versions = set()
        for packet in map(index.table.packet, index.tcp_payload):
            if packet.tcp and str(packet.frame.src) in apple_macs and packet.tcp.payload:
                for record in iter_records(packet.tcp.payload):
                    handshake = record.handshake()
                    if handshake and handshake.handshake_type in (
                        HandshakeType.CLIENT_HELLO, HandshakeType.SERVER_HELLO,
                    ):
                        versions.add(handshake.version)
        assert TlsVersion.TLS_1_3 in versions

    def test_echo_arp_sweep_covers_ip_space(self, full_testbed_run):
        testbed, index = full_testbed_run
        echo_macs = {str(n.mac) for n in testbed.devices
                     if n.vendor == "Amazon" and n.profile.category == "Voice Assistant"}
        sweep_targets = {
            p.arp.target_ip for p in map(index.table.packet, index.arp)
            if p.arp and p.arp.op == 1 and str(p.frame.src) in echo_macs and p.is_broadcast
        }
        assert len(sweep_targets) > 200  # the whole /24 swept

    def test_interop_edges_exist(self, full_testbed_run):
        testbed, index = full_testbed_run
        # Controller -> TP-Link TCP 9999 (unauthenticated control, §5.1).
        tplink_macs = {str(n.mac) for n in testbed.devices_of_vendor("TP-Link")}
        control = [
            p for p in map(index.table.packet, index.tcp_payload)
            if p.tcp and p.tcp.dst_port == 9999 and str(p.frame.dst) in tplink_macs
            and p.tcp.payload
        ]
        assert control
