"""Tests for the gateway's DHCP server and Testbed helpers."""

import pytest

from repro.devices.behaviors import GatewayNode, build_testbed
from repro.protocols.dhcp import DhcpMessage, DhcpMessageType
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.simulator import Simulator


class TestGatewayDhcp:
    @pytest.fixture
    def gateway_lan(self):
        simulator = Simulator()
        lan = Lan(simulator)
        gateway = GatewayNode()
        lan.attach(gateway, ip=lan.gateway_ip)
        client = lan.attach(Node("client", "02:aa:00:00:00:31", "192.168.10.31"))
        inbox = []
        client.add_raw_hook(lambda _n, p: inbox.append(p))
        return lan, gateway, client, inbox

    def test_request_acked(self, gateway_lan):
        lan, gateway, client, inbox = gateway_lan
        request = DhcpMessage.request(
            client.mac, 0x42, requested_ip=client.ip, server_ip=gateway.ip,
            hostname="client-host",
        )
        client.send_udp("255.255.255.255", 67, request.encode(), src_port=68)
        acks = [p for p in inbox if p.udp and p.udp.src_port == 67]
        assert acks
        reply = DhcpMessage.decode(acks[0].udp.payload)
        assert reply.message_type is DhcpMessageType.ACK
        assert reply.your_ip == client.ip
        assert reply.transaction_id == 0x42

    def test_lease_recorded(self, gateway_lan):
        lan, gateway, client, inbox = gateway_lan
        request = DhcpMessage.request(client.mac, 1, client.ip, gateway.ip)
        client.send_udp("255.255.255.255", 67, request.encode(), src_port=68)
        assert gateway.dhcp_leases[str(client.mac)] == client.ip

    def test_garbage_ignored(self, gateway_lan):
        lan, gateway, client, inbox = gateway_lan
        client.send_udp("255.255.255.255", 67, b"\x00" * 60, src_port=68)
        assert not any(p.udp and p.udp.src_port == 67 for p in inbox)

    def test_server_replies_not_answered(self, gateway_lan):
        # A BOOTREPLY arriving at the server port must not loop.
        lan, gateway, client, inbox = gateway_lan
        reply = DhcpMessage.reply(
            DhcpMessage.request(client.mac, 1, client.ip, gateway.ip),
            DhcpMessageType.ACK, client.ip, gateway.ip, gateway.ip,
        )
        client.send_udp("255.255.255.255", 67, reply.encode(), src_port=68)
        assert not any(p.udp and p.udp.src_port == 67 for p in inbox)


class TestTestbedHelpers:
    @pytest.fixture(scope="class")
    def testbed(self):
        return build_testbed(seed=29)

    def test_device_lookup(self, testbed):
        assert testbed.device("philips-hue-hub-1") is not None
        assert testbed.device("no-such-device") is None

    def test_devices_of_vendor(self, testbed):
        amazon = testbed.devices_of_vendor("Amazon")
        assert len(amazon) == 19  # 17 voice + Fire TV + smart plug
        assert all(node.vendor == "Amazon" for node in amazon)

    def test_run_advances_clock(self, testbed):
        before = testbed.simulator.now
        testbed.run(5.0)
        assert testbed.simulator.now == before + 5.0

    def test_every_device_attached_with_unique_identity(self, testbed):
        macs = {str(node.mac) for node in testbed.devices}
        ips = {node.ip for node in testbed.devices}
        assert len(macs) == 93 and len(ips) == 93

    def test_gateway_present(self, testbed):
        assert testbed.gateway.ip == testbed.lan.gateway_ip
        assert testbed.lan.node_by_name("gateway") is testbed.gateway

    def test_wire_clusters_optional(self):
        bare = build_testbed(seed=29, wire_clusters=False)
        bare.run(120.0)
        tcp = [p for p in bare.lan.capture.table().packets() if p.tcp and p.tcp.payload]
        # Without cluster wiring there are no TLS/HTTP conversations.
        assert not any(p.tcp.payload[:1] == b"\x16" for p in tcp)
