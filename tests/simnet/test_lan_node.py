"""Unit tests for LAN delivery semantics and node stack behaviour."""

import pytest

from repro.net.decode import decode_frame
from repro.net.icmp import IcmpType
from repro.net.tcp import TcpFlags, TcpSegment
from repro.simnet.capture import ApCapture
from repro.simnet.lan import Lan
from repro.simnet.node import Node
from repro.simnet.services import ServiceInfo, ServiceTable
from repro.simnet.simulator import Simulator


def _inbox(node):
    packets = []
    node.add_raw_hook(lambda _n, p: packets.append(p))
    return packets


class TestDelivery:
    def test_unicast_reaches_only_owner(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        c = lan.attach(Node("c", "02:00:00:00:00:13", "192.168.10.13"))
        b_in, c_in = _inbox(b), _inbox(c)
        a.send_udp(b.ip, 1234, b"hi")
        assert len(b_in) == 1 and len(c_in) == 0

    def test_broadcast_reaches_everyone_but_sender(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        c = lan.attach(Node("c", "02:00:00:00:00:13", "192.168.10.13"))
        a_in, b_in, c_in = _inbox(a), _inbox(b), _inbox(c)
        a.send_udp("255.255.255.255", 9999, b"bcast")
        assert len(a_in) == 0 and len(b_in) == 1 and len(c_in) == 1

    def test_multicast_reaches_members_only(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        member = lan.attach(Node("m", "02:00:00:00:00:12", "192.168.10.12"))
        outsider = lan.attach(Node("o", "02:00:00:00:00:13", "192.168.10.13"))
        member.join_group("239.255.255.250")
        m_in, o_in = _inbox(member), _inbox(outsider)
        a.send_udp("239.255.255.250", 1900, b"M-SEARCH")
        assert len(m_in) == 1 and len(o_in) == 0

    def test_link_local_multicast_reaches_all(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        b_in = _inbox(b)
        a.send_udp("224.0.0.251", 5353, b"mdns")  # 224.0.0.x: all stacks
        assert len(b_in) == 1

    def test_link_local_group_is_decided_once_per_frame(self, lan, monkeypatch):
        nodes = [lan.attach(Node(f"n{i}", f"02:00:00:00:00:{16 + i:02x}",
                                 f"192.168.10.{16 + i}")) for i in range(6)]
        nodes[2].join_group("239.255.255.250")
        nodes[4].join_group("239.255.255.250")
        inboxes = [_inbox(node) for node in nodes]
        decided = []
        is_link_local = Lan._is_link_local_group
        monkeypatch.setattr(Lan, "_is_link_local_group", staticmethod(
            lambda group: decided.append(group) or is_link_local(group)))
        nodes[0].send_udp("239.255.255.250", 1900, b"M-SEARCH")
        nodes[0].send_udp("224.0.0.251", 5353, b"mdns")
        assert decided == ["239.255.255.250", "224.0.0.251"]
        assert [len(inbox) for inbox in inboxes] == [0, 1, 2, 1, 2, 1]

    @pytest.mark.parametrize("group,link_local", [
        ("224.0.0.251", True),
        ("239.255.255.250", False),
        ("ff02::1", True),
        ("ff02::16", False),  # all MLDv2-capable routers
        ("ff02::1a", False),
        ("ff02::1:2", False),  # all DHCPv6 relay agents and servers
        ("ff02::fb", True),
    ])
    def test_link_local_groups(self, group, link_local):
        assert Lan._is_link_local_group(group) is link_local

    def test_ipv6_group_reaches_members_only(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        b_in = _inbox(b)
        a.send_udp6("ff02::16", 9, b"mld")
        assert b_in == []
        b.multicast_groups.add("ff02::16")
        a.send_udp6("ff02::16", 9, b"mld")
        assert len(b_in) == 1

    def test_capture_sees_everything(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        b.udp_closed_behavior = "drop"
        a.send_udp(b.ip, 1, b"one")
        a.send_udp("255.255.255.255", 2, b"two")
        assert lan.capture.packet_count == 2

    def test_duplicate_mac_rejected(self, lan):
        lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        with pytest.raises(ValueError):
            lan.attach(Node("b", "02:00:00:00:00:11", "192.168.10.12"))

    def test_ip_allocation(self, lan):
        node = lan.attach(Node("auto", "02:00:00:00:00:21", "0.0.0.0"))
        assert node.ip.startswith("192.168.10.")
        assert node.ip != lan.gateway_ip

    def test_ip_allocation_stays_inside_the_subnet(self, lan):
        """.10 upwards, then the hosts below .10; never the broadcast
        address or one outside the /24, and an error once none is left."""
        macs = (f"02:00:00:00:{index >> 8:02x}:{index & 0xFF:02x}" for index in range(1, 300))
        nodes = [lan.attach(Node(f"n{index}", next(macs), "0.0.0.0")) for index in range(253)]
        hosts = [int(node.ip.rsplit(".", 1)[1]) for node in nodes]
        assert hosts == list(range(10, 255)) + list(range(2, 10))
        assert all(node.ip.startswith("192.168.10.") for node in nodes)
        with pytest.raises(ValueError, match=r"192\.168\.10\.0/24"):
            lan.attach(Node("full", next(macs), "0.0.0.0"))
        lan.detach(nodes[100])
        assert lan.attach(Node("again", next(macs), "0.0.0.0")).ip == nodes[100].ip

    def test_detach(self, lan):
        node = lan.attach(Node("x", "02:00:00:00:00:31", "192.168.10.31"))
        lan.detach(node)
        assert lan.node_by_name("x") is None
        assert node.lan is None

    def test_node_lookup(self, lan):
        node = lan.attach(Node("findme", "02:00:00:00:00:41", "192.168.10.41"))
        assert lan.node_by_name("findme") is node
        assert lan.node_by_ip("192.168.10.41") is node
        assert lan.mac_of("192.168.10.41") == node.mac


class TestNodeStack:
    def test_arp_broadcast_answered(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        a_in = _inbox(a)
        a.send_arp_request(b.ip)
        replies = [p for p in a_in if p.arp and p.arp.op == 2]
        assert len(replies) == 1
        assert replies[0].arp.sender_mac == b.mac

    def test_arp_broadcast_policy(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        shy = lan.attach(Node("shy", "02:00:00:00:00:12", "192.168.10.12"))
        shy.responds_to_broadcast_arp = False
        a_in = _inbox(a)
        a.send_arp_request(shy.ip)
        assert not any(p.arp and p.arp.op == 2 for p in a_in)
        # ...but unicast ARP is always answered (§5.1).
        a.send_arp_request(shy.ip, unicast_to=shy.mac)
        assert any(p.arp and p.arp.op == 2 for p in a_in)

    def test_tcp_syn_to_open_port(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        server = lan.attach(Node("s", "02:00:00:00:00:12", "192.168.10.12",
                                 services=ServiceTable([ServiceInfo(80, "tcp", "http")])))
        a_in = _inbox(a)
        a.send_tcp_segment(server.ip, TcpSegment(50000, 80, flags=TcpFlags.SYN))
        assert any(p.tcp and p.tcp.is_synack for p in a_in)

    def test_tcp_syn_to_closed_port_rst(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        server = lan.attach(Node("s", "02:00:00:00:00:12", "192.168.10.12"))
        a_in = _inbox(a)
        a.send_tcp_segment(server.ip, TcpSegment(50000, 81, flags=TcpFlags.SYN))
        assert any(p.tcp and p.tcp.is_rst for p in a_in)

    def test_tcp_scan_replies_carry_exact_flags(self, lan):
        """Open ports answer SYN|ACK, closed ones RST|ACK, both as TcpFlags."""
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        server = lan.attach(Node("s", "02:00:00:00:00:12", "192.168.10.12",
                                 services=ServiceTable([ServiceInfo(80, "tcp", "http")])))
        a_in = _inbox(a)
        a.send_tcp_segment(server.ip, TcpSegment(50000, 80, seq=41, flags=TcpFlags.SYN))
        a.send_tcp_segment(server.ip, TcpSegment(50001, 81, seq=99, flags=TcpFlags.SYN))
        replies = {p.tcp.dst_port: p.tcp for p in a_in if p.tcp}
        assert replies[50000].flags == TcpFlags.SYN | TcpFlags.ACK
        assert replies[50001].flags == TcpFlags.RST | TcpFlags.ACK
        assert all(isinstance(r.flags, TcpFlags) for r in replies.values())
        assert (replies[50000].ack, replies[50001].ack) == (42, 100)

    def test_tcp_silent_when_not_responding_to_scans(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        quiet = lan.attach(Node("q", "02:00:00:00:00:12", "192.168.10.12"))
        quiet.responds_to_tcp_scan = False
        a_in = _inbox(a)
        a.send_tcp_segment(quiet.ip, TcpSegment(50000, 81, flags=TcpFlags.SYN))
        assert not any(p.tcp for p in a_in)

    def test_udp_closed_port_unreachable(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        a_in = _inbox(a)
        a.send_udp(b.ip, 999, b"probe")
        assert any(p.icmp and p.icmp.icmp_type == IcmpType.DEST_UNREACHABLE for p in a_in)

    def test_udp_closed_port_drop_mode(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        b.udp_closed_behavior = "drop"
        a_in = _inbox(a)
        a.send_udp(b.ip, 999, b"probe")
        assert not any(p.icmp for p in a_in)

    def test_udp_ephemeral_port_consumed_silently(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        a_in = _inbox(a)
        a.send_udp(b.ip, 50001, b"reply-to-client-socket")
        assert not any(p.icmp for p in a_in)

    def test_ping_reply(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        a_in = _inbox(a)
        a.send_icmp_echo(b.ip)
        assert any(p.icmp and p.icmp.icmp_type == IcmpType.ECHO_REPLY for p in a_in)

    def test_ping_ignored_when_disabled(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        b.responds_to_ping = False
        a_in = _inbox(a)
        a.send_icmp_echo(b.ip)
        assert not any(p.icmp and p.icmp.icmp_type == IcmpType.ECHO_REPLY for p in a_in)

    def test_neighbor_solicitation_answered(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        a_in = _inbox(a)
        a.send_neighbor_solicitation(b.ipv6_link_local)
        advertisements = [p for p in a_in if p.icmpv6 and p.icmpv6.icmp_type == 136]
        assert len(advertisements) == 1
        assert advertisements[0].icmpv6.embedded_mac() == b.mac

    def test_ns_ignored_when_ipv6_disabled(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        b = lan.attach(Node("b", "02:00:00:00:00:12", "192.168.10.12"))
        b.ipv6_enabled = False
        a_in = _inbox(a)
        a.send_neighbor_solicitation(b.ipv6_link_local)
        assert not any(p.icmpv6 and p.icmpv6.icmp_type == 136 for p in a_in)

    def test_igmp_join_emits_report(self, lan):
        a = lan.attach(Node("a", "02:00:00:00:00:11", "192.168.10.11"))
        a.join_group("239.255.255.250")
        igmp = [p for p in lan.capture.table().packets() if p.igmp]
        assert len(igmp) == 1
        assert igmp[0].igmp.group == "239.255.255.250"
        # joining twice is idempotent
        a.join_group("239.255.255.250")
        assert sum(1 for p in lan.capture.table().packets() if p.igmp) == 1

    def test_unattached_node_raises(self):
        node = Node("lonely", "02:00:00:00:00:99", "192.168.10.99")
        with pytest.raises(RuntimeError):
            node.send_udp("192.168.10.1", 1, b"")

    def test_ephemeral_ports_increment_and_wrap(self, lan):
        node = lan.attach(Node("n", "02:00:00:00:00:51", "192.168.10.51"))
        first = node.ephemeral_port()
        assert node.ephemeral_port() == first + 1
        node._next_ephemeral = 65536
        assert node.ephemeral_port() == 49152


class TestTcpExchange:
    def test_full_conversation_on_wire(self, two_nodes):
        client, server = two_nodes
        lan = client.lan
        port = lan.tcp_exchange(client, server, 80, [b"GET / HTTP/1.1\r\n\r\n"],
                                [b"HTTP/1.1 200 OK\r\n\r\n"])
        lan.simulator.run()
        assert port is not None
        tcp = [p for p in lan.capture.table().packets() if p.tcp]
        flags = [p.tcp.flags for p in tcp]
        assert any(p.tcp.is_syn for p in tcp)
        assert any(p.tcp.is_synack for p in tcp)
        assert any(p.tcp.payload == b"GET / HTTP/1.1\r\n\r\n" for p in tcp)
        assert any(p.tcp.payload == b"HTTP/1.1 200 OK\r\n\r\n" for p in tcp)
        assert sum(1 for p in tcp if p.tcp.flags & TcpFlags.FIN) == 2

    def test_closed_port_returns_none(self, two_nodes):
        client, server = two_nodes
        lan = client.lan
        result = lan.tcp_exchange(client, server, 4444, [b"x"], [])
        lan.simulator.run()
        assert result is None
        assert any(p.tcp and p.tcp.is_rst for p in lan.capture.table().packets())

    def test_server_handler_sees_payload(self, two_nodes):
        client, server = two_nodes
        lan = client.lan
        seen = []
        server.on_tcp(80, lambda node, packet: seen.append(packet.tcp.payload))
        lan.tcp_exchange(client, server, 80, [b"hello"], [])
        lan.simulator.run()
        assert seen == [b"hello"]


class TestCapture:
    def test_per_mac_split(self, two_nodes):
        client, server = two_nodes
        server.udp_closed_behavior = "drop"
        lan = client.lan
        client.send_udp(server.ip, 1234, b"x")
        split = lan.capture.per_mac()
        # Unicast frame appears under both source and destination MAC.
        assert client.mac in split and server.mac in split

    def test_per_mac_pcap_files(self, two_nodes, tmp_path):
        client, server = two_nodes
        server.udp_closed_behavior = "drop"
        lan = client.lan
        client.send_udp(server.ip, 1234, b"x")
        paths = lan.capture.write_per_mac_pcaps(tmp_path)
        assert str(client.mac) in paths
        from repro.net.pcap import read_pcap

        assert len(read_pcap(paths[str(client.mac)])) == 1

    def test_whole_capture_pcap(self, two_nodes, tmp_path):
        client, server = two_nodes
        server.udp_closed_behavior = "drop"
        client.send_udp(server.ip, 1234, b"x")
        count = client.lan.capture.write_pcap(tmp_path / "all.pcap")
        assert count == 1

    def test_keep_bytes_off(self):
        capture = ApCapture(keep_bytes=False)
        capture.observe(1.0, b"\x00" * 60)
        assert capture.packet_count == 1
        assert capture.records == []

    def test_clear(self):
        capture = ApCapture()
        capture.observe(1.0, b"\x00" * 60)
        capture.clear()
        assert capture.packet_count == 0 and capture.records == []

    def test_index_rows_by_source_mac(self, two_nodes):
        client, server = two_nodes
        client.udp_closed_behavior = "drop"
        server.udp_closed_behavior = "drop"
        client.send_udp(server.ip, 1, b"a")
        server.send_udp(client.ip, 2, b"b")
        index = client.lan.capture.index()
        sent = index.by_src_mac[str(client.mac)]
        assert len(sent) == 1 and index.table.app_payload(sent[0]) == b"a"
