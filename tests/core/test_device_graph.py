"""The Figs. 1/4 device graph on hand-built inputs.

A graph is its node list and its ``(a, b, transport)`` edge keys; these
pin the behaviours the full-lab tests do not reach: one device behind
two MACs, the coordinator's tie rule, per-transport vendor clusters and
devices without an edge.
"""

from __future__ import annotations

from repro.core.device_graph import DeviceGraph, build_device_graph
from repro.monitor.state import IncrementalDeviceGraph
from repro.net.columnar import PacketTable
from repro.net.ether import EthernetFrame, EtherType
from repro.net.index import CaptureIndex
from repro.net.ipv4 import Ipv4Packet
from repro.net.tcp import TcpSegment
from repro.report.artifacts import device_graph_artifact

HUB_WIFI, HUB_WIRED, PLUG = "02:aa:00:00:00:01", "02:aa:00:00:00:02", "02:aa:00:00:00:03"


def _tcp_frame(src: str, dst: str) -> bytes:
    segment = TcpSegment(src_port=51000, dst_port=443, payload=b"\x16\x03\x03")
    ip = Ipv4Packet("192.168.10.10", "192.168.10.20", 6, segment.encode())
    return EthernetFrame(src, dst, EtherType.IPV4, ip.encode()).encode()


def test_two_macs_of_one_device_are_one_node():
    macs = {HUB_WIFI: "hub", HUB_WIRED: "hub", PLUG: "plug"}
    index = CaptureIndex(PacketTable.from_records(
        [(0.0, _tcp_frame(HUB_WIFI, PLUG)), (1.0, _tcp_frame(PLUG, HUB_WIRED))]))
    state = IncrementalDeviceGraph(macs)
    state.update(index)
    for graph in (build_device_graph(index, macs, {}), state.finalize()):
        assert graph.nodes == ["hub", "plug"]
        assert graph.edges == [("hub", "plug", "tcp")]
        assert graph.degrees() == {"hub": 1, "plug": 1}
        assert graph.summary()["devices_total"] == 2


def test_a_coordinator_tie_goes_to_the_first_member_in_vendor_order():
    graph = DeviceGraph(["a", "b", "c"], [("a", "b", "udp")],
                        {"b": "Acme", "a": "Acme", "c": "Acme"})
    assert graph.coordinator_of("Acme") == "b"
    assert graph.coordinator_of("Acme", "tcp") is None


def test_a_vendor_cluster_keeps_that_vendors_edges_of_one_transport():
    graph = DeviceGraph(
        ["echo-1", "echo-2", "hub"],
        [("echo-1", "echo-2", "tcp"), ("echo-1", "echo-2", "udp"), ("echo-2", "hub", "udp")],
        {"echo-2": "Amazon", "hub": "Google", "echo-1": "Amazon"})
    cluster = graph.vendor_cluster("Amazon", "udp")
    assert cluster.nodes == ["echo-2", "echo-1"]
    assert cluster.edges == [("echo-1", "echo-2", "udp")]
    assert graph.vendor_cluster("Amazon").edges == graph.edges[:2]
    assert graph.summary() == {"devices_total": 3, "devices_communicating": 3,
                               "device_pairs": 2, "pairs_tcp_and_udp": 1}


def test_a_device_without_an_edge_is_a_node_but_does_not_communicate():
    graph = DeviceGraph(["b", "a", "lamp"], [("a", "b", "tcp")], {})
    assert graph.degrees() == {"b": 1, "a": 1, "lamp": 0}
    assert graph.communicating_devices == ["b", "a"]
    assert device_graph_artifact(graph) == {
        "nodes": ["a", "b", "lamp"],
        "edges": [["a", "b", "tcp"]],
        "summary": {"devices_total": 3, "devices_communicating": 2,
                    "device_pairs": 1, "pairs_tcp_and_udp": 0},
    }
