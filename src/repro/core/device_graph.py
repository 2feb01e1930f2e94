"""Figures 1 and 4: the device-to-device communication graph.

Nodes are devices, edges are unicast TCP/UDP conversations.  As in
Figure 1, multicast/broadcast discovery protocols (and their unicast
responses) are excluded, as are smartphone interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.classify.labels import DISCOVERY_LABELS, Label
from repro.net.columnar import F_UDP, TRANSPORT_UDP
from repro.net.index import CaptureIndex

#: Ports whose unicast traffic is a discovery response, not a
#: device-to-device conversation.
_DISCOVERY_PORTS = {53, 67, 68, 137, 1900, 5353, 5683, 6666, 6667, 9999}


@dataclass
class DeviceGraph:
    """The transport-layer communication graph."""

    graph: nx.MultiGraph
    device_vendor: Dict[str, str]

    @property
    def communicating_devices(self) -> List[str]:
        return [node for node in self.graph.nodes if self.graph.degree(node) > 0]

    def edge_transports(self, a: str, b: str) -> Set[str]:
        if not self.graph.has_edge(a, b):
            return set()
        return {data.get("transport") for data in self.graph[a][b].values()}

    def vendor_cluster(self, vendor: str, transport: Optional[str] = None) -> nx.MultiGraph:
        """The Figure 4 view: the subgraph among one vendor's devices."""
        members = [
            node for node, owner in self.device_vendor.items() if owner == vendor
        ]
        subgraph = nx.MultiGraph()
        subgraph.add_nodes_from(members)
        for a, b, data in self.graph.edges(data=True):
            if a in subgraph and b in subgraph:
                if transport is None or data.get("transport") == transport:
                    subgraph.add_edge(a, b, **data)
        return subgraph

    def coordinator_of(self, vendor: str, transport: Optional[str] = None) -> Optional[str]:
        """Highest-degree device in a vendor cluster (Fig. 4e's Echo)."""
        cluster = self.vendor_cluster(vendor, transport)
        if cluster.number_of_edges() == 0:
            return None
        return max(cluster.nodes, key=lambda node: cluster.degree(node))

    def summary(self) -> Dict[str, object]:
        pair_transports: Dict[Tuple[str, str], Set[str]] = {}
        for a, b, data in self.graph.edges(data=True):
            pair = tuple(sorted((a, b)))
            pair_transports.setdefault(pair, set()).add(data.get("transport"))
        both = sum(1 for transports in pair_transports.values() if len(transports) > 1)
        return {
            "devices_total": self.graph.number_of_nodes(),
            "devices_communicating": len(self.communicating_devices),
            "device_pairs": len(pair_transports),
            "pairs_tcp_and_udp": both,
        }


def conversation_edges(
    index: CaptureIndex, device_macs: Dict[str, str]
) -> List[Tuple[str, str, str]]:
    """The ``(a, b, transport)`` edge keys of a capture, first-seen order.

    Walks the index's chronological unicast-transport bucket; ``a <= b``
    within each key, and each key appears once.  Rows whose source or
    destination MAC is unmapped, and a device talking to itself, add
    no edge.
    """
    edges: Dict[Tuple[str, str, str], None] = {}
    table = index.table
    src_col, dst_col = table.src_mac, table.dst_mac
    sport_col, dport_col = table.src_port, table.dst_port
    flags_col, trans_col = table.flags, table.transport
    # One device_macs lookup per interned MAC, not per packet.
    device_of = [device_macs.get(mac) for mac in table.mac_strings]
    for rid in index.transport_unicast:
        src = device_of[src_col[rid]]
        dst = device_of[dst_col[rid]]
        if src is None or dst is None or src == dst:
            continue
        # Discovery responses ride unicast UDP from well-known ports;
        # TCP on the same port numbers (e.g. TPLINK-SHP control on
        # 9999) is a genuine device-to-device conversation and stays.
        if flags_col[rid] & F_UDP and (
            sport_col[rid] in _DISCOVERY_PORTS or dport_col[rid] in _DISCOVERY_PORTS
        ):
            label = index.label_at(rid)
            if label in DISCOVERY_LABELS or label is Label.DNS:
                continue
        pair = (src, dst) if src <= dst else (dst, src)
        transport = "udp" if trans_col[rid] == TRANSPORT_UDP else "tcp"
        edges.setdefault((pair[0], pair[1], transport))
    return list(edges)


def build_device_graph(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    device_vendor: Dict[str, str],
) -> DeviceGraph:
    """Build the Fig. 1 graph from a capture.

    ``device_macs``: MAC -> device name for IoT devices only (so phone
    and gateway traffic is excluded, as the figure caption requires).
    Edges are added in :func:`conversation_edges` order.
    """
    graph = nx.MultiGraph()
    graph.add_nodes_from(device_macs.values())
    for a, b, transport in conversation_edges(index, device_macs):
        graph.add_edge(a, b, transport=transport)
    return DeviceGraph(graph=graph, device_vendor=device_vendor)
