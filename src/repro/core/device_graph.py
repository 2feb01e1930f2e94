"""Figures 1 and 4: the device-to-device communication graph.

Nodes are devices, edges are unicast TCP/UDP conversations.  As in
Figure 1, multicast/broadcast discovery protocols (and their unicast
responses) are excluded, as are smartphone interactions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.classify.labels import DISCOVERY_LABELS, Label
from repro.net.columnar import F_UDP, TRANSPORT_UDP
from repro.net.index import CaptureIndex

#: Ports whose unicast traffic is a discovery response, not a
#: device-to-device conversation.
_DISCOVERY_PORTS = {53, 67, 68, 137, 1900, 5353, 5683, 6666, 6667, 9999}


@dataclass
class DeviceGraph:
    """The transport-layer communication graph.

    ``nodes`` are device names in first-seen order, each once.
    ``edges`` are :func:`conversation_edges` keys ``(a, b, transport)``
    with ``a <= b``, each once; both ends of every edge are nodes.
    """

    nodes: List[str]
    edges: List[Tuple[str, str, str]]
    device_vendor: Dict[str, str]

    def degrees(self) -> Dict[str, int]:
        """Edges at each node, in node order.

        A pair that talks over TCP and UDP has two edges.
        """
        degrees = dict.fromkeys(self.nodes, 0)
        for a, b, _ in self.edges:
            degrees[a] += 1
            degrees[b] += 1
        return degrees

    @property
    def communicating_devices(self) -> List[str]:
        return [node for node, degree in self.degrees().items() if degree > 0]

    def vendor_cluster(self, vendor: str, transport: Optional[str] = None) -> DeviceGraph:
        """The Figure 4 view: the subgraph among one vendor's devices."""
        members = [
            node for node, owner in self.device_vendor.items() if owner == vendor
        ]
        inside = set(members)
        edges = [
            (a, b, kind) for a, b, kind in self.edges
            if a in inside and b in inside and (transport is None or kind == transport)
        ]
        return DeviceGraph(members, edges, self.device_vendor)

    def coordinator_of(self, vendor: str, transport: Optional[str] = None) -> Optional[str]:
        """Highest-degree device in a vendor cluster (Fig. 4e's Echo).

        A tie goes to the first member in ``device_vendor`` order.
        """
        cluster = self.vendor_cluster(vendor, transport)
        if not cluster.edges:
            return None
        degrees = cluster.degrees()
        return max(degrees, key=degrees.get)

    def summary(self) -> Dict[str, object]:
        per_pair = Counter((a, b) for a, b, _ in self.edges)
        return {
            "devices_total": len(self.nodes),
            "devices_communicating": len(self.communicating_devices),
            "device_pairs": len(per_pair),
            "pairs_tcp_and_udp": sum(1 for count in per_pair.values() if count > 1),
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
    Nodes keep the map's first-seen order, edges
    :func:`conversation_edges` order.
    """
    return DeviceGraph(list(dict.fromkeys(device_macs.values())),
                       conversation_edges(index, device_macs), device_vendor)
