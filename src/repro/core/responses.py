"""Table 4 / Appendix D.2: correlating discoveries with their responses.

"We correlate multicast and broadcast discoveries with their responses
by inspecting unicast inbound traffic to the devices that initiate the
discoveries.  We search for traffic employing the same transport layer
protocol and port number within a short time period (empirically set as
3 seconds)."  ARP, DHCP, and ICMP(v6) are excluded as they are used by
almost every device.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.classify.labels import Label
from repro.net.columnar import F_UNICAST, TRANSPORT_UDP
from repro.net.index import CaptureIndex

#: Discovery labels considered, excluding the near-universal ones.
COUNTED_DISCOVERY = {Label.MDNS, Label.SSDP, Label.TPLINK_SHP, Label.TUYALP, Label.COAP, Label.NETBIOS}


@dataclass
class DeviceResponseStats:
    """Per-device discovery/response accounting."""

    device: str
    category: str
    discovery_protocols: Set[str] = field(default_factory=set)
    protocols_with_response: Set[str] = field(default_factory=set)
    responders: Set[str] = field(default_factory=set)


@dataclass
class ResponseCorrelation:
    """Aggregated Table 4."""

    per_device: Dict[str, DeviceResponseStats] = field(default_factory=dict)

    def by_category(self) -> List[Tuple[str, float, float, float]]:
        """(category, avg #discovery protocols, avg #protocols with
        response, avg #devices responded to) — the three Table 4 columns."""
        groups: Dict[str, List[DeviceResponseStats]] = defaultdict(list)
        for stats in self.per_device.values():
            if stats.discovery_protocols:
                groups[stats.category].append(stats)
        rows = []
        for category, members in sorted(groups.items()):
            count = len(members)
            rows.append(
                (
                    category,
                    sum(len(stats.discovery_protocols) for stats in members) / count,
                    sum(len(stats.protocols_with_response) for stats in members) / count,
                    sum(len(stats.responders) for stats in members) / count,
                )
            )
        return rows


def correlate_responses(
    index: CaptureIndex,
    device_macs: Dict[str, str],
    device_category: Dict[str, str],
    window: float = 3.0,
    include_multicast_responses: bool = False,
) -> ResponseCorrelation:
    """Run the Appendix D.2 correlation over a capture.

    ``include_multicast_responses`` implements the appendix's stated
    future work: "A response could also be multicast traffic such as QM
    mDNS" — when enabled, a multicast mDNS *response* within the window
    of a query is credited to every device with an outstanding query.

    Discovery candidates come from the index's chronological multicast
    bucket and responses from the unicast bucket, so pending-list and
    responder insertion orders match a full scan exactly.
    """
    correlation = ResponseCorrelation()
    for name in device_macs.values():
        correlation.per_device[name] = DeviceResponseStats(
            device=name, category=device_category.get(name, "Unknown")
        )

    # Pass 1: outstanding discoveries, keyed by (initiator, transport,
    # source port): each holds the discovery timestamp and protocol
    # label.  The timestamp is stored verbatim (not as a precomputed
    # deadline) so the window check below is exact for responses that
    # share the discovery's timestamp.
    table = index.table
    timestamps = table.timestamps
    src_col, dst_col = table.src_mac, table.dst_mac
    sport_col, dport_col = table.src_port, table.dst_port
    trans_col, flags_col = table.transport, table.flags
    device_of = [device_macs.get(mac) for mac in table.mac_strings]

    def _transport(rid: int) -> str:
        return "udp" if trans_col[rid] == TRANSPORT_UDP else "tcp"

    pending: Dict[Tuple[str, str, int], List[Tuple[float, str]]] = defaultdict(list)
    for rid in index.transport_multicast:
        src = device_of[src_col[rid]]
        if src is None:
            continue
        label = index.label_at(rid)
        if label not in COUNTED_DISCOVERY:
            continue
        stats = correlation.per_device[src]
        stats.discovery_protocols.add(str(label))
        pending[(src, _transport(rid), sport_col[rid])].append(
            (timestamps[rid], str(label))
        )

    # Extension pass (QM mDNS): multicast responses credited to every
    # device with an outstanding mDNS query inside the window.
    if include_multicast_responses:
        from repro.protocols.dns import DnsMessage

        mdns_queries: List[Tuple[float, str]] = [
            (discovered_at, initiator)
            for (initiator, transport, port), entries in pending.items()
            if transport == "udp" and port == 5353
            for discovered_at, label in entries
            if label == str(Label.MDNS)
        ]
        for rid in index.udp:
            if flags_col[rid] & F_UNICAST or dport_col[rid] != 5353:
                continue
            responder = device_of[src_col[rid]]
            try:
                message = DnsMessage.decode(table.app_payload(rid))
            except ValueError:
                continue
            if not message.is_response:
                continue
            for discovered_at, initiator in mdns_queries:
                if 0.0 <= timestamps[rid] - discovered_at <= window:
                    stats = correlation.per_device[initiator]
                    stats.protocols_with_response.add(str(Label.MDNS))
                    if responder is not None and responder != initiator:
                        stats.responders.add(responder)

    # Pass 2: unicast inbound traffic matching transport + port within
    # the window counts as a response.
    for rid in index.transport_unicast:
        dst = device_of[dst_col[rid]]
        if dst is None:
            continue
        responder = device_of[src_col[rid]]
        key = (dst, _transport(rid), dport_col[rid])
        for discovered_at, label in pending.get(key, ()):
            if 0.0 <= timestamps[rid] - discovered_at <= window:
                stats = correlation.per_device[dst]
                stats.protocols_with_response.add(label)
                if responder is not None:
                    stats.responders.add(responder)
                break
    return correlation


def category_of_profile(profile) -> str:
    """Map a DeviceProfile to the Table 4 grouping."""
    if profile.vendor == "Amazon" and profile.category == "Voice Assistant":
        return "Amazon Echo"
    if profile.vendor == "Google":
        return "Google&Nest"
    if profile.vendor == "Apple":
        return "Apple"
    if profile.vendor == "Tuya":
        return "Tuya"
    if profile.category == "Media/TV":
        return "TVs"
    if profile.category == "Surveillance":
        return "Cameras"
    if "Hub" in profile.model or "Bridge" in profile.model or "Gateway" in profile.model:
        return "Hubs"
    if profile.category == "Home Automation":
        return "Home Auto"
    if profile.category == "Home Appliance":
        return "Appliances"
    return profile.category
